"""Discrete-event scheduler driving the simulated browser.

AJAX responses, ``setTimeout`` callbacks, and asynchronous page
initialization (the source of the timing errors WebErr injects) are all
modeled as tasks scheduled on this loop. Running the loop advances the
:class:`~repro.util.clock.VirtualClock`, so "waiting" during replay is a
deterministic simulation step rather than a real sleep.
"""

import heapq
import itertools

from repro.util.clock import VirtualClock


class ScheduledTask:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("when", "callback", "cancelled", "task_id")

    def __init__(self, when, callback, task_id):
        self.when = when
        self.callback = callback
        self.cancelled = False
        self.task_id = task_id

    def cancel(self):
        """Prevent the task from running (no-op if it already ran)."""
        self.cancelled = True

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        return "ScheduledTask(id=%d, when=%.3f, %s)" % (self.task_id, self.when, state)


class EventLoop:
    """Priority-queue discrete-event loop over a virtual clock.

    Tasks scheduled for the same instant run in scheduling order (FIFO),
    which matches how a single-threaded browser event loop drains its
    queue and keeps runs deterministic.

    ``_queue`` is a heap of ``(when, task_id, task)`` and the one list
    the loop ever holds: a replay session keeps a reference to it and
    reads its head to tell whether any task falls due before its next
    command (:meth:`repro.session.engine.SessionRun.step`).
    """

    def __init__(self, clock=None):
        self.clock = clock if clock is not None else VirtualClock()
        self._queue = []
        self._counter = itertools.count()

    def call_later(self, delay_ms, callback):
        """Schedule ``callback`` to run ``delay_ms`` ms from now."""
        if delay_ms < 0:
            raise ValueError("delay must be non-negative, got %r" % delay_ms)
        task_id = next(self._counter)
        task = ScheduledTask(self.clock.now() + delay_ms, callback, task_id)
        heapq.heappush(self._queue, (task.when, task_id, task))
        return task

    def call_soon(self, callback):
        """Schedule ``callback`` to run at the current instant."""
        return self.call_later(0.0, callback)

    def pending_count(self):
        """Number of not-yet-cancelled tasks in the queue."""
        return sum(1 for _, _, task in self._queue if not task.cancelled)

    def next_deadline(self):
        """Timestamp of the earliest pending task, or None if idle."""
        for when, _, task in sorted(self._queue):
            if not task.cancelled:
                return when
        return None

    def run_until_idle(self, max_tasks=100_000):
        """Run tasks (advancing the clock) until the queue is empty.

        ``max_tasks`` guards against runaway self-rescheduling scripts.
        Returns the number of tasks executed.
        """
        executed = 0
        while self._queue:
            if executed >= max_tasks:
                raise RuntimeError("event loop exceeded %d tasks" % max_tasks)
            when, _, task = heapq.heappop(self._queue)
            if task.cancelled:
                continue
            # Synchronous work (e.g. a navigation fetch) may advance the
            # clock past a pending deadline; overdue tasks run "now".
            self.clock.advance_to(max(when, self.clock.now()))
            task.callback()
            executed += 1
        return executed

    def run_for(self, duration_ms):
        """Run tasks due within the next ``duration_ms`` ms, then advance.

        The clock always ends exactly ``duration_ms`` later, whether or not
        tasks were due — this is what "the user waits" means in replay.
        Returns the number of tasks executed.
        """
        if duration_ms < 0:
            raise ValueError("duration must be non-negative")
        deadline = self.clock.now() + duration_ms
        executed = 0
        while self._queue:
            when, _, task = self._queue[0]
            if when > deadline:
                break
            heapq.heappop(self._queue)
            if task.cancelled:
                continue
            self.clock.advance_to(max(when, self.clock.now()))
            task.callback()
            executed += 1
        self.clock.advance_to(max(deadline, self.clock.now()))
        return executed

    def __repr__(self):
        return "EventLoop(now=%.3f, pending=%d)" % (
            self.clock.now(),
            self.pending_count(),
        )

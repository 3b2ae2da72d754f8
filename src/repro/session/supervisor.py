"""Worker supervision: heartbeats, respawn backoff, breaker, drain.

The worker pool's first containment story handled *one* dead worker
per trace; this layer makes the farm survive the failure modes a real
deployment sees:

- **heartbeats** — each worker runs a tiny daemon thread posting a
  heartbeat message over the existing result pipe. The parent tracks
  the last beat per worker, so a *process-level* freeze (SIGSTOP, a
  wedged C call, a deadlocked interpreter) is detected even when no
  per-trace deadline is configured — hang detection is a property of
  the worker, the per-trace deadline a property of the trace.
- **respawn backoff + circuit breaker** — a worker death schedules its
  slot's respawn after a capped-exponential delay (consecutive deaths
  back off; any completed trace resets the streak). When deaths keep
  coming with nothing completing in between, the breaker trips: the
  pool stops burning processes, warns, bumps the ``pool.degraded``
  perf counter, and hands the unfinished traces back to the batch
  runner, whose serial loop replays them in-process — slower, but the
  batch still finishes and the journal stays consistent. Each batch
  starts with the breaker closed again.
- **graceful drain** — :class:`GracefulDrain` converts SIGTERM/SIGINT
  into a drain *request*: admission stops, in-flight traces finish,
  the journal and telemetry flush, and the process exits nonzero with
  a resumable journal instead of dying mid-write.

Everything here is policy + book-keeping; the pool owns the processes
and queues and calls in at its decision points.
"""

import os
import signal
import threading
import time

from repro import perf

#: Env var (seconds) slowing every trace down in real time — soak/test
#: plumbing so signals and kills can land mid-run deterministically.
#: Honored by every per-trace replay, in the serial loop (handed-back
#: traces included) and in pool workers.
THROTTLE_ENV = "REPRO_SOAK_THROTTLE"


def throttle_seconds():
    """Real seconds to sleep per trace (soak/test plumbing; 0 = off)."""
    try:
        return float(os.environ.get(THROTTLE_ENV, "") or 0.0)
    except ValueError:
        return 0.0


class SupervisorPolicy:
    """Tunables for worker respawn and the degradation breaker."""

    def __init__(self, backoff_base=0.05, backoff_cap=2.0,
                 breaker_deaths=6):
        if backoff_base < 0 or backoff_cap < backoff_base:
            raise ValueError("need 0 <= backoff_base <= backoff_cap")
        if breaker_deaths < 1:
            raise ValueError("breaker_deaths must be >= 1")
        #: First-respawn delay; doubles per consecutive death.
        self.backoff_base = float(backoff_base)
        #: Ceiling on any single respawn delay.
        self.backoff_cap = float(backoff_cap)
        #: Consecutive deaths (no trace completed in between) that trip
        #: the breaker and hand the batch's remainder back for
        #: in-process execution.
        self.breaker_deaths = int(breaker_deaths)

    def backoff(self, consecutive_deaths):
        """Respawn delay after the N-th consecutive death (N >= 1)."""
        if consecutive_deaths <= 1:
            return self.backoff_base
        return min(self.backoff_cap,
                   self.backoff_base * (2.0 ** (consecutive_deaths - 1)))

    def __repr__(self):
        return ("SupervisorPolicy(base=%gs, cap=%gs, breaker=%d)"
                % (self.backoff_base, self.backoff_cap,
                   self.breaker_deaths))


class WorkerSupervisor:
    """Death accounting and respawn scheduling for one pool.

    The pool reports deaths and completions; the supervisor answers
    "when may this slot respawn?" and "has the breaker tripped?".
    """

    def __init__(self, policy=None):
        self.policy = policy if policy is not None else SupervisorPolicy()
        #: Worker deaths since the pool started (lifetime count).
        self.deaths = 0
        #: Deaths since the last completed trace (breaker input).
        self.consecutive_deaths = 0
        self.tripped = False
        #: slot -> monotonic time before which it must not respawn.
        self._respawn_at = {}

    def record_death(self, slot, now=None):
        """A worker died; schedule its slot's respawn with backoff.

        Returns True when this death tripped the circuit breaker (the
        pool should degrade instead of respawning).
        """
        now = time.monotonic() if now is None else now
        self.deaths += 1
        self.consecutive_deaths += 1
        perf.record("pool.respawn", False)
        if self.consecutive_deaths >= self.policy.breaker_deaths:
            self.tripped = True
            return True
        self._respawn_at[slot] = now + self.policy.backoff(
            self.consecutive_deaths)
        return False

    def rearm(self):
        """Close the breaker for a new batch; the death streak restarts."""
        self.tripped = False
        self.consecutive_deaths = 0

    def record_completion(self):
        """A trace finished — workers are making progress again."""
        self.consecutive_deaths = 0

    def due_slots(self, now=None):
        """Slots whose backoff has elapsed (removed from the schedule)."""
        if self.tripped or not self._respawn_at:
            return []
        now = time.monotonic() if now is None else now
        due = [slot for slot, at in self._respawn_at.items() if at <= now]
        for slot in due:
            del self._respawn_at[slot]
        return due

    def pending_slots(self):
        """Slots still waiting out their backoff."""
        return list(self._respawn_at)

    def next_due_in(self, now=None):
        """Seconds until the nearest scheduled respawn, or None."""
        if self.tripped or not self._respawn_at:
            return None
        now = time.monotonic() if now is None else now
        return max(0.0, min(self._respawn_at.values()) - now)

    def __repr__(self):
        return ("WorkerSupervisor(deaths=%d, streak=%d%s)"
                % (self.deaths, self.consecutive_deaths,
                   ", TRIPPED" if self.tripped else ""))


# -- graceful drain -----------------------------------------------------------


class GracefulDrain:
    """SIGTERM/SIGINT as a drain request instead of sudden death.

    Used as a context manager around a batch run::

        with GracefulDrain() as drain:
            batch = runner.run(traces)
        if drain.requested:
            sys.exit(75)  # resumable: the journal holds the finishes

    The first signal sets the flag (the runner stops admission,
    finishes in-flight traces, flushes journal + telemetry); a second
    signal restores the default disposition, so an operator who really
    means it can still kill the process immediately.
    """

    SIGNALS = (signal.SIGTERM, signal.SIGINT)

    def __init__(self, signals=SIGNALS):
        self.signals = tuple(signals)
        self._event = threading.Event()
        self._previous = {}

    @property
    def requested(self):
        return self._event.is_set()

    def __call__(self):
        """Drain-flag probe, passable anywhere a callable is expected."""
        return self._event.is_set()

    def request(self):
        """Trip the drain flag programmatically (tests, embedders)."""
        self._event.set()

    def _handler(self, signum, frame):
        self._event.set()
        # Second signal = immediate: restore default dispositions.
        for signum_, previous in self._previous.items():
            try:
                signal.signal(signum_, previous)
            except (ValueError, OSError):  # non-main thread / teardown
                pass

    def __enter__(self):
        for signum in self.signals:
            try:
                self._previous[signum] = signal.signal(signum, self._handler)
            except (ValueError, OSError):
                # Not the main thread (embedded use): stay programmatic.
                pass
        return self

    def __exit__(self, exc_type, exc_value, tb):
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):
                pass
        self._previous = {}
        return False


# -- worker-side heartbeat ----------------------------------------------------


def start_heartbeat(result_queue, worker_id, interval, stop_event=None):
    """Start the worker's heartbeat thread; returns the stop event.

    The thread posts ``("heartbeat", -1, worker_id)`` on the result
    queue every ``interval`` seconds until the event is set. It is a
    daemon thread, so a worker that exits abruptly never blocks on it —
    and its silence is exactly the hang signal the parent watches for.
    """
    stop = stop_event if stop_event is not None else threading.Event()

    def beat():
        while not stop.wait(interval):
            try:
                result_queue.put(("heartbeat", -1, worker_id))
            except (ValueError, OSError):
                return  # queue closed under us: the pool is retiring

    thread = threading.Thread(target=beat, name="pool-heartbeat",
                              daemon=True)
    thread.start()
    return stop


def tail_text(path, limit=2048):
    """The last ``limit`` bytes of a text file, decoded leniently.

    Used for the quarantine diagnosis bundle's worker-stderr tail;
    returns "" when the file is missing or empty.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(0, 2)
            size = handle.tell()
            handle.seek(max(0, size - limit))
            return handle.read().decode("utf-8", "replace")
    except OSError:
        return ""

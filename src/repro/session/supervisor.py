"""Worker supervision: respawn backoff, breaker, drain.

The worker pool's first containment story handled *one* dead worker
per trace; this layer makes the farm survive the failure modes a real
deployment sees:

- **respawn backoff + circuit breaker** — a worker death schedules its
  slot's respawn after a capped-exponential delay (consecutive deaths
  back off; any completed trace resets the streak). When deaths keep
  coming with nothing completing in between, the breaker trips: the
  pool stops burning processes, warns, counts the trip in
  ``WorkerPool.stats["degraded"]``, and hands the unfinished traces
  back to the batch runner, whose serial loop replays them in-process
  — slower, but the batch still finishes and the journal stays
  consistent. Each batch starts with the breaker closed again.
- **graceful drain** — :class:`GracefulDrain` converts SIGTERM/SIGINT
  into a drain *request*: admission stops, in-flight traces finish,
  the journal and telemetry flush, and the process exits nonzero with
  a resumable journal instead of dying mid-write.

A frozen worker (SIGSTOP, a wedged C call) is caught by the batch's
per-trace deadline, which the pool enforces from the parent.

Everything here is policy + book-keeping; the pool owns the processes
and their channels and calls in at its decision points.
"""

import math
import os
import signal
import threading
import time


#: Env var (seconds) slowing every trace down in real time — soak/test
#: plumbing so signals and kills can land mid-run deterministically.
#: Honored by every per-trace replay, in the serial loop (handed-back
#: traces included) and in pool workers.
THROTTLE_ENV = "REPRO_SOAK_THROTTLE"


def throttle_seconds():
    """Real seconds to sleep per trace (soak/test plumbing; 0 = off).

    Anything but a finite number >= 0 is off, not an error: a bad
    value must not fail every trace of a batch.
    """
    try:
        seconds = float(os.environ.get(THROTTLE_ENV, "") or 0.0)
    except ValueError:
        return 0.0
    return seconds if math.isfinite(seconds) and seconds >= 0 else 0.0


#: First-respawn delay (seconds); doubles per consecutive death.
BACKOFF_BASE = 0.05
#: Ceiling on any single respawn delay (seconds).
BACKOFF_CAP = 2.0
#: Consecutive deaths (no trace completed in between) that trip the
#: breaker and hand the batch's remainder back for in-process execution.
BREAKER_DEATHS = 6


def backoff(consecutive_deaths):
    """Respawn delay after the N-th consecutive death (N >= 1)."""
    if consecutive_deaths <= 1:
        return BACKOFF_BASE
    return min(BACKOFF_CAP, BACKOFF_BASE * (2.0 ** (consecutive_deaths - 1)))


class WorkerSupervisor:
    """Death accounting and respawn scheduling for one pool.

    The pool reports deaths and completions; the supervisor answers
    "when may this slot respawn?" and "has the breaker tripped?".
    """

    def __init__(self):
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
        if self.consecutive_deaths >= BREAKER_DEATHS:
            self.tripped = True
            return True
        self._respawn_at[slot] = now + backoff(self.consecutive_deaths)
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

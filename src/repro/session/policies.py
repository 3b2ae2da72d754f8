"""Pluggable per-stage policies for the session engine.

Each stage of the engine's per-command pipeline (schedule → locate →
act → observe) is configured by a policy object:

- :class:`TimingPolicy` — *schedule*: how recorded inter-command delays
  map onto the replay timeline (timing-accurate, scaled, fixed, none);
- :class:`LocatorPolicy` — *locate*: the progressive element-resolution
  chain (exact → implicit wait → XPath relaxation → recorded-coordinate
  fallback);
- :class:`FailurePolicy` — what a failed command does to the rest of
  the session (continue / stop / halt);
- :class:`RetryPolicy` — self-healing: which failures are retried, how
  many times, with what backoff, and whether renderer crashes trigger
  checkpoint recovery instead of aborting the session.

Policies are pure strategy objects: they hold configuration, never
per-session state. Session state (the relaxation resolution log, the
timeline anchor, the retry backoff stream, the replay checkpoint) lives
on the driver and the run, so one policy can safely configure many
concurrent sessions.
"""

from repro.util.backoff import BackoffSchedule
from repro.util.errors import ElementNotFoundError, is_transient


class TimingPolicy:
    """How inter-command delays are replayed (the *schedule* stage).

    Recorded elapsed times are gaps between consecutive user actions.
    The engine schedules each command on an absolute timeline anchored
    at the previous action: execution itself consumes simulated time (a
    click's navigation fetch, for instance), and that time is part of
    the recorded gap — waiting the full gap *again* would drift the
    replay (and its race windows) late. :meth:`target` computes the
    absolute due time; the engine sleeps only the remainder.
    """

    def __init__(self, kind, value=1.0):
        self.kind = kind
        self.value = value

    @classmethod
    def recorded(cls):
        """Wait exactly the recorded delays (timing-accurate replay)."""
        return cls("scaled", 1.0)

    @classmethod
    def no_wait(cls):
        """Replay commands with no wait time (WebErr stress test)."""
        return cls("scaled", 0.0)

    @classmethod
    def scaled(cls, factor):
        """Scale every recorded delay by ``factor``."""
        return cls("scaled", factor)

    @classmethod
    def fixed(cls, delay_ms):
        """Ignore recorded delays; wait a constant between commands."""
        return cls("fixed", delay_ms)

    def delay_for(self, command):
        if self.kind == "fixed":
            return self.value
        return command.elapsed_ms * self.value

    def due_rule(self):
        """:meth:`delay_for` as ``(fixed_delay, scale)``, for a caller
        that schedules many commands: the delay is ``fixed_delay`` or,
        when that is None, the recorded gap times ``scale``."""
        return (self.value if self.kind == "fixed" else None), self.value

    def target(self, anchor, command):
        """Absolute due time for ``command`` given the previous action's
        timestamp ``anchor``."""
        return anchor + self.delay_for(command)

    def __repr__(self):
        return "%s(%s, %r)" % (type(self).__name__, self.kind, self.value)


class Location:
    """Outcome of the locate stage: which client acts on which element."""

    EXACT = "exact"
    RELAXED = "relaxed"

    def __init__(self, client, element, strategy=EXACT, detail=""):
        self.client = client
        self.element = element
        self.strategy = strategy
        #: The relaxation heuristic description (e.g. ``"dropped id"``).
        self.detail = detail

    def __repr__(self):
        return "Location(%s, %r)" % (self.strategy, self.detail or "original")


class LocatorPolicy:
    """The element-resolution chain (the *locate* stage).

    One policy object owns the whole progressive chain the paper
    describes: the exact recorded XPath first (so replay is exact and
    timing-accurate when the DOM is stable), then — if configured — an
    implicit wait that lets simulated time pass for dynamically loaded
    content, then progressive XPath relaxation, and finally (for click
    commands) the recorded click coordinates, the paper's "backup
    element identification information".
    """

    def __init__(self, relaxation=True, implicit_wait_ms=0.0):
        self.relaxation_enabled = relaxation
        self.implicit_wait_ms = implicit_wait_ms

    def new_relaxation_engine(self):
        """A fresh per-driver relaxation engine (per-session state)."""
        from repro.core.relaxation import RelaxationEngine

        return RelaxationEngine(enabled=self.relaxation_enabled)

    def resolve(self, driver, xpath):
        """Run the chain against ``driver``'s active frame.

        Returns a :class:`Location`; raises
        :class:`~repro.util.errors.ElementNotFoundError` when even the
        relaxation ladder matches nothing. Without an implicit wait, a
        locator whose frame and observed DOM generations are unchanged
        since its last resolution is answered from the relaxation memo
        alone (:meth:`~repro.core.relaxation.RelaxationEngine.recall`),
        asked with the client's context resolved here, as
        :attr:`~repro.core.chromedriver.ChromeDriverClient.context` would.
        """
        master = driver.master
        client = master._active
        if client is None:
            client = master.active_client  # raises ReplayHaltedError
        found = None
        if self.implicit_wait_ms > 0:
            try:
                element, _ = client.find(xpath, None)
                return Location(client, element)
            except ElementNotFoundError:
                pass
            # Let simulated time pass (AJAX responses and timers fire)
            # and retry the *exact* expression until the deadline before
            # falling back to relaxation — the standard WebDriver answer
            # to dynamically loaded content.
            deadline = driver.browser.clock.now() + self.implicit_wait_ms
            loop = driver.browser.event_loop
            while driver.browser.clock.now() < deadline:
                next_deadline = loop.next_deadline()
                if next_deadline is None or next_deadline > deadline:
                    break
                loop.run_for(next_deadline - driver.browser.clock.now())
                client = driver.master.active_client
                try:
                    element, _ = client.find(xpath, None)
                    return Location(client, element)
                except ElementNotFoundError:
                    continue
        else:
            root = client.root_element
            found = driver.relaxation.recall(
                xpath, root if root is not None else client.engine.document)
        element, description = found or client.find(xpath, driver.relaxation)
        if description != "original":
            return Location(client, element, Location.RELAXED,
                            detail=description)
        return Location(client, element)

    def fallback_position(self, command):
        """The recorded coordinates to click when location fails.

        Only single clicks carry usable backup identification; every
        other command has no coordinate fallback and returns None.
        """
        if getattr(command, "action", None) != "click":
            return None
        if not hasattr(command, "x") or not hasattr(command, "y"):
            return None
        return (command.x, command.y)

    def __repr__(self):
        return "LocatorPolicy(relaxation=%r, implicit_wait_ms=%r)" % (
            self.relaxation_enabled, self.implicit_wait_ms,
        )


class FailurePolicy:
    """What a failed command does to the rest of the session.

    - ``continue`` (default): record the failure, replay the rest —
      a developer usually wants the full damage report;
    - ``stop``: stop issuing commands but finish the session normally
      (settle the page, collect errors) — the classic stop-on-failure.
      Stop ends only the *session*: a batch run carries on with the
      remaining traces;
    - ``halt``: treat the failure like a driver halt: the report is
      marked halted with the failing command as the reason. Halt is the
      batch-level abort: a serial :class:`~repro.session.batch.BatchRunner`
      stops dispatching the remaining traces when a session halts under
      this policy.

    A :class:`~repro.util.errors.ReplayHaltedError` from the driver
    always halts the session regardless of policy — there is no active
    client left to continue with.
    """

    CONTINUE = "continue"
    STOP = "stop"
    HALT = "halt"

    def __init__(self, on_failure=CONTINUE):
        if on_failure not in (self.CONTINUE, self.STOP, self.HALT):
            raise ValueError("unknown failure mode %r" % (on_failure,))
        self.on_failure = on_failure

    @classmethod
    def continue_on_failure(cls):
        return cls(cls.CONTINUE)

    @classmethod
    def stop_on_failure(cls):
        return cls(cls.STOP)

    @classmethod
    def halt_on_failure(cls):
        return cls(cls.HALT)

    def decide(self, result):
        """``continue`` / ``stop`` / ``halt`` for one command result."""
        if result.succeeded:
            return self.CONTINUE
        return self.on_failure

    def __repr__(self):
        return "FailurePolicy(%s)" % self.on_failure


class RetryPolicy:
    """Self-healing for transient failures (the engine's retry loop).

    When a command fails with a *transient* error (see
    :func:`repro.util.errors.classify` — injected faults, renderer
    crashes/hangs, network faults and timeouts), the engine retries it
    up to ``max_attempts`` total attempts, waiting a capped-exponential,
    deterministically jittered backoff between attempts. All "sleeps"
    advance the virtual clock, so retried replays stay exactly
    reproducible.

    ``recover_crashes`` additionally turns a
    :class:`~repro.util.errors.RendererCrashError` into tab reload +
    replay-checkpoint resume (re-navigate to the last committed URL and
    re-execute the commands issued since, with fault injection
    suppressed) before the retry — without it a crashed renderer would
    reject every subsequent attempt.

    Permanent and fatal errors are never retried.
    """

    def __init__(self, max_attempts=1, backoff=None, recover_crashes=True,
                 seed=0):
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        #: Total attempts per command (1 = fail fast, no retry).
        self.max_attempts = max_attempts
        self.backoff = backoff if backoff is not None else BackoffSchedule()
        self.recover_crashes = recover_crashes
        #: Seed of the backoff jitter stream (per-run sequence).
        self.seed = seed

    @classmethod
    def none(cls):
        """No retries, no crash recovery — the pre-chaos behaviour."""
        return cls(max_attempts=1, recover_crashes=False)

    @classmethod
    def default(cls):
        """Up to 4 attempts with default backoff, crashes recovered."""
        return cls(max_attempts=4)

    @property
    def enabled(self):
        return self.max_attempts > 1 or self.recover_crashes

    def should_retry(self, error, attempt):
        """True when ``error`` on attempt number ``attempt`` is retried."""
        return attempt < self.max_attempts and is_transient(error)

    def new_sequence(self):
        """A fresh per-run backoff delay stream."""
        return self.backoff.sequence(self.seed)

    def __repr__(self):
        return "RetryPolicy(max_attempts=%d, recover_crashes=%r)" % (
            self.max_attempts, self.recover_crashes)

"""The WaRR Replayer.

Simulates a user interacting with a web application as specified by a
trace of WaRR Commands (paper, Section III-B). Since the session-layer
refactor, the replayer is a thin configuration of the
:class:`~repro.session.engine.SessionEngine`: it maps its legacy knobs
onto the engine's policy surface —

- honoring recorded inter-command delays (or overriding them) is the
  :class:`~repro.session.policies.TimingPolicy`,
- progressive XPath relaxation, implicit waits, and the recorded-
  coordinate fallback (the "backup element identification information")
  are the :class:`~repro.session.policies.LocatorPolicy`,
- ``stop_on_failure`` is the
  :class:`~repro.session.policies.FailurePolicy`,

and the replay report — page-script errors, halts, per-command
outcomes — is the one the engine's session run writes.
"""

from repro.core.chromedriver import ChromeDriverConfig
from repro.session.engine import SessionEngine
from repro.session.policies import FailurePolicy, LocatorPolicy, TimingPolicy
from repro.session.report import CommandResult, ReplayReport

#: Back-compatible name: the timing policy grew out of the replayer's
#: original TimingMode and keeps its exact API.
TimingMode = TimingPolicy

__all__ = [
    "CommandResult",
    "ReplayReport",
    "TimingMode",
    "WarrReplayer",
]


class WarrReplayer:
    """Replays WaRR traces through a (developer-mode) browser."""

    def __init__(self, browser, config=None, relaxation=True, timing=None,
                 stop_on_failure=False, implicit_wait_ms=0.0):
        self.browser = browser
        self.config = config if config is not None else ChromeDriverConfig.warr()
        self.relaxation_enabled = relaxation
        self.timing = timing if timing is not None else TimingMode.recorded()
        self.stop_on_failure = stop_on_failure
        self.implicit_wait_ms = implicit_wait_ms
        self.engine = SessionEngine(
            browser,
            driver_config=self.config,
            timing=self.timing,
            locator=LocatorPolicy(relaxation=relaxation,
                                  implicit_wait_ms=implicit_wait_ms),
            failure=(FailurePolicy.stop_on_failure() if stop_on_failure
                     else FailurePolicy.continue_on_failure()),
        )

    def replay(self, trace):
        """Replay ``trace`` from its start URL; returns a ReplayReport."""
        return self.engine.run(trace)

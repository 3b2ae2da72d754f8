"""User-experience report assembly: the AUsER tool.

AUsER pairs an always-on WaRR Recorder with a "report a problem" button:
pressing it bundles the recorded WaRR Commands, the user's textual
description, and a (full, partial, or redacted) snapshot of the final
page. The bundle can be scrubbed of sensitive keystrokes and encrypted
for the developers.

"In order to be practical, AUsER must not hinder a user's interaction
with web applications. The runtime overhead introduced by the WaRR
Recorder must be below the 100 ms human perception threshold." —
:data:`PERCEPTION_THRESHOLD_MS`; the Section-VI overhead benchmark
checks the recorder against it.
"""

from repro.auser.crypto import ToyRSA
from repro.auser.privacy import scrub_trace
from repro.auser.snapshot import PageSnapshot
from repro.session.engine import SessionEngine

#: The human perception threshold the paper cites (100 ms).
PERCEPTION_THRESHOLD_MS = 100.0


class UserExperienceReport:
    """What the developers receive."""

    def __init__(self, trace, description="", snapshot=None, scrubbed=False):
        self.trace = trace
        self.description = description
        self.snapshot = snapshot
        self.scrubbed = scrubbed

    def to_text(self):
        """Serialize the report to a single shippable document."""
        sections = ["=== AUsER user experience report ==="]
        if self.description:
            sections.append("--- description ---")
            sections.append(self.description)
        sections.append("--- trace (%d commands%s) ---" % (
            len(self.trace), ", scrubbed" if self.scrubbed else ""))
        sections.append(self.trace.to_text().rstrip("\n"))
        if self.snapshot is not None:
            scope = (self.snapshot.region_xpath
                     if self.snapshot.is_partial else "full page")
            sections.append("--- snapshot (%s) of %s ---" % (
                scope, self.snapshot.url))
            sections.append(self.snapshot.html)
        return "\n".join(sections) + "\n"

    def encrypt(self, public_key):
        """Encrypt the serialized report with the developers' key."""
        return ToyRSA.encrypt(self.to_text(), public_key)

    def __repr__(self):
        return "UserExperienceReport(%d commands, snapshot=%r)" % (
            len(self.trace), self.snapshot,
        )


class AUsER:
    """The button the user presses when something looks wrong."""

    def __init__(self, recorder, browser):
        self.recorder = recorder
        self.browser = browser
        #: Page state is read through the session engine — the one
        #: sanctioned reader of the page — never via tab internals.
        self.engine = SessionEngine(browser)
        self.reports = []

    def report_problem(self, description="", region_xpath=None,
                       hidden_xpaths=None, scrub=True):
        """Build a report from the current recording session.

        - ``region_xpath``: share only that part of the final page;
        - ``hidden_xpaths``: share the page but blank these subtrees;
        - ``scrub``: redact keystrokes into sensitive fields.
        """
        trace = self.recorder.trace
        if scrub:
            trace = scrub_trace(trace)
        snapshot = None
        document = self.engine.current_document()
        if document is not None:
            snapshot = PageSnapshot.capture(document,
                                            region_xpath=region_xpath,
                                            hidden_xpaths=hidden_xpaths)
        report = UserExperienceReport(trace, description=description,
                                      snapshot=snapshot, scrubbed=scrub)
        self.reports.append(report)
        return report

    @staticmethod
    def reproduce(report, browser_factory, timing=None,
                  region_xpath=None, hidden_xpaths=None):
        """Developer side: replay a user's report on a fresh environment.

        Runs the bundled trace through the session engine and returns
        ``(replay_report, final_snapshot)`` — the developer sees both
        what replayed and the page the replay ended on, scoped or
        redacted the way a user's report would be (None when no page
        loaded).
        """
        engine = SessionEngine(browser_factory(), timing=timing)
        replay_report = engine.run(report.trace)
        document = engine.current_document()
        if document is None:
            return replay_report, None
        return replay_report, PageSnapshot.capture(
            document, region_xpath=region_xpath,
            hidden_xpaths=hidden_xpaths)

    def recorder_overhead_acceptable(self):
        """Is the recorder's per-action cost below human perception?"""
        return (self.recorder.mean_overhead_us() / 1000.0
                < PERCEPTION_THRESHOLD_MS)

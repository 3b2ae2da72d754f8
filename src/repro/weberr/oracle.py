"""Test oracles.

"Our approach requires an oracle to conclude whether the application
behaved correctly, a common practice in automated testing" (paper,
Section V-A). Oracles judge a replay's outcome: the report (which
commands replayed, what page-script errors surfaced) plus the browser's
final state: WebErr calls :meth:`Oracle.judge` with the report
:meth:`~repro.session.engine.SessionEngine.run` returns and the browser
the session ran on, which is left on the page the session ended on.
"""


class Verdict:
    """Outcome of one oracle judgement."""

    PASS = "pass"
    FAIL = "fail"

    def __init__(self, status, reason=""):
        self.status = status
        self.reason = reason

    @property
    def passed(self):
        return self.status == self.PASS

    @classmethod
    def ok(cls):
        return cls(cls.PASS)

    @classmethod
    def bug(cls, reason):
        return cls(cls.FAIL, reason)

    def __repr__(self):
        if self.passed:
            return "Verdict(pass)"
        return "Verdict(FAIL: %s)" % self.reason


class Oracle:
    """Interface: judge a replay."""

    def judge(self, report, browser):
        """Return a :class:`Verdict` for one replayed trace."""
        raise NotImplementedError


class ConsoleErrorOracle(Oracle):
    """Fails when page scripts raised uncaught errors.

    This is the oracle that catches the Google Sites bug: the injected
    timing error makes the editor script read an uninitialized variable,
    which surfaces as a ``JSReferenceError`` on the console.
    """

    def judge(self, report, browser):
        if report.page_errors:
            first = report.page_errors[0]
            return Verdict.bug(
                "%d uncaught page error(s), first: %s"
                % (len(report.page_errors), first)
            )
        return Verdict.ok()


class ReplayCompletionOracle(Oracle):
    """Fails when replay halted (the application wedged the driver)."""

    def judge(self, report, browser):
        if report.halted:
            return Verdict.bug("replay halted: %s" % report.halt_reason)
        return Verdict.ok()


class PredicateOracle(Oracle):
    """Wraps an application-specific check.

    ``predicate(report, browser)`` returns True for correct behaviour,
    or a string describing the bug (falsy/True = pass, str = fail).
    """

    def __init__(self, predicate, description=""):
        self.predicate = predicate
        self.description = description

    def judge(self, report, browser):
        outcome = self.predicate(report, browser)
        if isinstance(outcome, str):
            return Verdict.bug(outcome)
        if outcome is False:
            return Verdict.bug(self.description or "predicate failed")
        return Verdict.ok()


class CompositeOracle(Oracle):
    """All sub-oracles must pass; reports the first failure."""

    def __init__(self, oracles):
        self.oracles = list(oracles)

    def judge(self, report, browser):
        for oracle in self.oracles:
            verdict = oracle.judge(report, browser)
            if not verdict.passed:
                return verdict
        return Verdict.ok()

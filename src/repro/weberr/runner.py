"""The WebErr tool: the Figure-5 pipeline end to end.

Given a recorded trace and a factory for fresh application environments,
WebErr (1) infers the user-interaction grammar, (2) generates erroneous
traces via navigation- and timing-error injection, (3) replays each one
against a fresh instance of the application, and (4) asks the oracle for
a verdict. Every replay gets a pristine environment so injected errors
cannot contaminate each other — the simulation's equivalent of resetting
the application between tests.
"""

from repro.session.engine import SessionEngine
from repro.session.policies import TimingPolicy
from repro.weberr.generator import TraceGenerator
from repro.weberr.inference import TaskTreeBuilder, infer_grammar
from repro.weberr.navigation import NavigationErrorInjector
from repro.weberr.oracle import CompositeOracle, ConsoleErrorOracle
from repro.weberr.timing import TimingErrorInjector


class TestOutcome:
    """One erroneous trace's result."""

    def __init__(self, description, trace, report, verdict):
        self.description = description
        self.trace = trace
        self.report = report
        self.verdict = verdict

    @property
    def found_bug(self):
        return not self.verdict.passed

    def __repr__(self):
        return "TestOutcome(%r, %s)" % (
            self.description,
            "BUG" if self.found_bug else "pass",
        )


class WebErrReport:
    """Aggregate results of a WebErr campaign."""

    def __init__(self):
        self.outcomes = []
        self.traces_pruned = 0

    def add(self, outcome):
        self.outcomes.append(outcome)

    @property
    def tests_run(self):
        return len(self.outcomes)

    @property
    def bugs(self):
        return [outcome for outcome in self.outcomes if outcome.found_bug]

    def summary(self):
        return "WebErr: %d tests run, %d pruned, %d bug(s) found" % (
            self.tests_run, self.traces_pruned, len(self.bugs),
        )

    def __repr__(self):
        return "WebErrReport(%s)" % self.summary()


class WebErr:
    """Orchestrates grammar inference, error injection, and replay."""

    def __init__(self, browser_factory, oracle=None, focus_rules=None,
                 max_tests=None, prune_failed_prefixes=True):
        """``browser_factory()`` must return a fresh developer-mode
        browser wired to a fresh application instance."""
        self.browser_factory = browser_factory
        self.oracle = oracle if oracle is not None else CompositeOracle(
            [ConsoleErrorOracle()])
        self.focus_rules = focus_rules
        self.max_tests = max_tests
        self.prune_failed_prefixes = prune_failed_prefixes

    # -- pipeline steps --------------------------------------------------------

    def infer(self, trace, label="Task"):
        """Step 2a: infer the interaction grammar from the trace."""
        builder = TaskTreeBuilder(self.browser_factory)
        tree = builder.build(trace, label=label)
        return tree, infer_grammar(tree, trace.start_url)

    def navigation_tests(self, grammar):
        """Step 2b: single-error grammar variants (lazy)."""
        injector = NavigationErrorInjector(grammar, focus_rules=self.focus_rules)
        return injector.all_variants()

    def timing_tests(self, trace):
        """Step 3: impatient-user trace variants."""
        return TimingErrorInjector(trace).stress_variants()

    def replay_and_judge(self, description, trace):
        """Step 4: one test — fresh environment, engine replay, oracle.

        The oracle judges the finished session: the report the engine
        returns and the browser, left on the session's final page.
        """
        engine = SessionEngine(self.browser_factory(),
                               timing=TimingPolicy.recorded())
        report = engine.run(trace)
        verdict = self.oracle.judge(report, engine.browser)
        return TestOutcome(description, trace, report, verdict)

    # -- campaigns ---------------------------------------------------------------

    def run_navigation_campaign(self, trace, label="Task"):
        """Full navigation-error campaign for one recorded trace."""
        _, grammar = self.infer(trace, label=label)
        generator = TraceGenerator(
            prune_failed_prefixes=self.prune_failed_prefixes,
            max_traces=self.max_tests,
        )
        report = WebErrReport()
        for description, erroneous_trace in generator.traces(
                self.navigation_tests(grammar)):
            outcome = self.replay_and_judge(description, erroneous_trace)
            report.add(outcome)
            self._feed_pruning(generator, outcome)
        report.traces_pruned = generator.pruned
        return report

    def run_timing_campaign(self, trace):
        """Full timing-error campaign for one recorded trace."""
        report = WebErrReport()
        for description, erroneous_trace in self.timing_tests(trace):
            if self.max_tests is not None and report.tests_run >= self.max_tests:
                break
            report.add(self.replay_and_judge(description, erroneous_trace))
        return report

    def run(self, trace, label="Task"):
        """Both campaigns; returns (navigation_report, timing_report)."""
        return (self.run_navigation_campaign(trace, label=label),
                self.run_timing_campaign(trace))

    @staticmethod
    def _feed_pruning(generator, outcome):
        """Record failing prefixes so doomed traces are skipped."""
        for index, result in enumerate(outcome.report.results):
            if not result.succeeded:
                generator.report_failure(outcome.trace, index)
                break

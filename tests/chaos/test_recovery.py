"""Self-healing replay under injected faults.

The contrast the ISSUE pins: with retries disabled the session dies
under renderer crashes and flaky networking; with the default
RetryPolicy the same (profile, seed) completes, recovering crashed
tabs from the replay checkpoint.
"""

from repro import chaos
from repro.chaos import FaultProfile
from repro.session.engine import SessionEngine
from repro.session.policies import RetryPolicy, TimingPolicy
from tests.session.test_batch import factory, record_trace

CRASHY = FaultProfile(renderer_crash_rate=0.25)
FLAKY = FaultProfile(fetch_fail_rate=0.4)

# Seeds picked (and pinned — schedules are stable across processes) so
# each scenario actually fires the faults it is about.
CRASH_SEED = 1    # two renderer crashes along the session
NET_BEGIN_SEED = 6   # the initial navigation fails, then commands do
NET_COMMAND_SEED = 10  # command-triggered navigations fail


def _replay(trace, profile, seed, retry):
    browser = factory()
    engine = SessionEngine(browser, timing=TimingPolicy.no_wait(),
                           retry=retry)
    with chaos.active(profile, seed=seed, clock=browser.clock) as injector:
        report = engine.run(trace)
    return report, injector


class TestCrashRecovery:
    def test_without_retries_the_session_dies(self):
        trace = record_trace("crash-none")
        report, injector = _replay(trace, CRASHY, CRASH_SEED,
                                   RetryPolicy.none())
        assert injector.total_faults > 0
        assert not report.complete
        assert report.halted
        assert report.recoveries == 0

    def test_with_retries_the_session_completes(self):
        trace = record_trace("crash-heal")
        report, injector = _replay(trace, CRASHY, CRASH_SEED,
                                   RetryPolicy.default())
        assert injector.total_faults == 2
        assert report.complete, report.summary()
        assert report.recoveries == 2
        assert report.retry_count == 2

    def test_crash_recovery_optional_even_with_retries(self):
        trace = record_trace("crash-norecover")
        retry = RetryPolicy(max_attempts=4, recover_crashes=False)
        report, _ = _replay(trace, CRASHY, CRASH_SEED, retry)
        assert not report.complete

    def test_recovered_page_state_is_rebuilt(self):
        # The checkpoint replays the committed commands, so text typed
        # before the crash survives into the final page.
        trace = record_trace("crash-state")
        report, _ = _replay(trace, CRASHY, CRASH_SEED,
                            RetryPolicy.default())
        assert report.complete
        assert report.final_url is not None
        assert "who=cra" in report.final_url


class TestFlakyNetRecovery:
    def test_initial_navigation_retries(self):
        trace = record_trace("net-begin")
        dead, _ = _replay(trace, FLAKY, NET_BEGIN_SEED, RetryPolicy.none())
        assert dead.halted  # begin() failed outright
        healed, injector = _replay(trace, FLAKY, NET_BEGIN_SEED,
                                   RetryPolicy.default())
        assert injector.total_faults > 0
        assert healed.complete, healed.summary()

    def test_command_navigation_retries(self):
        trace = record_trace("net-cmd")
        dead, _ = _replay(trace, FLAKY, NET_COMMAND_SEED,
                          RetryPolicy.none())
        assert not dead.complete
        healed, _ = _replay(trace, FLAKY, NET_COMMAND_SEED,
                            RetryPolicy.default())
        assert healed.complete
        assert healed.retry_count == 2
        # Retries land on the results of the commands that needed them.
        retried = [r for r in healed.results if r.retries]
        assert retried and all(r.succeeded for r in retried)


class TestReplayDeterminism:
    def test_same_profile_seed_same_report_and_schedule(self):
        trace = record_trace("deterministic")
        one_report, one_injector = _replay(trace, CRASHY, CRASH_SEED,
                                           RetryPolicy.default())
        two_report, two_injector = _replay(trace, CRASHY, CRASH_SEED,
                                           RetryPolicy.default())
        assert one_injector.schedule_bytes() == two_injector.schedule_bytes()
        assert one_report.to_dict() == two_report.to_dict()

    def test_different_seed_different_schedule(self):
        trace = record_trace("divergent")
        _, one = _replay(trace, CRASHY, 1, RetryPolicy.default())
        _, two = _replay(trace, CRASHY, 5, RetryPolicy.default())
        assert one.schedule_bytes() != two.schedule_bytes()


class TestDisabledEquivalence:
    def test_disabled_profile_changes_nothing(self):
        trace = record_trace("equivalent")

        def run(with_chaos):
            browser = factory()
            engine = SessionEngine(browser, timing=TimingPolicy.no_wait())
            if with_chaos:
                with chaos.active(FaultProfile.disabled(),
                                  clock=browser.clock) as injector:
                    report = engine.run(trace)
                assert injector.total_faults == 0
                assert injector.decisions == {}
            else:
                report = engine.run(trace)
            return report, browser.clock.now()

        plain_report, plain_clock = run(with_chaos=False)
        chaotic_report, chaotic_clock = run(with_chaos=True)
        assert chaotic_report.to_dict() == plain_report.to_dict()
        assert chaotic_clock == plain_clock

"""Batch replay across isolated browser instances."""

import json
import os

import pytest

from repro import telemetry
from repro.core.commands import ClickCommand, TypeCommand, WarrCommand
from repro.core.recorder import WarrRecorder
from repro.core.trace import WarrTrace
from repro.session.batch import BatchReport, BatchRunner, _dedupe_labels
from repro.session.policies import FailurePolicy, TimingPolicy
from repro.util.errors import ReplayError
from tests.browser.helpers import build_browser, url


def record_trace(label):
    browser = build_browser()
    recorder = WarrRecorder().attach(browser)
    recorder.begin(url("/"), label=label)
    tab = browser.new_tab(url("/"))
    tab.click_element(tab.find('//input[@name="who"]'))
    tab.type_text(label[:3], think_time_ms=10)
    tab.click_element(tab.find('//input[@type="submit"]'))
    return recorder.trace


def factory():
    return build_browser(developer_mode=True)


class TestBatchRunner:
    def test_four_traces_replay_on_isolated_browsers(self):
        traces = [record_trace("session-%d" % i) for i in range(4)]
        seen = []

        def spying_factory():
            browser = factory()
            seen.append(browser)
            return browser

        runner = BatchRunner(spying_factory, timing=TimingPolicy.no_wait())
        batch = runner.run(traces)
        assert batch.complete
        assert batch.trace_count == 4
        assert batch.complete_count == 4
        assert batch.replayed_count == sum(len(t) for t in traces)
        assert batch.failed_count == 0
        # One fresh browser per trace: no shared state between sessions.
        assert len(seen) == 4
        assert len(set(map(id, seen))) == 4
        # Every session left its own browser on the greeting page.
        for browser in seen:
            assert browser.active_tab.url.startswith(url("/greet"))

    def test_labels_default_to_trace_labels(self):
        traces = [record_trace("alpha"), record_trace("beta")]
        batch = BatchRunner(factory, timing=TimingPolicy.no_wait()).run(traces)
        assert [run.label for run in batch.runs] == ["alpha", "beta"]

    def test_explicit_labels(self):
        traces = [record_trace("alpha"), record_trace("beta")]
        runner = BatchRunner(factory, timing=TimingPolicy.no_wait())
        batch = runner.run(traces, labels=["a.warr", "b.warr"])
        assert [run.label for run in batch.runs] == ["a.warr", "b.warr"]

    def test_label_count_mismatch_rejected(self):
        runner = BatchRunner(factory)
        with pytest.raises(ValueError):
            runner.run([record_trace("x")], labels=["a", "b"])

    def test_failures_are_isolated_to_their_trace(self):
        good = record_trace("good")
        bad = WarrTrace(start_url=url("/"), label="bad", commands=[
            TypeCommand("//video", "x", 88),
        ])
        batch = BatchRunner(factory,
                            timing=TimingPolicy.no_wait()).run([bad, good])
        assert not batch.complete
        assert batch.complete_count == 1
        assert [run.label for run in batch.failures()] == ["bad"]

    def test_perf_counters_accumulate_across_sessions(self):
        traces = [record_trace("one"), record_trace("two")]
        batch = BatchRunner(factory, timing=TimingPolicy.no_wait()).run(traces)
        assert batch.perf_counters
        for counts in batch.perf_counters.values():
            assert set(counts) == {"hits", "misses", "hit_rate"}

    def test_halted_navigation_counts_as_incomplete(self):
        doomed = WarrTrace(start_url="http://nowhere.example/",
                           label="doomed",
                           commands=[ClickCommand("//a")])
        batch = BatchRunner(factory).run([doomed])
        assert not batch.complete
        assert batch.failures()[0].report.halted

    def test_empty_trace_list_is_not_complete(self):
        batch = BatchRunner(factory).run([])
        assert not batch.complete
        assert batch.trace_count == 0

    def test_repeated_default_labels_are_deduped(self):
        traces = [record_trace("dup"), record_trace("dup"),
                  record_trace("dup")]
        batch = BatchRunner(factory, timing=TimingPolicy.no_wait()).run(traces)
        assert [run.label for run in batch.runs] == ["dup", "dup-2", "dup-3"]

    def test_tracer_clock_reset_when_engine_raises(self, tmp_path):
        # Regression: an engine error mid-batch used to leave the
        # tracer stamping events with the dead session's virtual clock.
        class HoverCommand(WarrCommand):
            action = "hover"

            def payload(self):
                return "-"

        bogus = WarrTrace(start_url=url("/"), label="bogus",
                          commands=[HoverCommand("//a")])
        runner = BatchRunner(factory, timing=TimingPolicy.no_wait())
        with telemetry.tracing() as tracer:
            with pytest.raises(ReplayError):
                runner.run([record_trace("ok"), bogus],
                           trace_dir=str(tmp_path))
            assert tracer.clock is None


class TestFailurePolicyScope:
    """Pinning the policy-scope contract: ``stop`` ends one *session*,
    ``halt`` aborts the whole *batch*."""

    @staticmethod
    def _bad_trace():
        return WarrTrace(start_url=url("/"), label="bad", commands=[
            TypeCommand("//video", "x", 88),
        ])

    def test_halt_policy_stops_the_batch(self):
        traces = [record_trace("first"), self._bad_trace(),
                  record_trace("never-runs")]
        for workers in (1, 2):
            batch = BatchRunner(factory, timing=TimingPolicy.no_wait(),
                                failure=FailurePolicy.halt_on_failure(),
                                workers=workers).run(traces)
            # The failing session halts AND the report ends there: the
            # remaining trace is never dispatched (serial), or whatever
            # the pool already ran past it is left out.
            assert batch.trace_count == 2, workers
            assert [run.label for run in batch.runs] \
                == ["first", "bad"], workers
            assert batch.runs[1].report.halted

    def test_stop_policy_ends_only_the_session(self):
        traces = [self._bad_trace(), record_trace("still-runs")]
        batch = BatchRunner(factory, timing=TimingPolicy.no_wait(),
                            failure=FailurePolicy.stop_on_failure()
                            ).run(traces)
        # The failing session stopped early but was not halted, and the
        # batch carried on to the next trace.
        assert batch.trace_count == 2
        assert not batch.runs[0].report.halted
        assert batch.runs[0].report.failed_count == 1
        assert batch.runs[1].report.complete

    def test_continue_policy_never_shortens_the_batch(self):
        traces = [self._bad_trace(), record_trace("runs")]
        batch = BatchRunner(factory, timing=TimingPolicy.no_wait()).run(
            traces)
        assert batch.trace_count == 2

    def test_halt_without_halting_failure_runs_everything(self):
        # The halt policy only aborts when a session actually halts.
        traces = [record_trace("a"), record_trace("b")]
        for workers in (1, 2):
            batch = BatchRunner(factory, timing=TimingPolicy.no_wait(),
                                failure=FailurePolicy.halt_on_failure(),
                                workers=workers).run(traces)
            assert batch.trace_count == 2, workers
            assert batch.complete, workers


class TestLabelDedup:
    def test_unique_labels_pass_through(self):
        assert _dedupe_labels(["a", "b"]) == ["a", "b"]

    def test_collisions_get_numeric_suffixes(self):
        assert _dedupe_labels(["a", "a", "a-2", "a"]) \
            == ["a", "a-2", "a-2-2", "a-3"]


class TestBatchReport:
    def test_empty_batch_is_not_complete(self):
        assert not BatchReport().complete

    def test_summary_mentions_counts(self):
        traces = [record_trace("s1"), record_trace("s2")]
        batch = BatchRunner(factory, timing=TimingPolicy.no_wait()).run(traces)
        summary = batch.summary()
        assert "2/2 trace(s) complete" in summary
        assert "0 page error(s)" in summary


def statuses(batch):
    return [[r.status for r in run.report.results] for run in batch.runs]


def lookups(counters):
    """{cache: (hits, misses)} of one perf-counter summary."""
    return {name: (counts["hits"], counts["misses"])
            for name, counts in counters.items()}


class TestPerSessionAccounting:
    def test_per_session_counters_attribute_to_the_right_session(self):
        short = record_trace("short")
        long_trace = WarrTrace(start_url=short.start_url, label="long",
                               commands=list(short) * 6)
        batch = BatchRunner(factory, timing=TimingPolicy.no_wait()).run(
            [short, long_trace])
        mine, theirs = (run.report.perf_counters for run in batch.runs)
        # Each session reports its own cache activity: only the long
        # session's repeated commands need relaxation candidates, and
        # it makes far more DOM-index lookups.
        assert mine and theirs
        assert "relax.candidates" in theirs
        assert "relax.candidates" not in mine
        assert sum(theirs["dom.index"][k] for k in ("hits", "misses")) \
            > sum(mine["dom.index"][k] for k in ("hits", "misses"))
        # Together the two sessions account for the whole batch.
        summed = {}
        for counters in (mine, theirs):
            for name, (hits, misses) in lookups(counters).items():
                total = summed.get(name, (0, 0))
                summed[name] = (total[0] + hits, total[1] + misses)
        assert summed == lookups(batch.perf_counters)


class TestBatchTelemetry:
    def test_trace_dir_writes_per_session_and_merged_files(self, tmp_path):
        traces = [record_trace("alpha"), record_trace("beta")]
        BatchRunner(factory, timing=TimingPolicy.no_wait()).run(
            traces, trace_dir=str(tmp_path))
        names = sorted(os.listdir(str(tmp_path)))
        assert names == ["alpha.trace.json", "batch.trace.json",
                         "beta.trace.json"]
        for name in names:
            with open(os.path.join(str(tmp_path), name)) as handle:
                assert json.load(handle)["traceEvents"], name

    def test_per_session_slices_partition_the_merged_timeline(self, tmp_path):
        traces = [record_trace("one"), record_trace("two")]
        BatchRunner(factory, timing=TimingPolicy.no_wait()).run(
            traces, trace_dir=str(tmp_path))

        def load(name):
            with open(os.path.join(str(tmp_path), name)) as handle:
                return [e for e in json.load(handle)["traceEvents"]
                        if e.get("ph") != "M"]

        merged = load("batch.trace.json")
        slices = load("one.trace.json") + load("two.trace.json")
        assert slices
        assert sorted(map(json.dumps, slices)) \
            == sorted(map(json.dumps, merged))


class TestEquivalenceMatrix:
    def test_serial_and_pooled_agree(self):
        traces = [record_trace("m%d" % i) for i in range(4)]
        serial = BatchRunner(factory, timing=TimingPolicy.no_wait()).run(
            traces)
        pooled = BatchRunner(factory, timing=TimingPolicy.no_wait(),
                             workers=2).run(traces)
        assert serial.summary() == pooled.summary()
        assert statuses(serial) == statuses(pooled)
        for mine, theirs in zip(serial.runs, pooled.runs):
            assert mine.report.final_url == theirs.report.final_url
            assert mine.report.recoveries == theirs.report.recoveries
        # Caches are per-process in the pool, so hits and misses split
        # differently; lookups (hits + misses) per cache do not.
        assert set(pooled.perf_counters) == set(serial.perf_counters)
        for name, (hits, misses) in lookups(serial.perf_counters).items():
            theirs = pooled.perf_counters[name]
            assert theirs["hits"] + theirs["misses"] == hits + misses, name

    def test_results_come_back_in_submission_order(self):
        # Traces of very different lengths finish out of order across
        # workers; the report still lists them as submitted.
        short = record_trace("short")
        long_trace = WarrTrace(start_url=short.start_url, label="long",
                               commands=list(short) * 6)
        for workers in (1, 2):
            batch = BatchRunner(factory, timing=TimingPolicy.no_wait(),
                                workers=workers).run(
                [long_trace, short, short])
            assert [run.label for run in batch.runs] \
                == ["long", "short", "short-2"], workers

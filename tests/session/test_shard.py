"""Contracts the scale-out backends owe a batch.

The in-process sharded backend is gone; what it was tested for stays
pinned here on the backends that remain: a failing trace must not take
its neighbours down when sessions replay side by side (worker pool),
and a halting failure must stop admission while keeping the report of
the trace that halted (serial loop).
"""

from repro.core.commands import TypeCommand
from repro.core.trace import WarrTrace
from repro.session.batch import BatchRunner
from repro.session.policies import FailurePolicy, TimingPolicy
from tests.browser.helpers import url
from tests.session.test_batch import factory, record_trace


def bad_trace():
    return WarrTrace(start_url=url("/"), label="bad", commands=[
        TypeCommand("//video", "x", 88)])


class TestShardedRunner:
    def test_failures_stay_isolated_per_shard(self):
        good = record_trace("good")
        batch = BatchRunner(factory, timing=TimingPolicy.no_wait(),
                            workers=2).run([bad_trace(), good, good])
        assert batch.complete_count == 2
        assert [run.label for run in batch.failures()] == ["bad"]

    def test_halt_policy_stops_admission_but_drains_in_flight(self):
        goods = [record_trace("g%d" % i) for i in range(4)]
        batch = BatchRunner(factory, timing=TimingPolicy.no_wait(),
                            failure=FailurePolicy.halt_on_failure()
                            ).run([bad_trace()] + goods)
        # The halting trace keeps its report; none of the queue behind
        # it is admitted.
        assert batch.trace_count == 1
        assert [run.label for run in batch.runs] == ["bad"]
        assert batch.runs[0].report.halted

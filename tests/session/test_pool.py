"""Multiprocess batch replay: worker pool, spec resolution, containment.

The crash/timeout tests steer module-level factories through a flag
file named in an environment variable: ``fork`` workers inherit both
the module and the environment, and ``os.O_EXCL`` creation makes
"misbehave exactly once" race-free even with several workers checking
concurrently.
"""

import multiprocessing
import os
import signal
import time
import warnings

import pytest

from repro.core.trace import WarrTrace
from repro.session import journal as run_journal
from repro.session import supervisor, wire
from repro.session.batch import BatchRunner
from repro.session.engine import SessionRun
from repro.session.journal import read_journal, verify_exactly_once
from repro.session.observers import PerfCountersObserver
from repro.session.policies import TimingPolicy
from repro.session.pool import (
    WorkerPool,
    WorkerSpec,
    _BatchState,
    _TraceMemo,
    resolve_factory,
)
from repro.session.wire import _read_varint
from tests.browser.helpers import build_browser
from tests.session.test_batch import factory, record_trace

FLAG_ENV = "REPRO_TEST_POOL_FLAG"

#: Engine policies for a directly-driven pool's batches.
NO_WAIT = {"timing": TimingPolicy.no_wait()}


def _claim_flag():
    """Atomically claim the test flag file; True for exactly one caller."""
    try:
        fd = os.open(os.environ[FLAG_ENV],
                     os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def crash_once_factory():
    if _claim_flag():
        os._exit(3)
    return build_browser(developer_mode=True)


def hang_once_factory():
    if _claim_flag():
        time.sleep(300)
    return build_browser(developer_mode=True)


def hang_always_factory():
    time.sleep(300)


def crash_in_worker_factory():
    # Crashes *every* pool-worker attempt (so requeue-once hits a second
    # worker and the trace goes to quarantine) — but behaves in the
    # parent, so a breaker-degraded inline run survives.
    if multiprocessing.parent_process() is not None:
        os._exit(9)
    return build_browser(developer_mode=True)


def crash_in_worker_while_flagged_factory():
    # Crashes every pool-worker attempt while the flag file exists: a
    # farm that is broken for one batch and healthy again for the next.
    if multiprocessing.parent_process() is not None \
            and os.path.exists(os.environ[FLAG_ENV]):
        os._exit(9)
    return build_browser(developer_mode=True)


def sigterm_masking_hang_factory():
    # A worker that ignores SIGTERM and hangs: terminate() alone can
    # never reap it — only the kill() escalation can. Guarded so a
    # degraded inline run never masks signals in the test process.
    if multiprocessing.parent_process() is not None:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(300)
    return build_browser(developer_mode=True)


def sigstop_factory():
    # Freezes the whole worker process: it posts nothing and exits
    # never, so only the parent's per-trace deadline can notice.
    # (SIGTERM is not delivered to a stopped process; only the SIGKILL
    # escalation reaps it.)
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGSTOP)
    return build_browser(developer_mode=True)


def broken_factory():
    # Returns no browser: the worker's replay dies with AttributeError.
    return None


def slow_start_factory():
    # Slow in *real* time: the parent must sleep through this, not poll.
    time.sleep(1.0)
    return build_browser(developer_mode=True)


def build_sized_factory(developer_mode):
    """A builder: invoked once per worker, returns the session factory."""
    def sized():
        return build_browser(developer_mode=developer_mode)
    return sized


@pytest.fixture
def flag_path(tmp_path, monkeypatch):
    path = str(tmp_path / "flag")
    monkeypatch.setenv(FLAG_ENV, path)
    return path


@pytest.fixture
def fragile_breaker(monkeypatch):
    """Trip the breaker after 2 deaths, with near-instant respawns."""
    monkeypatch.setattr(supervisor, "BACKOFF_BASE", 0.01)
    monkeypatch.setattr(supervisor, "BREAKER_DEATHS", 2)


class TestFactoryResolution:
    def test_callable_passes_through(self):
        assert resolve_factory(factory) is factory

    def test_dotted_colon_path(self):
        resolved = resolve_factory("tests.session.test_batch:factory")
        assert resolved is factory

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown factory"):
            resolve_factory("no-such-factory")
        # A dotted path needs the colon: ``module:attr``.
        with pytest.raises(ValueError, match="unknown factory"):
            resolve_factory("tests.session.test_batch.factory")

    def test_missing_attribute_rejected(self):
        with pytest.raises(ValueError, match="no attribute"):
            resolve_factory("tests.session.test_batch:nope")

    def test_non_callable_target_rejected(self):
        with pytest.raises(TypeError, match="non-callable"):
            resolve_factory("tests.session.test_pool:FLAG_ENV")

    def test_spec_builder_args_applied(self):
        spec = WorkerSpec("tests.session.test_pool:build_sized_factory",
                          factory_args=(True,))
        browser = spec.make_factory()()
        assert browser.developer_mode

    def test_unpicklable_spec_rejected(self):
        spec = WorkerSpec(lambda: None)
        with pytest.raises(ValueError, match="picklable"):
            spec.validate()


class TestWorkerPool:
    def test_pooled_matches_serial(self):
        traces = [record_trace("session-%d" % i) for i in range(4)]
        serial = BatchRunner(factory, timing=TimingPolicy.no_wait()).run(
            traces)
        pooled = BatchRunner(factory, timing=TimingPolicy.no_wait(),
                             workers=2).run(traces)
        assert pooled.complete
        assert pooled.summary() == serial.summary()
        assert [run.label for run in pooled.runs] \
            == [run.label for run in serial.runs]
        for mine, theirs in zip(pooled.runs, serial.runs):
            assert [r.status for r in mine.report.results] \
                == [r.status for r in theirs.report.results]
            assert mine.report.final_url == theirs.report.final_url
        # Worker-side counter deltas merge into the same cache set the
        # serial observer sees (totals differ: caches are per-process).
        assert set(pooled.perf_counters) == set(serial.perf_counters)

    def test_outcomes_come_back_in_input_order(self):
        traces = [record_trace("t%d" % i) for i in range(6)]
        with WorkerPool(WorkerSpec(factory), workers=3) as pool:
            outcomes, dropped = pool.run(
                [(trace.label, trace) for trace in traces],
                engine_config=NO_WAIT)
        assert dropped == 0
        assert [o.index for o in outcomes] == list(range(6))
        assert [o.label for o in outcomes] == [t.label for t in traces]
        assert all(o.ok for o in outcomes)
        assert outcomes[0].report.complete
        assert outcomes[0].report.trace is traces[0]
        assert outcomes[0].blob is None  # dropped once final

    def test_empty_task_list_spawns_nothing(self):
        pool = WorkerPool(WorkerSpec(factory), workers=2)
        outcomes, dropped = pool.run([])
        assert outcomes == [] and dropped == 0

    def test_empty_pooled_batch_is_not_complete(self):
        batch = BatchRunner(factory, workers=2).run([])
        assert not batch.complete
        assert batch.trace_count == 0

    def test_unpicklable_factory_rejected_when_pooled(self):
        runner = BatchRunner(lambda: build_browser(), workers=2)
        with pytest.raises(ValueError, match="picklable"):
            runner.run([record_trace("x")])

    def test_closure_factory_fine_when_serial(self):
        # workers=1 is the in-process path: no pickling involved.
        batch = BatchRunner(lambda: build_browser(developer_mode=True),
                            timing=TimingPolicy.no_wait()).run(
            [record_trace("x")])
        assert batch.complete

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            BatchRunner(factory, workers=0)
        with pytest.raises(ValueError):
            WorkerPool(WorkerSpec(factory), workers=0)


class TestContainment:
    def test_worker_crash_requeues_and_the_batch_recovers(self, flag_path):
        # A single worker death is transient (OOM kill, flaky native
        # crash): its in-flight trace gets one more chance on another
        # worker, and the batch completes in full.
        traces = [record_trace("c%d" % i) for i in range(4)]
        batch = BatchRunner("tests.session.test_pool:crash_once_factory",
                            timing=TimingPolicy.no_wait(),
                            workers=2).run(traces)
        assert batch.trace_count == 4
        assert batch.complete_count == 4, batch.summary()

    def test_transient_hang_requeued_and_recovered(self, flag_path):
        traces = [record_trace("h%d" % i) for i in range(3)]
        start = time.monotonic()
        batch = BatchRunner("tests.session.test_pool:hang_once_factory",
                            timing=TimingPolicy.no_wait(),
                            workers=2, trace_timeout=0.5).run(traces)
        elapsed = time.monotonic() - start
        assert batch.complete, batch.summary()
        assert elapsed < 30, "hung worker was never reaped"

    def test_deterministic_hang_fails_after_one_requeue(self):
        batch = BatchRunner("tests.session.test_pool:hang_always_factory",
                            timing=TimingPolicy.no_wait(),
                            workers=2, trace_timeout=0.4).run(
            [record_trace("stuck")])
        assert not batch.complete
        (failed,) = batch.failures()
        assert failed.report.halted
        assert "per-trace timeout" in failed.report.halt_reason

    def test_timeout_surfaces_a_timeout_classed_halt_error(self):
        # Deadline kills must be distinguishable from dead workers: the
        # report's halt_error carries TimeoutError as its type name.
        batch = BatchRunner("tests.session.test_pool:hang_always_factory",
                            timing=TimingPolicy.no_wait(),
                            workers=2, trace_timeout=0.4).run(
            [record_trace("stuck")])
        (failed,) = batch.failures()
        assert failed.report.halt_error is not None
        assert failed.report.halt_error.type_name == "TimeoutError"
        assert "per-trace timeout" in str(failed.report.halt_error)

    def test_worker_death_surfaces_a_crash_classed_halt_error(self):
        # A trace that kills its worker on *both* attempts fails for
        # good — with the crash class on the report's halt_error.
        batch = BatchRunner(
            "tests.session.test_pool:crash_in_worker_factory",
            timing=TimingPolicy.no_wait(), workers=2).run(
            [record_trace("poison")])
        (failed,) = batch.failures()
        assert failed.report.halt_error is not None
        assert failed.report.halt_error.type_name == "WorkerCrashError"
        assert "worker process died" in str(failed.report.halt_error)

    def test_worker_exception_class_crosses_the_wire(self):
        # An exception raised inside the worker (not a kill) reports
        # its own class name, not a generic bucket.
        with WorkerPool(
                WorkerSpec("tests.session.test_pool:broken_factory"),
                workers=1) as pool:
            (outcome,), dropped = pool.run([("x", record_trace("x"))])
        assert not outcome.ok
        assert outcome.error_class == "AttributeError"


class TestWarmPool:
    def test_pool_persists_across_batches(self):
        traces = [record_trace("w%d" % i) for i in range(3)]
        tasks = [(t.label, t) for t in traces]
        with WorkerPool(WorkerSpec(factory), workers=2) as pool:
            first, _ = pool.run(tasks, engine_config=NO_WAIT)
            second, _ = pool.run(tasks, engine_config=NO_WAIT)
            assert all(o.ok for o in first + second)
            # Same worker processes served both batches: no respawn.
            assert {o.worker_id for o in second} \
                <= {o.worker_id for o in first}
            assert pool.stats["batches"] == 2

    def test_batch_runner_borrows_a_pool_without_closing_it(self):
        traces = [record_trace("b%d" % i) for i in range(2)]
        with WorkerPool(WorkerSpec(factory), workers=2) as pool:
            runner = BatchRunner(factory, timing=TimingPolicy.no_wait(),
                                 pool=pool)
            one = runner.run(traces)
            two = runner.run(traces)
            assert one.complete and two.complete
            assert one.summary() == two.summary()
            # The borrowed pool is still live for the next campaign.
            assert pool.run([(t.label, t) for t in traces],
                            engine_config=NO_WAIT)[0][0].ok

    def test_runner_policies_override_pool_defaults(self):
        # A pool holds no policies; the borrowing runner's no-wait
        # timing must still reach the workers (a think-time replay at
        # default pacing would advance the virtual clock far more than
        # the recorded think times themselves).
        trace = record_trace("policy")
        with WorkerPool(WorkerSpec(factory), workers=1) as pool:
            batch = BatchRunner(factory, timing=TimingPolicy.no_wait(),
                                pool=pool).run([trace])
        assert batch.complete

    def test_borrowed_pool_enforces_the_runners_deadline(self,
                                                         monkeypatch):
        # The deadline rides with each batch, so a pool the runner
        # borrows (rather than builds) still kills a trace that
        # overruns the runner's trace_timeout.
        monkeypatch.setenv("REPRO_SOAK_THROTTLE", "2")
        trace = record_trace("late")
        with WorkerPool(WorkerSpec(factory), workers=1) as pool:
            batch = BatchRunner(factory, pool=pool, trace_timeout=0.5,
                                timing=TimingPolicy.no_wait()).run([trace])
        (failed,) = batch.failures()
        assert failed.report.halt_error.type_name == "TimeoutError"

    def test_crash_mid_chunk_requeues_the_inflight_trace(self, flag_path):
        traces = [record_trace("m%d" % i) for i in range(5)]
        tasks = [(t.label, t) for t in traces]
        # One worker holding two traces: the crash lands on the first;
        # the unstarted second goes back untouched (one attempt) and
        # the in-flight trace is retried exactly once.
        with WorkerPool(
                WorkerSpec("tests.session.test_pool:crash_once_factory"),
                workers=1) as pool:
            outcomes, _ = pool.run(tasks, engine_config=NO_WAIT)
        assert all(o.ok for o in outcomes)
        assert sorted(o.attempts for o in outcomes) == [1, 1, 1, 1, 2]


class TestSupervision:
    def test_requeue_once_end_to_end_hits_two_workers(self):
        # The full second hop: timeout -> requeue -> a *different*
        # worker -> second timeout -> final classified failure.
        trace = record_trace("stuck")
        with WorkerPool(
                WorkerSpec("tests.session.test_pool:hang_always_factory"),
                workers=2) as pool:
            (outcome,), _ = pool.run([(trace.label, trace)],
                                     engine_config=NO_WAIT, trace_timeout=0.4)
        assert not outcome.ok
        assert outcome.error_class == "TimeoutError"
        assert outcome.attempts == 2

    def test_two_containment_failures_quarantine_with_diagnosis(self):
        trace = record_trace("poison")
        with WorkerPool(
                WorkerSpec("tests.session.test_pool:crash_in_worker_factory"),
                workers=2) as pool:
            (outcome,), _ = pool.run([(trace.label, trace)],
                                     engine_config=NO_WAIT)
        assert not outcome.ok
        assert outcome.error_class == "WorkerCrashError"
        bundle = outcome.quarantined
        assert bundle is not None
        assert bundle["label"] == trace.label
        assert bundle["attempts"] == 2
        # Two *different* workers died on this trace.
        assert len(set(bundle["workers"])) == 2
        assert bundle["first_failure"]["error_class"] == "WorkerCrashError"
        assert isinstance(bundle["commands_completed"], int)
        assert isinstance(bundle["stderr_tail"], str)
        assert pool.stats["quarantined"] == 1

    def test_sigterm_masking_worker_is_reaped_by_kill_escalation(self):
        # Regression for the terminate-only reaper: a SIGTERM-ignoring
        # worker would survive terminate() and wedge _reap for the full
        # DRAIN_TIMEOUT. The kill() escalation bounds it by KILL_GRACE.
        trace = record_trace("masked")
        start = time.monotonic()
        with WorkerPool(
                WorkerSpec(
                    "tests.session.test_pool:sigterm_masking_hang_factory"),
                workers=1) as pool:
            (outcome,), _ = pool.run([(trace.label, trace)],
                                     engine_config=NO_WAIT, trace_timeout=0.4)
        elapsed = time.monotonic() - start
        assert not outcome.ok
        assert outcome.error_class == "TimeoutError"
        assert elapsed < 15, "SIGTERM-masking worker wedged the reaper"

    def test_stopped_worker_times_out_and_is_reaped_by_kill_escalation(
            self):
        # SIGSTOP freezes the whole process mid-trace; the per-trace
        # deadline notices. The stopped process does not act on
        # SIGTERM, so only the kill() escalation reaps it.
        trace = record_trace("frozen")
        start = time.monotonic()
        with WorkerPool(
                WorkerSpec("tests.session.test_pool:sigstop_factory"),
                workers=1) as pool:
            (outcome,), _ = pool.run([(trace.label, trace)],
                                     engine_config=NO_WAIT, trace_timeout=0.4)
        assert not outcome.ok
        assert outcome.error_class == "TimeoutError"
        assert outcome.attempts == 2
        elapsed = time.monotonic() - start
        assert elapsed < 15, "stopped worker wedged the reaper"

    def test_breaker_degrades_to_in_process_execution(self, fragile_breaker):
        reference = "tests.session.test_pool:crash_in_worker_factory"
        traces = [record_trace("d%d" % i) for i in range(3)]
        with WorkerPool(WorkerSpec(reference), workers=1) as pool:
            with pytest.warns(RuntimeWarning, match="degraded"):
                batch = BatchRunner(reference, pool=pool,
                                    timing=TimingPolicy.no_wait()).run(
                    traces)
        # Every worker attempt died; the breaker tripped and the
        # runner's serial loop ran the remainder inline in the parent
        # (where the factory works). Nothing was lost.
        assert pool.stats["degraded"] == 1
        assert pool.supervisor.tripped
        assert batch.trace_count == 3 and batch.complete
        assert [run.report.trace for run in batch.runs] == traces

    def test_tripped_breaker_hands_the_remainder_back(self, fragile_breaker):
        traces = [record_trace("d%d" % i) for i in range(3)]
        tasks = [(t.label, t) for t in traces]
        finished = []
        with WorkerPool(
                WorkerSpec("tests.session.test_pool:crash_in_worker_factory"),
                workers=1) as pool:
            with pytest.warns(RuntimeWarning, match="degraded"):
                outcomes, _ = pool.run(tasks, engine_config=NO_WAIT,
                                       on_outcome=finished.append)
            assert pool._handles == {}  # every worker was stopped
        assert pool.stats["degraded"] == 1
        assert pool.supervisor.tripped
        # Handed back: no report, no error, not cancelled, never
        # journaled. The two traces whose workers died keep the attempt
        # their requeue charged.
        assert finished == []
        for outcome in outcomes:
            assert outcome.report is None and outcome.error is None
            assert outcome.error_class is None and not outcome.cancelled
        assert [o.attempts for o in outcomes] == [2, 2, 1]

    def test_breaker_rearms_for_the_next_batch(self, flag_path,
                                               fragile_breaker):
        # Regression: a tripped breaker was never reset, so every later
        # batch on the warm pool killed its respawned workers at once
        # and ran inline, even once the workers were healthy again.
        reference = "tests.session.test_pool:" \
            "crash_in_worker_while_flagged_factory"
        open(flag_path, "w").close()
        traces = [record_trace("r%d" % i) for i in range(3)]
        with WorkerPool(WorkerSpec(reference), workers=1) as pool:
            with pytest.warns(RuntimeWarning, match="degraded"):
                first = BatchRunner(reference, pool=pool,
                                    timing=TimingPolicy.no_wait()).run(
                    traces)
            assert first.complete and pool.stats["degraded"] == 1
            os.remove(flag_path)
            outcomes, _ = pool.run([(t.label, t) for t in traces],
                                   engine_config=NO_WAIT)
        assert pool.stats["degraded"] == 1
        assert not pool.supervisor.tripped
        assert all(o.ok and o.worker_id is not None for o in outcomes)

    def test_trip_leaves_the_warm_pool_usable(self, flag_path,
                                              monkeypatch):
        # Regression: every worker read one shared task queue, holding
        # its read lock while it waited for work. A trip stopped the
        # idle worker mid-wait, the lock died held, and the next batch
        # on the warm pool never started. The scenario runs in its own
        # process group, so a hang fails the test instead of the suite.
        monkeypatch.setattr(supervisor, "BREAKER_DEATHS", 1)
        monkeypatch.setattr(SessionRun, "step", _die_while_flagged())
        traces = [record_trace("k%d" % i) for i in range(2)]
        child = multiprocessing.get_context("fork").Process(
            target=_trip_then_run_again, args=(traces,))
        child.start()
        child.join(60)
        if child.is_alive():
            os.killpg(child.pid, signal.SIGKILL)
            child.join()
            pytest.fail("the batch after a breaker trip hung")
        assert child.exitcode == 0

    def test_drain_cancels_queued_traces_but_finishes_inflight(self,
                                                               monkeypatch):
        monkeypatch.setenv("REPRO_SOAK_THROTTLE", "0.2")
        traces = [record_trace("g%d" % i) for i in range(6)]
        tasks = [(t.label, t) for t in traces]
        finished = []
        # The drain fires after the first result: the traces the
        # worker holds finish, the pending ones are cancelled.
        with WorkerPool(WorkerSpec(factory), workers=1) as pool:
            outcomes, _ = pool.run(
                tasks, engine_config=NO_WAIT, on_outcome=finished.append,
                drain=lambda: len(finished) >= 1)
        completed = [o for o in outcomes if o.ok]
        cancelled = [o for o in outcomes if o.cancelled]
        assert completed, "drain must let in-flight traces finish"
        assert cancelled, "drain must recall queued traces"
        # Exactly-once accounting: every trace is either completed,
        # failed, or cancelled — never lost, never both.
        for outcome in outcomes:
            assert outcome.ok or outcome.cancelled or outcome.error_class
            assert not (outcome.ok and outcome.cancelled)

    def test_close_counts_abandoned_results(self):
        # Results a worker computed but the parent never collected must
        # be surfaced, not silently dropped by the close() drain.
        traces = [record_trace("a%d" % i) for i in range(2)]
        tasks = [(t.label, t) for t in traces]
        pool = WorkerPool(WorkerSpec(factory), workers=1).start()
        batch = _BatchState(0, tasks, engine_config=NO_WAIT)
        (handle,) = pool._handles.values()
        pool._assign(batch, handle)
        assert list(handle.assigned) == [0, 1] and not batch.pending
        # The worker answers both before it reads the shutdown sentinel.
        pool.close()
        assert pool.stats["abandoned"] == 2, pool.stats


class TestResultDrain:
    def test_parent_sleeps_instead_of_polling_a_slow_worker(self):
        # Regression: the old pool polled the result queue on a 50ms
        # interval, burning parent CPU for the whole batch. The drain
        # now blocks on the queue pipe + worker sentinels, so a 1s
        # worker stall costs the parent a handful of wakeups, not ~20.
        trace = record_trace("slow")
        with WorkerPool(
                WorkerSpec("tests.session.test_pool:slow_start_factory"),
                workers=1) as pool:
            outcomes, _ = pool.run([(trace.label, trace)],
                                   engine_config=NO_WAIT)
        assert outcomes[0].ok
        assert pool.stats["wakeups"] <= 5, pool.stats


class TestMerging:
    def test_perf_counter_merge_recomputes_hit_rate(self):
        merged = PerfCountersObserver.merge([
            {"a": {"hits": 1, "misses": 0, "hit_rate": 1.0}},
            {"a": {"hits": 0, "misses": 3, "hit_rate": 0.0},
             "b": {"hits": 0, "misses": 0, "hit_rate": None}},
        ])
        assert merged["a"] == {"hits": 1, "misses": 3, "hit_rate": 0.25}
        assert merged["b"]["hit_rate"] is None


def _die_after_commands(count):
    """A ``SessionRun.step`` that kills a pool worker once ``count``
    steps have returned in it, as the next step starts (the parent is
    never killed)."""
    step = SessionRun.step
    finished = [0]

    def patched(self, command):
        if finished[0] == count and multiprocessing.parent_process() is not None:
            os._exit(9)
        result = step(self, command)
        finished[0] += 1
        return result
    return patched


def _die_while_flagged():
    """A ``SessionRun.step`` that kills the process replaying it while
    the test flag file exists."""
    step = SessionRun.step

    def patched(self, command):
        if os.path.exists(os.environ[FLAG_ENV]):
            os._exit(9)
        return step(self, command)
    return patched


def _trip_then_run_again(traces):
    """The warm-pool trip scenario, run in a child process that leads
    its own process group; only its pool workers ever replay."""
    os.setpgid(0, 0)
    tasks = [(t.label, t) for t in traces]
    with WorkerPool(WorkerSpec(factory), workers=2) as pool:
        first, _ = pool.run(tasks, engine_config=NO_WAIT)
        assert all(o.ok for o in first)
        # Both workers now wait for work. One takes this trace and
        # dies; the breaker trips at once and stops the other.
        open(os.environ[FLAG_ENV], "w").close()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            (tripped,), _ = pool.run(tasks[:1], engine_config=NO_WAIT)
        assert pool.stats["degraded"] == 1 and not tripped.ok
        os.remove(os.environ[FLAG_ENV])
        again, _ = pool.run(tasks, engine_config=NO_WAIT)
        assert all(o.ok and o.worker_id is not None for o in again)


def _admission_commit_end(data):
    """End offset of the last START frame before the first FINISH."""
    end = pos = len(run_journal.MAGIC)
    while pos < len(data):
        length, start = _read_varint(data, pos)
        pos = start + length
        kind = data[start]
        if kind == 4:  # FINISH
            break
        if kind == 3:  # START
            end = pos
    return end


class TestFarmPath:
    def test_pooled_finish_record_embeds_the_worker_blob(self, tmp_path,
                                                         monkeypatch):
        shipped = []
        decode = wire.decode_report

        def spy(blob, trace):
            shipped.append(blob)
            return decode(blob, trace)

        monkeypatch.setattr(wire, "decode_report", spy)
        traces = [record_trace("w%d" % i) for i in range(3)]
        path = str(tmp_path / "run.wj2")
        batch = BatchRunner(factory, timing=TimingPolicy.no_wait(),
                            workers=2, journal=path).run(traces)
        assert batch.complete
        journaled = [record.blob for record in read_journal(path).finishes]
        assert len(shipped) == 3
        assert journaled == shipped
        for blob in journaled:
            assert blob.startswith(wire.MAGIC)
            assert b"warr-trace" not in blob

    def test_torn_admission_commit_resumes_as_a_fresh_run(self, tmp_path):
        traces = [record_trace("c%d" % i) for i in range(2)]
        labels = ["c0", "c1"]
        path = str(tmp_path / "run.wj2")
        with WorkerPool(WorkerSpec(factory), workers=1) as pool:
            def run(resume):
                return BatchRunner(factory, timing=TimingPolicy.no_wait(),
                                   pool=pool, journal=path,
                                   resume=resume).run(traces, labels=labels)

            run(False)
            with open(path, "rb") as handle:
                full = handle.read()
            commit = _admission_commit_end(full)
            starts = read_journal(path).starts
            assert [(s.index, s.label) for s in starts] \
                == [(0, "c0"), (1, "c1")]
            for cut in range(commit + 1):
                with open(path, "wb") as handle:
                    handle.write(full[:cut])
                batch = run(True)
                assert batch.complete and batch.resumed_count == 0, cut
                verdict = verify_exactly_once(path, expected_labels=labels)
                assert verdict["exactly_once"], (cut, verdict)

    def test_config_and_admission_wave_share_one_fsync(self, tmp_path,
                                                       monkeypatch):
        synced = []
        monkeypatch.setattr(run_journal.os, "fsync", synced.append)
        traces = [record_trace("f%d" % i) for i in range(3)]
        path = str(tmp_path / "run.wj2")
        runner = BatchRunner(factory, timing=TimingPolicy.no_wait(),
                             workers=2, journal=path)
        runner.run(traces)
        # One commit for CONFIG + three STARTs, one per FINISH.
        assert len(synced) == 1 + 3
        assert len(read_journal(path).starts) == 3

    def test_worker_trace_memo(self):
        memo = _TraceMemo()
        text = record_trace("memo").to_text()
        first = memo.parse(text)
        assert memo.parse(text) is first
        assert first == WarrTrace.from_text(text)
        assert first.to_text() == text
        # The last character before the newline is the final command's
        # elapsed-time digit: flip it and the text must miss.
        other = text[:-2] + chr(ord(text[-2]) ^ 1) + "\n"
        second = memo.parse(other)
        assert second is not first and second != first
        assert len(memo) == 2
        for index in range(_TraceMemo.LIMIT + 10):
            memo.parse(text + "# %d\n" % index)
            assert len(memo) <= _TraceMemo.LIMIT

    def test_quarantine_counts_completed_commands(self, monkeypatch):
        monkeypatch.setattr(SessionRun, "step", _die_after_commands(3))
        trace = record_trace("poison")
        assert len(trace) > 3
        with WorkerPool(WorkerSpec(factory), workers=2) as pool:
            (outcome,), _ = pool.run([(trace.label, trace)],
                                     engine_config=NO_WAIT)
        assert outcome.quarantined is not None
        assert outcome.quarantined["commands_completed"] == 3

    def test_degraded_run_journals_the_same_blob_form(self, tmp_path,
                                                      fragile_breaker):
        reference = "tests.session.test_pool:crash_in_worker_factory"
        traces = [record_trace("d%d" % i) for i in range(3)]
        labels = ["d0", "d1", "d2"]
        path = str(tmp_path / "run.wj2")
        with WorkerPool(WorkerSpec(reference), workers=1) as pool:
            with pytest.warns(RuntimeWarning, match="degraded"):
                batch = BatchRunner(reference, pool=pool, journal=path,
                                    timing=TimingPolicy.no_wait()).run(
                    traces, labels=labels)
        assert pool.stats["degraded"] == 1
        snapshot = read_journal(path)
        assert "degraded" in [event.kind for event in snapshot.events]
        finishes = snapshot.finish_by_index()
        inline = [index for index, record in finishes.items()
                  if record.blob is not None]
        assert inline
        for index in inline:
            record = finishes[index]
            assert record.worker_id is None
            run = batch.runs[index]
            assert run.report.trace is traces[index]
            assert record.blob == wire.encode_report(run.report)
            assert b"warr-trace" not in record.blob
        resumed = BatchRunner(factory, timing=TimingPolicy.no_wait(),
                              journal=path, resume=True).run(
            traces, labels=labels)
        assert resumed.resumed_count == 3
        assert [run.report.to_dict() for run in resumed.runs] \
            == [run.report.to_dict() for run in batch.runs]

    def test_drain_stops_the_handed_back_remainder(self, tmp_path,
                                                   fragile_breaker):
        # The breaker trips, the runner's serial loop takes over, and a
        # drain fires once the first inline trace has finished: the
        # rest of the remainder is not admitted, and resume finishes it.
        reference = "tests.session.test_pool:crash_in_worker_factory"
        traces = [record_trace("h%d" % i) for i in range(3)]
        labels = ["h0", "h1", "h2"]
        path = str(tmp_path / "run.wj2")

        def drain():
            return bool(read_journal(path).finishes)

        with WorkerPool(WorkerSpec(reference), workers=1) as pool:
            with pytest.warns(RuntimeWarning, match="degraded"):
                batch = BatchRunner(reference, pool=pool, journal=path,
                                    timing=TimingPolicy.no_wait()).run(
                    traces, labels=labels, drain=drain)
        assert batch.drained
        assert [run.label for run in batch.runs] == ["h0"]
        snapshot = read_journal(path)
        events = [event.kind for event in snapshot.events]
        assert events == ["degraded", "drain"]
        (record,) = snapshot.finishes
        # h0 lost a worker before the trip: its requeue counts.
        assert (record.label, record.attempts, record.worker_id) \
            == ("h0", 2, None)
        assert not verify_exactly_once(path, labels)["exactly_once"]
        resumed = BatchRunner(factory, timing=TimingPolicy.no_wait(),
                              journal=path, resume=True).run(
            traces, labels=labels)
        assert resumed.complete and resumed.resumed_count == 1
        verdict = verify_exactly_once(path, expected_labels=labels)
        assert verdict["exactly_once"], verdict

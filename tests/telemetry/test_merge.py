"""Merging worker trace slices into one batch timeline."""

import json
import os

from repro.telemetry.merge import TraceMerger
from repro.session.batch import BatchRunner
from repro.session.policies import TimingPolicy
from tests.session.test_batch import factory, record_trace
from tests.telemetry.schema import validate_trace


def span(pid, tid, name="work", ts=1.0, dur=2.0):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur,
            "pid": pid, "tid": tid, "cat": "test"}


def process_name(pid, name):
    return {"name": "process_name", "ph": "M", "ts": 0.0,
            "pid": pid, "tid": 0, "args": {"name": name}}


def sort_index(pid, index):
    return {"name": "process_sort_index", "ph": "M", "ts": 0.0,
            "pid": pid, "tid": 0, "args": {"sort_index": index}}


class TestTraceMerger:
    def test_same_local_pid_from_different_workers_split_apart(self):
        merger = TraceMerger()
        (a,), _ = merger.add_session(0, [span(pid=1, tid=1)])
        (b,), _ = merger.add_session(1, [span(pid=1, tid=1)])
        assert a["pid"] != b["pid"]
        assert a["tid"] == b["tid"] == 1

    def test_same_worker_pid_stays_stable_across_sessions(self):
        merger = TraceMerger()
        (a,), _ = merger.add_session(0, [span(pid=2, tid=1)])
        (b,), _ = merger.add_session(0, [span(pid=2, tid=1, ts=10.0)])
        assert a["pid"] == b["pid"]

    def test_process_names_get_worker_suffix(self):
        merger = TraceMerger()
        _, (meta,) = merger.add_session(
            3, [], metadata=[process_name(1, "repro driver")])
        assert meta["args"]["name"] == "repro driver [w3]"

    def test_sort_index_follows_merged_pid(self):
        merger = TraceMerger()
        merger.add_session(0, [], metadata=[sort_index(1, 1)])
        _, (meta,) = merger.add_session(1, [], metadata=[sort_index(1, 1)])
        assert meta["args"]["sort_index"] == meta["pid"]

    def test_repeated_metadata_deduplicated_in_merged_trace(self):
        merger = TraceMerger()
        metadata = [process_name(1, "repro driver")]
        merger.add_session(0, [span(1, 1)], metadata=metadata)
        _, session_meta = merger.add_session(0, [span(1, 1, ts=9.0)],
                                             metadata=metadata)
        # The per-session return still carries it; the merged list once.
        assert len(session_meta) == 1
        assert len(merger.metadata) == 1
        assert len(merger.events) == 2

    def test_inputs_are_not_mutated(self):
        merger = TraceMerger()
        original = span(pid=1, tid=1)
        keep = dict(original)
        merger.add_session(0, [original])
        assert original == keep

    def test_trace_dict_validates(self):
        merger = TraceMerger()
        merger.add_session(0, [span(1, 1)],
                           metadata=[process_name(1, "repro driver")])
        merger.add_session(1, [span(1, 1)],
                           metadata=[process_name(1, "repro driver")])
        events = validate_trace(merger.trace_dict())
        assert {e["pid"] for e in events} == {1, 2}


class TestPooledTraceFiles:
    def test_pooled_batch_trace_merges_worker_tracks(self, tmp_path):
        traces = [record_trace("s%d" % i) for i in range(4)]
        batch = BatchRunner(factory, timing=TimingPolicy.no_wait(),
                            workers=2).run(traces,
                                           trace_dir=str(tmp_path))
        assert batch.complete

        with open(tmp_path / "batch.trace.json") as handle:
            merged = json.load(handle)
        events = validate_trace(merged)

        # One control pid + one browser pid per session, per worker —
        # remapped so no two sessions share a pid track.
        names = {}
        for event in merged["traceEvents"]:
            if event["ph"] == "M" and event["name"] == "process_name":
                names[event["pid"]] = event["args"]["name"]
        browser_pids = [pid for pid, name in names.items()
                        if name.startswith("BrowserWindow")]
        assert len(browser_pids) == 4
        assert all("[w" in name for name in names.values())
        assert {e["pid"] for e in events if e["ph"] != "M"} \
            <= set(names)

        # Each session also gets its own valid standalone trace file.
        for trace in traces:
            path = tmp_path / ("%s.trace.json" % trace.label)
            assert path.exists()
            with open(path) as handle:
                validate_trace(json.load(handle))

    def test_serial_and_pooled_emit_same_file_set(self, tmp_path):
        traces = [record_trace("a"), record_trace("b")]
        serial_dir = tmp_path / "serial"
        pooled_dir = tmp_path / "pooled"
        runner = BatchRunner(factory, timing=TimingPolicy.no_wait())
        runner.run(traces, trace_dir=str(serial_dir))
        BatchRunner(factory, timing=TimingPolicy.no_wait(), workers=2).run(
            traces, trace_dir=str(pooled_dir))
        assert sorted(os.listdir(serial_dir)) == sorted(os.listdir(pooled_dir))

    def test_sampled_category_spec_reaches_the_workers(self, tmp_path):
        # A ``name:rate`` term samples that category; it must not be
        # taken for a category name (which would record none of it) on
        # either backend.
        traces = [record_trace("a"), record_trace("b")]
        for workers in (1, 2):
            out = tmp_path / str(workers)
            BatchRunner(factory, timing=TimingPolicy.no_wait(),
                        workers=workers,
                        trace_categories="session,dispatch:0.5").run(
                traces, trace_dir=str(out))
            with open(out / "batch.trace.json") as handle:
                events = validate_trace(json.load(handle))
            cats = {event.get("cat") for event in events}
            assert {"session", "dispatch"} <= cats, (workers, cats)

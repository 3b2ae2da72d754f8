"""The tracing CLI surface: replay --trace-out, batch --trace-dir."""

import io
import json

import pytest

from repro.cli import main
from tests.telemetry.schema import categories, validate_trace


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def recorded_trace(tmp_path):
    path = tmp_path / "session.warr"
    code, _ = run_cli(["record", "--app", "sites", "--out", str(path)])
    assert code == 0
    return path


class TestTraceCommand:
    """``replay --trace-out``: the timeline file and the printed summary."""

    def test_writes_valid_trace_and_summarizes(self, recorded_trace,
                                               tmp_path):
        out = tmp_path / "trace.json"
        code, output = run_cli(["replay", str(recorded_trace),
                                "--app", "sites", "--trace-out", str(out)])
        assert code == 0
        assert "trace: wrote" in output
        assert "longest spans:" in output
        trace_dict = json.loads(out.read_text())
        events = validate_trace(trace_dict)
        assert {"ipc", "dispatch", "session"} <= categories(events)

    def test_summary_counts_events(self, recorded_trace, tmp_path):
        out = tmp_path / "trace.json"
        _, output = run_cli(["replay", str(recorded_trace),
                             "--app", "sites", "--trace-out", str(out)])
        assert "trace event(s)" in output

    def test_summary_reports_ring_buffer_counters(self, recorded_trace,
                                                  tmp_path):
        out = tmp_path / "trace.json"
        _, output = run_cli(["replay", str(recorded_trace),
                             "--app", "sites", "--trace-out", str(out)])
        assert "ring buffer:" in output
        assert "dropped" in output
        trace_dict = json.loads(out.read_text())
        assert trace_dict["otherData"]["events_total"] > 0

    def test_production_categories_filter_the_export(self, recorded_trace,
                                                     tmp_path):
        out = tmp_path / "trace.json"
        code, _ = run_cli(["replay", str(recorded_trace), "--app", "sites",
                           "--trace-categories", "production",
                           "--trace-out", str(out)])
        assert code == 0
        events = validate_trace(json.loads(out.read_text()))
        kept = categories(events)
        assert "session" in kept
        assert not kept & {"dispatch", "ipc", "layout", "xpath"}


class TestReplayTraceOut:
    def test_trace_out_writes_file(self, recorded_trace, tmp_path):
        out = tmp_path / "replay.trace.json"
        code, output = run_cli(["replay", str(recorded_trace),
                                "--app", "sites",
                                "--trace-out", str(out)])
        assert code == 0
        assert "trace: wrote" in output
        validate_trace(json.loads(out.read_text()))

    def test_without_flag_no_trace(self, recorded_trace, tmp_path):
        code, output = run_cli(["replay", str(recorded_trace),
                                "--app", "sites"])
        assert code == 0
        assert "trace: wrote" not in output


class TestBatchTraceDir:
    def test_writes_per_session_and_merged(self, recorded_trace, tmp_path):
        trace_dir = tmp_path / "traces"
        code, output = run_cli(["batch", str(recorded_trace),
                                str(recorded_trace), "--app", "sites",
                                "--trace-dir", str(trace_dir)])
        assert code == 0
        assert "batch.trace.json" in output
        written = sorted(p.name for p in trace_dir.iterdir())
        assert "batch.trace.json" in written
        # One per-session slice per input trace (the repeated label is
        # suffixed, not overwritten), plus the merged file.
        assert len(written) == 3
        merged = json.loads((trace_dir / "batch.trace.json").read_text())
        events = validate_trace(merged)
        # Two sessions ran on two isolated browsers -> two browser pids.
        browser_pids = {event["pid"] for event in events
                        if event.get("cat") == "dispatch"}
        assert len(browser_pids) == 2
        for name in written:
            validate_trace(json.loads((trace_dir / name).read_text()))

    def test_resume_reports_the_files_it_wrote(self, recorded_trace,
                                               tmp_path):
        # A fully journaled batch executes nothing on resume: it writes
        # no per-trace file, says so, and still writes batch.trace.json.
        journal = str(tmp_path / "run.wj2")
        argv = ["batch", str(recorded_trace), str(recorded_trace),
                "--app", "sites", "--journal", journal]
        code, output = run_cli(argv + ["--trace-dir",
                                       str(tmp_path / "first")])
        assert code == 0
        assert "wrote 2 per-session trace(s)" in output
        trace_dir = tmp_path / "resumed"
        code, output = run_cli(argv + ["--resume",
                                       "--trace-dir", str(trace_dir)])
        assert code == 0
        assert "wrote 0 per-session trace(s) + batch.trace.json" in output
        assert [p.name for p in trace_dir.iterdir()] == ["batch.trace.json"]
        validate_trace(json.loads((trace_dir / "batch.trace.json")
                                  .read_text()))

    def test_pooled_batch_writes_merged_worker_tracks(self, recorded_trace,
                                                      tmp_path):
        trace_dir = tmp_path / "traces"
        code, output = run_cli(["batch", str(recorded_trace),
                                str(recorded_trace), "--app", "sites",
                                "--workers", "2",
                                "--trace-dir", str(trace_dir)])
        assert code == 0
        assert "batch.trace.json" in output
        written = sorted(p.name for p in trace_dir.iterdir())
        assert len(written) == 3
        merged = json.loads((trace_dir / "batch.trace.json").read_text())
        events = validate_trace(merged)
        # Two sessions on two isolated worker browsers: the merger must
        # keep their browser tracks apart and label each with its worker.
        browser_pids = {event["pid"] for event in events
                        if event.get("cat") == "dispatch"}
        assert len(browser_pids) == 2
        names = [event["args"]["name"] for event in merged["traceEvents"]
                 if event["ph"] == "M" and event["name"] == "process_name"]
        assert names and all("[w" in name for name in names)
        for name in written:
            validate_trace(json.loads((trace_dir / name).read_text()))

"""The command-line interface."""

import io
import os

import pytest

from repro.cli import main
from repro.core.trace import WarrTrace
from repro.net.tape import Tape


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def recorded_trace(tmp_path):
    path = tmp_path / "session.warr"
    code, output = run_cli(["record", "--app", "sites", "--out", str(path)])
    assert code == 0
    return path


class TestRecord:
    def test_record_writes_trace_file(self, tmp_path):
        path = tmp_path / "out.warr"
        code, output = run_cli(["record", "--app", "portal",
                                "--out", str(path)])
        assert code == 0
        assert "recorded" in output
        trace = WarrTrace.load(path)
        assert len(trace) > 0
        assert trace.start_url == "http://portal.example.com/"

    @pytest.mark.parametrize("app", ["sites", "gmail", "portal", "docs",
                                     "dashboard"])
    def test_every_app_records(self, tmp_path, app):
        path = tmp_path / ("%s.warr" % app)
        code, _ = run_cli(["record", "--app", app, "--out", str(path)])
        assert code == 0
        assert len(WarrTrace.load(path)) > 0

    def test_unknown_app_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(["record", "--app", "ghost",
                     "--out", str(tmp_path / "x.warr")])


class TestReplay:
    def test_replay_succeeds(self, recorded_trace):
        code, output = run_cli(["replay", str(recorded_trace),
                                "--app", "sites"])
        assert code == 0
        assert "0 page error(s)" in output

    def test_no_wait_finds_the_bug_and_fails(self, recorded_trace):
        code, output = run_cli(["replay", str(recorded_trace),
                                "--app", "sites", "--no-wait"])
        assert code == 1
        assert "editorState" in output

    def test_stock_driver_option(self, tmp_path):
        path = tmp_path / "gmail.warr"
        run_cli(["record", "--app", "gmail", "--out", str(path)])
        code, output = run_cli(["replay", str(path), "--app", "gmail",
                                "--stock-driver"])
        assert code == 1
        assert "HALTED" in output

    def test_scale_option(self, recorded_trace):
        code, output = run_cli(["replay", str(recorded_trace),
                                "--app", "sites", "--scale", "2.0"])
        assert code == 0

    def test_no_relaxation_option_with_stable_ids(self, recorded_trace):
        # Sites ids are stable, so exact matching suffices and the
        # option just disables the fallback machinery.
        code, output = run_cli(["replay", str(recorded_trace),
                                "--app", "sites", "--no-relaxation"])
        assert code == 0

    def test_user_browser_option_still_replays(self, recorded_trace):
        # A user (non-developer) browser replays commands, but key events
        # carry degraded properties; the sites flow does not depend on
        # handler-visible key codes, so it completes.
        code, output = run_cli(["replay", str(recorded_trace),
                                "--app", "sites", "--user-browser"])
        assert code == 0

    def test_tape_record_then_playback(self, recorded_trace, tmp_path):
        tape = str(tmp_path / "net.tape")
        code, output = run_cli(["replay", str(recorded_trace),
                                "--app", "sites", "--tape", tape,
                                "--tape-mode", "record"])
        assert code == 0
        assert "tape: recorded " in output
        code, output = run_cli(["replay", str(recorded_trace),
                                "--app", "sites", "--tape", tape])
        assert code == 0
        assert " / 0 miss(es) from %s" % tape in output
        assert "chaos profile" not in output

    def test_playback_names_the_tapes_chaos_stamp(self, recorded_trace,
                                                  tmp_path):
        tape = str(tmp_path / "net.tape")
        run_cli(["replay", str(recorded_trace), "--app", "sites",
                 "--tape", tape, "--tape-mode", "record"])
        stamped = Tape.load(tape)
        stamped.stamp_chaos("flaky_net", 3)
        stamped.save(tape)
        code, output = run_cli(["replay", str(recorded_trace),
                                "--app", "sites", "--tape", tape])
        assert code == 0
        assert "tape: recorded under chaos profile 'flaky_net' seed 3" \
            in output

    @pytest.mark.parametrize("argv", [
        ["trace", "{trace}", "--app", "sites"],
        ["tape", "record", "{trace}", "--app", "sites", "--out", "t.tape"],
        ["tape", "replay", "{trace}", "--app", "sites", "--tape", "t.tape"],
    ])
    def test_folded_commands_are_usage_errors(self, recorded_trace, capsys,
                                              argv):
        # ``replay --trace-out`` and ``replay --tape`` replaced them.
        with pytest.raises(SystemExit) as exit_info:
            run_cli([arg.format(trace=recorded_trace) for arg in argv])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestSoak:
    @pytest.mark.parametrize("flag, value", [
        ("--traces", "0"),
        ("--traces", "-1"),
        ("--traces", "two"),
        ("--throttle", "-1"),
        ("--throttle", "nan"),
        ("--throttle", "inf"),
        ("--throttle", "slow"),
    ])
    def test_soak_rejects_a_bad_setting(self, capsys, flag, value):
        # A usage error before any cell runs, not a failed cell.
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["soak", "--mode", "serial", "--scenario", "drain",
                     flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument %s: " % flag in err
        assert "Traceback" not in err


class TestBatch:
    def test_batch_replays_four_traces_isolated(self, recorded_trace,
                                                tmp_path):
        paths = []
        for i in range(4):
            path = tmp_path / ("copy-%d.warr" % i)
            path.write_text(recorded_trace.read_text())
            paths.append(str(path))
        code, output = run_cli(["batch"] + paths + ["--app", "sites"])
        assert code == 0
        assert "batch: 4/4 trace(s) complete" in output
        # One per-trace summary line per isolated session.
        for path in paths:
            assert "[%s]" % path in output

    def test_batch_reports_failures(self, recorded_trace, tmp_path):
        from repro.core.commands import TypeCommand

        trace = WarrTrace.load(recorded_trace)
        # A keystroke into a non-existent element has no coordinate
        # fallback, so this trace cannot replay completely.
        bad = trace.copy(commands=list(trace)
                         + [TypeCommand("//video", "x", 88)])
        bad_path = tmp_path / "bad.warr"
        bad.save(bad_path)
        code, output = run_cli(["batch", str(bad_path), str(recorded_trace),
                                "--app", "sites", "--failures"])
        assert code == 1
        assert "failed:" in output

    def test_batch_prints_perf_counters(self, recorded_trace):
        code, output = run_cli(["batch", str(recorded_trace),
                                "--app", "sites"])
        assert code == 0
        assert "perf:" in output

    def test_batch_workers_matches_serial_output(self, recorded_trace,
                                                 tmp_path):
        paths = []
        for i in range(4):
            path = tmp_path / ("copy-%d.warr" % i)
            path.write_text(recorded_trace.read_text())
            paths.append(str(path))
        serial_code, serial_out = run_cli(
            ["batch"] + paths + ["--app", "sites"])
        pooled_code, pooled_out = run_cli(
            ["batch"] + paths + ["--app", "sites", "--workers", "2"])
        assert serial_code == pooled_code == 0
        assert "batch: 4/4 trace(s) complete" in pooled_out

        def split(output):
            lines = output.splitlines()
            return ([line for line in lines if not line.startswith("perf:")],
                    {line.split()[1] for line in lines
                     if line.startswith("perf:")})

        serial_lines, serial_caches = split(serial_out)
        pooled_lines, pooled_caches = split(pooled_out)
        # Same per-trace summaries and batch summary; perf counter
        # *values* differ (caches are per-process) but the cache set
        # must not.
        assert pooled_lines == serial_lines
        assert pooled_caches == serial_caches

    def test_batch_trace_timeout_flag_accepted(self, recorded_trace):
        code, output = run_cli(["batch", str(recorded_trace),
                                "--app", "sites", "--workers", "2",
                                "--trace-timeout", "60"])
        assert code == 0
        assert "batch: 1/1 trace(s) complete" in output

    @pytest.mark.parametrize("flag, value", [
        ("--workers", "0"),
        ("--workers", "-2"),
        ("--workers", "two"),
        ("--trace-timeout", "0"),
        ("--trace-timeout", "-1"),
        ("--trace-timeout", "nan"),
        ("--trace-timeout", "inf"),
    ])
    def test_batch_rejects_a_bad_pool_setting(self, recorded_trace, capsys,
                                              flag, value):
        # A usage error at argument parsing: no traceback, and no pool
        # that would kill (and then quarantine) every trace.
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["batch", str(recorded_trace), "--app", "sites",
                     "--workers", "2", flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument %s: " % flag in err
        assert "Traceback" not in err


class TestInspect:
    def test_inspect_prints_stats(self, recorded_trace):
        code, output = run_cli(["inspect", str(recorded_trace)])
        assert code == 0
        assert "commands:" in output
        assert "typing speed" in output
        assert "start url: http://sites.example.com/edit/home" in output

    def test_inspect_commands_listing(self, recorded_trace):
        code, output = run_cli(["inspect", str(recorded_trace),
                                "--commands"])
        assert 'click //div/span[@id="start"]' in output


class TestWebErrCommand:
    def test_timing_campaign_reports_bug(self, recorded_trace):
        code, output = run_cli(["weberr", str(recorded_trace),
                                "--app", "sites", "--campaign", "timing"])
        assert code == 0
        assert "BUG no-wait" in output
        assert "editorState" in output

    def test_navigation_campaign_runs(self, recorded_trace):
        code, output = run_cli(["weberr", str(recorded_trace),
                                "--app", "sites", "--campaign", "navigation",
                                "--max-tests", "8"])
        assert code == 0
        assert "[navigation]" in output


class TestMalformedInput:
    """A file a decoder rejects is one error line and exit status 2."""

    @pytest.fixture
    def garbage(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"\xc9not a trace, tape or journal\x00\xff\n")
        return path

    def assert_rejected(self, argv, capsys, message):
        code, output = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert output == ""
        assert err.startswith("repro: error: ")
        assert message in err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_journal_rejects_a_non_journal(self, garbage, capsys):
        self.assert_rejected(["journal", str(garbage)], capsys,
                             "is not a WJ2 journal")

    def test_replay_rejects_undecodable_bytes(self, garbage, capsys):
        self.assert_rejected(["replay", str(garbage), "--app", "sites"],
                             capsys, "is not UTF-8 text")

    def test_replay_rejects_a_headerless_trace(self, tmp_path, capsys):
        path = tmp_path / "x.warr"
        path.write_text("click //div\n")
        self.assert_rejected(["replay", str(path), "--app", "sites"],
                             capsys, "missing trace header")

    def test_tape_inspect_rejects_a_non_tape(self, garbage, capsys):
        self.assert_rejected(["tape", "inspect", str(garbage)], capsys,
                             "not a WT1 tape")

    @pytest.mark.parametrize("argv", [
        ["journal", "{path}"],
        ["tape", "inspect", "{path}"],
        ["replay", "{path}", "--app", "sites"],
        ["replay", "{trace}", "--app", "sites", "--tape", "{path}"],
        ["batch", "{trace}", "--app", "sites", "--tape", "{path}"],
    ])
    def test_missing_file_is_one_error_line(self, recorded_trace, tmp_path,
                                            capsys, argv):
        path = str(tmp_path / "nope")
        # A batch's --tape is a directory: the error names the first
        # tape file under it that cannot be read.
        unreadable = path + (os.sep if argv[0] == "batch" else ": ")
        self.assert_rejected(
            [arg.format(path=path, trace=recorded_trace) for arg in argv],
            capsys, "cannot read %s" % unreadable)

    def test_batch_names_the_bad_file(self, recorded_trace, tmp_path,
                                      capsys):
        bad = tmp_path / "bad.warr"
        bad.write_text("click //div\n")
        self.assert_rejected(["batch", str(recorded_trace), str(bad),
                              str(recorded_trace), "--app", "sites"],
                             capsys, "error: %s: missing trace header" % bad)


class TestClosedOutput:
    def test_closed_pipe_stops_quietly(self, recorded_trace, capsys):
        # ``repro replay ... | head -1``: the reader has gone away.
        read_end, write_end = os.pipe()
        os.close(read_end)
        with os.fdopen(write_end, "w") as out:
            code = main(["replay", str(recorded_trace), "--app", "sites"],
                        out=out)
        assert code == 141
        assert "Traceback" not in capsys.readouterr().err

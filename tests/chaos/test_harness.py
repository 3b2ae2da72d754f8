"""The chaos-matrix harness and its CLI surface."""

import json
import subprocess
import sys

from repro.chaos.harness import (
    SessionOutcome,
    SurvivalReport,
    _soak_env,
    default_workloads,
    run_chaos_matrix,
    run_soak,
)
from repro.cli import APPS, main
from repro.session.policies import RetryPolicy
from repro.session.supervisor import THROTTLE_ENV


def _portal_workloads():
    return [("portal",) + APPS["portal"]]


class TestMatrix:
    def test_matrix_covers_profiles_times_seeds(self):
        report = run_chaos_matrix(["disabled", "default"], seeds=2,
                                  workloads=_portal_workloads())
        assert report.session_count == 4
        assert set(report.by_profile()) == {"disabled", "default"}
        stats = report.profile_stats("disabled")
        assert stats["sessions"] == 2
        assert stats["faults"] == 0
        assert stats["survival_rate"] == 1.0

    def test_matrix_is_deterministic(self):
        def run():
            return run_chaos_matrix(["default"], seeds=[0, 1],
                                    workloads=_portal_workloads()).to_dict()

        assert run() == run()

    def test_no_retry_mode_reports_casualties(self):
        crashy = run_chaos_matrix(
            ["renderer-crash"], seeds=4, workloads=_portal_workloads(),
            retry=RetryPolicy.none())
        assert not crashy.retry_enabled
        stats = crashy.profile_stats("renderer-crash")
        # At least one seed kills the un-healed session; the healed
        # variant of the same matrix survives everywhere.
        assert stats["survived"] < stats["sessions"]
        healed = run_chaos_matrix(
            ["renderer-crash"], seeds=4, workloads=_portal_workloads())
        assert healed.profile_stats("renderer-crash")["survived"] == 4

    def test_report_shape_is_jsonable(self):
        report = run_chaos_matrix(["default"], seeds=1,
                                  workloads=_portal_workloads())
        data = json.loads(json.dumps(report.to_dict()))
        assert data["sessions"] == 1
        (outcome,) = data["outcomes"]
        assert outcome["app"] == "portal"
        assert outcome["profile"] == "default"
        assert outcome["status"] in ("complete", "failed", "halted")
        assert set(report.summary_lines()[0].split()[:2]) == {"chaos",
                                                              "matrix:"}

    def test_default_workloads_mirror_the_cli_registry(self):
        names = [w[0] for w in default_workloads()]
        assert names == sorted(APPS)


class TestSoakEnv:
    def test_tmpdir_points_into_the_soak_work_dir(self, tmp_path):
        # A SIGKILLed batch cannot remove its pool's stderr directory;
        # it must land where the harness cleans up after each cell.
        cell_tmp = tmp_path / "tmp"
        cell_tmp.mkdir()
        env = _soak_env(0.0, str(cell_tmp))
        assert env["TMPDIR"] == str(cell_tmp)
        child = subprocess.run(
            [sys.executable, "-c",
             "import tempfile; print(tempfile.mkdtemp(prefix='repro-pool-'))"],
            env=env, capture_output=True, text=True, check=True)
        made = child.stdout.strip()
        assert made.startswith(str(cell_tmp) + "/repro-pool-")

    def test_throttle_is_set_only_when_slow(self, tmp_path, monkeypatch):
        monkeypatch.setenv(THROTTLE_ENV, "9")
        assert THROTTLE_ENV not in _soak_env(0.0, str(tmp_path))
        assert _soak_env(0.15, str(tmp_path))[THROTTLE_ENV] == "0.15"


class TestSoakDrain:
    def test_a_drain_that_resumed_nothing_fails(self, tmp_path):
        # Two workers holding two traces each take all four at once, so
        # the SIGTERM finds nothing left to cancel: the cell tested no
        # resume and must say so, not pass.
        report = run_soak(mode=["pooled"], scenarios=["drain"], traces=4,
                          journal_dir=str(tmp_path))
        (outcome,) = report.outcomes
        assert not outcome.passed
        assert outcome.verdict["exactly_once"]
        assert outcome.detail.startswith("drained at 4/4, resumed 0")
        assert outcome.detail.endswith("nothing was left to resume")


class TestOutcomeScoring:
    class _FakeReport:
        def __init__(self, halted=False, failed=0):
            self.halted = halted
            self.failed_count = failed
            self.trace = [None] * 3
            self.replayed_count = 3 - failed
            self.retry_count = 1
            self.recoveries = 0
            self.halt_reason = "boom" if halted else None

    def _outcome(self, **kwargs):
        return SessionOutcome("app", "p", 0, self._FakeReport(**kwargs),
                              {"total_faults": 2, "faults": {}})

    def test_complete_beats_failed_beats_halted(self):
        assert self._outcome().status == SessionOutcome.COMPLETE
        assert self._outcome().survived
        assert self._outcome(failed=1).status == SessionOutcome.FAILED
        assert self._outcome(halted=True).status == SessionOutcome.HALTED
        assert not self._outcome(halted=True).survived

    def test_survival_rate_of_empty_profile_is_none(self):
        report = SurvivalReport(retry_enabled=True)
        assert report.profile_stats("ghost")["survival_rate"] is None


class TestCli:
    def test_chaos_subcommand_quick_mode(self, tmp_path, capsys):
        out_path = tmp_path / "survival.json"
        code = main(["chaos", "--profile", "disabled", "--seeds", "2",
                     "--quick", "--out", str(out_path)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "chaos matrix: 2 session(s)" in printed
        data = json.loads(out_path.read_text())
        assert data["sessions"] == 2
        assert data["survived"] == 2
        assert data["profiles"]["disabled"]["faults"] == 0

    def test_chaos_subcommand_accepts_underscore_profiles(self, capsys):
        code = main(["chaos", "--profile", "flaky_net", "--seeds", "1",
                     "--app", "portal"])
        assert code == 0
        assert "flaky-net" in capsys.readouterr().out

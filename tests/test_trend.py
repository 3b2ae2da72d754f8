"""The bench-trend perf ratchet (benchmarks/trend.py)."""

import io
import json
import os
import subprocess

import pytest

from benchmarks.trend import (
    DEFAULT_THRESHOLD,
    check_budgets,
    check_files,
    classify_metric,
    compare,
    extract_metrics,
)


class TestMetricExtraction:
    def test_naming_convention_drives_direction(self):
        assert classify_metric("commands_per_second") == "up"
        assert classify_metric("traces_per_second") == "up"
        assert classify_metric("speedup") == "up"
        assert classify_metric("disabled_profile_cost") == "down"
        assert classify_metric("chaos_off_overhead") == "down"
        assert classify_metric("commands") is None
        assert classify_metric("seconds") is None

    def test_nested_paths_and_booleans(self):
        metrics = extract_metrics({
            "replay": {"tracing_on_cost": 2.5,
                       "tracing_off_commands_per_second": 1000.0},
            "quick": True,       # bool is not a metric even if numeric-ish
            "commands": 42,
        })
        assert metrics == {
            "replay.tracing_on_cost": ("down", 2.5),
            "replay.tracing_off_commands_per_second": ("up", 1000.0),
        }

    def test_series_rows_are_keyed_by_identity_not_position(self):
        payload = {"series": [
            {"mode": "serial", "traces_per_second": 10.0},
            {"mode": "pool", "workers": 4, "traces_per_second": 30.0},
        ]}
        metrics = extract_metrics(payload)
        assert "series[mode=serial].traces_per_second" in metrics
        assert "series[mode=pool,workers=4].traces_per_second" in metrics
        # Reordering the rows produces the same metric names.
        reordered = extract_metrics({"series": payload["series"][::-1]})
        assert set(metrics) == set(reordered)

    def test_rows_sharing_a_mode_stay_distinct(self):
        # Two sweep points of the same backend must not collapse into
        # one metric (the id is a composite of every identity field).
        metrics = extract_metrics({"series": [
            {"mode": "pool", "workers": 2, "traces_per_second": 8.0},
            {"mode": "pool", "workers": 4, "traces_per_second": 9.0},
        ]})
        assert len(metrics) == 2
        assert "series[mode=pool,workers=2].traces_per_second" in metrics
        assert "series[mode=pool,workers=4].traces_per_second" in metrics


class TestCompare:
    def test_within_threshold_is_ok(self):
        records = compare({"x_per_second": 90.0}, {"x_per_second": 100.0})
        assert [r["status"] for r in records] == ["ok"]
        assert records[0]["change"] == pytest.approx(-0.10)

    def test_throughput_drop_beyond_threshold_regresses(self):
        records = compare({"x_per_second": 80.0}, {"x_per_second": 100.0})
        assert records[0]["status"] == "regressed"

    def test_cost_increase_regresses(self):
        # Lower-better metric: a cost going up is the regression.
        records = compare({"run_cost": 2.0}, {"run_cost": 1.0})
        assert records[0]["status"] == "regressed"
        records = compare({"run_cost": 0.5}, {"run_cost": 1.0})
        assert records[0]["status"] == "ok"

    def test_quick_vs_full_mode_skips_everything(self):
        records = compare({"quick": True, "x_per_second": 1.0},
                          {"x_per_second": 100.0})
        assert [r["status"] for r in records] == ["skipped"]
        assert records[0]["reason"] == "quick/full mode mismatch"

    def test_new_metric_without_baseline_skips(self):
        records = compare({"new_per_second": 5.0}, {"benchmark": "x"})
        assert records[0]["status"] == "skipped"
        assert records[0]["reason"] == "no baseline"

    def test_removed_metric_is_reported_as_skipped(self):
        # A sweep row the current run no longer produces (its backend
        # was removed) is listed, not silently dropped or failed.
        current = {"series": [{"mode": "serial", "x_per_second": 10.0}]}
        baseline = {"series": [{"mode": "serial", "x_per_second": 10.0},
                               {"mode": "gone", "x_per_second": 9.0}]}
        records = compare(current, baseline)
        assert [(r["metric"], r["status"]) for r in records] == [
            ("series[mode=serial].x_per_second", "ok"),
            ("series[mode=gone].x_per_second", "skipped")]
        assert records[1]["reason"] == "not in current run"
        assert records[1]["baseline"] == 9.0

    def test_custom_threshold(self):
        current, baseline = {"x_per_second": 89.0}, {"x_per_second": 100.0}
        assert compare(current, baseline,
                       threshold=0.10)[0]["status"] == "regressed"
        assert compare(current, baseline,
                       threshold=DEFAULT_THRESHOLD)[0]["status"] == "ok"


class TestAbsoluteBudgets:
    def test_over_budget_is_a_violation(self):
        out = io.StringIO()
        payload = {"replay": {"tracing_on_cost": 0.12}}
        assert check_budgets("BENCH_telemetry.json", payload, out=out) == 1
        assert "OVER BUDGET" in out.getvalue()

    def test_under_budget_passes(self):
        payload = {"replay": {"tracing_on_cost": 0.06},
                   "guard": {"tracing_off_overhead": 0.01}}
        out = io.StringIO()
        assert check_budgets("BENCH_telemetry.json", payload, out=out) == 0
        assert "OVER BUDGET" not in out.getvalue()

    def test_quick_mode_numbers_are_not_load_bearing(self):
        payload = {"quick": True, "replay": {"tracing_on_cost": 0.5}}
        out = io.StringIO()
        assert check_budgets("BENCH_telemetry.json", payload, out=out) == 0
        assert "quick mode" in out.getvalue()

    def test_files_without_budgets_are_free(self):
        payload = {"replay": {"tracing_on_cost": 9.9}}
        assert check_budgets("BENCH_demo.json", payload) == 0

    def test_absent_metric_skips_with_a_note(self):
        out = io.StringIO()
        assert check_budgets("BENCH_telemetry.json",
                             {"benchmark": "telemetry"}, out=out) == 0
        assert "metric absent" in out.getvalue()


class TestCheckFiles:
    @pytest.fixture
    def bench_repo(self, tmp_path, monkeypatch):
        """A throwaway git repo with one committed BENCH file."""
        repo = tmp_path / "repo"
        repo.mkdir()
        env = {"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
               "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"}
        for key, value in env.items():
            monkeypatch.setenv(key, value)

        def git(*args):
            subprocess.run(["git", *args], cwd=str(repo), check=True,
                           capture_output=True)

        git("init", "-q")
        path = repo / "BENCH_demo.json"
        path.write_text(json.dumps({"benchmark": "demo",
                                    "replay_per_second": 100.0}))
        git("add", "-A")
        git("commit", "-q", "-m", "baseline")
        monkeypatch.setattr("benchmarks.trend.REPO_ROOT", str(repo))
        return path

    def test_regression_is_counted(self, bench_repo):
        bench_repo.write_text(json.dumps({"benchmark": "demo",
                                          "replay_per_second": 50.0}))
        out = io.StringIO()
        assert check_files([str(bench_repo)], out=out) == 1
        assert "REGRESSED" in out.getvalue()

    def test_steady_numbers_pass(self, bench_repo):
        bench_repo.write_text(json.dumps({"benchmark": "demo",
                                          "replay_per_second": 99.0}))
        out = io.StringIO()
        assert check_files([str(bench_repo)], out=out) == 0
        assert "ok" in out.getvalue()

    def test_budget_gates_even_without_a_baseline(self, bench_repo):
        # A brand-new (uncommitted) bench file skips the relative
        # ratchet but still hits the absolute ceiling.
        fresh = os.path.join(os.path.dirname(str(bench_repo)),
                             "BENCH_telemetry.json")
        with open(fresh, "w") as handle:
            json.dump({"benchmark": "telemetry",
                       "replay": {"tracing_on_cost": 0.2}}, handle)
        out = io.StringIO()
        assert check_files([fresh], out=out) == 1
        text = out.getvalue()
        assert "OVER BUDGET" in text
        assert "no committed baseline" in text

    def test_missing_baseline_file_skips(self, bench_repo):
        fresh = os.path.join(os.path.dirname(str(bench_repo)),
                             "BENCH_new.json")
        with open(fresh, "w") as handle:
            json.dump({"benchmark": "new", "x_per_second": 1.0}, handle)
        out = io.StringIO()
        assert check_files([fresh], out=out) == 0
        assert "no committed baseline" in out.getvalue()

"""Bench-trend gate: fail the build when throughput regresses.

Every benchmark writes a machine-readable ``BENCH_<name>.json`` at the
repo root. This tool diffs the workspace copies (just regenerated by a
bench run) against the committed baselines (``git show
<ref>:BENCH_<name>.json``) and exits non-zero when any throughput
metric dropped by more than the threshold (default 15%) — a perf
ratchet: a PR that slows replay down must either fix it or consciously
regenerate the baseline and defend the number in review.

Metric discovery is schema-driven, not per-benchmark: walking the JSON,

- leaves named ``*_per_second`` are throughput (higher is better);
- leaves named ``speedup`` are higher-better ratios;
- leaves named ``*_cost`` or ``*_overhead`` are lower-better ratios;

so new benchmarks join the ratchet just by following the existing
naming convention. Lists of row objects (e.g. the batch sweep series)
are keyed by their identity fields (``mode``, ``workers``, ``shards``)
rather than list position, so reordering or extending a sweep does not
misalign the comparison.

Comparisons are skipped — never failed — when the two sides are not
comparable: a benchmark new to this commit, a metric that changed name
or was removed (a baseline row the current run no longer produces),
or a ``quick``-mode file diffed against a full-mode baseline (CI smoke
runs regenerate quick files; the committed baselines are full runs).
Skips are printed so silent gaps are visible.

On top of the relative ratchet, a small set of metrics carries an
*absolute* budget (``ABSOLUTE_BUDGETS``): the always-on tracing cost
must stay under its contract no matter what the committed baseline
says, so a sequence of small "within threshold" regressions cannot
walk it over the line. Budgets are only enforced on full-mode files —
quick smoke numbers are not load-bearing.
"""

import argparse
import glob
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEFAULT_THRESHOLD = 0.15

#: Keys identifying a row within a list-of-rows metric (checked in order).
_ROW_KEYS = ("mode", "workers", "shards", "name", "profile")

#: Absolute ceilings checked on full-mode runs regardless of baseline:
#: ``(file name, dotted metric path) -> maximum value``. These mirror
#: the assertions inside the benchmarks themselves, so a stale
#: committed JSON (regenerated by hand, or from a run whose assertion
#: was loosened) still cannot pass the gate over budget.
ABSOLUTE_BUDGETS = {
    ("BENCH_telemetry.json", "replay.tracing_on_cost"): 0.10,
    ("BENCH_telemetry.json", "guard.tracing_off_overhead"): 0.05,
    ("BENCH_resilience.json", "resume.resume_overhead_cost"): 0.10,
}


def _row_id(row, index):
    if isinstance(row, dict):
        parts = ["%s=%s" % (key, row[key])
                 for key in _ROW_KEYS if key in row]
        if parts:
            return ",".join(parts)
    return "[%d]" % index


def classify_metric(key):
    """'up' (higher is better), 'down' (lower is better), or None."""
    if key.endswith("_per_second") or key == "speedup":
        return "up"
    if key.endswith("_cost") or key.endswith("_overhead"):
        return "down"
    return None


def extract_metrics(payload, prefix=""):
    """{dotted.path: (direction, value)} for every trend-gated metric."""
    metrics = {}
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            path = "%s.%s" % (prefix, key) if prefix else key
            direction = classify_metric(key)
            if direction and isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                metrics[path] = (direction, float(value))
            else:
                metrics.update(extract_metrics(value, path))
    elif isinstance(payload, list):
        for index, row in enumerate(payload):
            metrics.update(extract_metrics(
                row, "%s[%s]" % (prefix, _row_id(row, index))))
    return metrics


def compare(current, baseline, threshold=DEFAULT_THRESHOLD):
    """Diff two bench payloads; returns a list of comparison records.

    Each record is a dict with ``metric``, ``status`` (``ok`` /
    ``regressed`` / ``skipped``), ``current``, ``baseline`` and
    ``change`` (signed fraction, positive = better). Quick-mode
    mismatches skip the whole file with a single record.
    """
    if bool(current.get("quick")) != bool(baseline.get("quick")):
        return [{"metric": "*", "status": "skipped",
                 "reason": "quick/full mode mismatch", "current": None,
                 "baseline": None, "change": None}]
    records = []
    ours = extract_metrics(current)
    theirs = extract_metrics(baseline)
    for metric in sorted(ours):
        direction, value = ours[metric]
        if metric not in theirs:
            records.append({"metric": metric, "status": "skipped",
                            "reason": "no baseline", "current": value,
                            "baseline": None, "change": None})
            continue
        _, base = theirs[metric]
        if base == 0:
            records.append({"metric": metric, "status": "skipped",
                            "reason": "zero baseline", "current": value,
                            "baseline": base, "change": None})
            continue
        # Normalize to "positive change = better" for both directions.
        change = (value - base) / abs(base)
        if direction == "down":
            change = -change
        status = "regressed" if change < -threshold else "ok"
        records.append({"metric": metric, "status": status,
                        "current": value, "baseline": base,
                        "change": change})
    for metric in sorted(set(theirs) - set(ours)):
        records.append({"metric": metric, "status": "skipped",
                        "reason": "not in current run", "current": None,
                        "baseline": theirs[metric][1], "change": None})
    return records


def check_budgets(name, current, out=sys.stdout):
    """Enforce ABSOLUTE_BUDGETS on one workspace payload.

    Returns the number of violations. Quick-mode files are skipped
    (with a note) — their numbers are smoke, not contract.
    """
    budgets = {metric: ceiling
               for (file_name, metric), ceiling in ABSOLUTE_BUDGETS.items()
               if file_name == name}
    if not budgets:
        return 0
    if current.get("quick"):
        print("%s: absolute budgets skipped (quick mode)" % name, file=out)
        return 0
    violations = 0
    metrics = extract_metrics(current)
    for metric in sorted(budgets):
        ceiling = budgets[metric]
        if metric not in metrics:
            print("%s: %s budget skipped (metric absent)" % (name, metric),
                  file=out)
            continue
        _, value = metrics[metric]
        over = value > ceiling
        print("%s: %-55s %12.4g budget %-8.4g %s"
              % (name, metric, value, ceiling,
                 "OVER BUDGET" if over else "ok"), file=out)
        if over:
            violations += 1
    return violations


def baseline_payload(path, ref):
    """The committed JSON for ``path`` at ``ref``, or None if absent."""
    rel = os.path.relpath(path, REPO_ROOT)
    try:
        blob = subprocess.run(
            ["git", "show", "%s:%s" % (ref, rel)],
            cwd=REPO_ROOT, capture_output=True, check=True).stdout
    except (subprocess.CalledProcessError, OSError):
        return None
    try:
        return json.loads(blob)
    except ValueError:
        return None


def check_files(paths, ref="HEAD", threshold=DEFAULT_THRESHOLD, out=sys.stdout):
    """Gate every file; returns the number of regressed metrics."""
    regressions = 0
    for path in paths:
        name = os.path.basename(path)
        with open(path) as handle:
            current = json.load(handle)
        # Absolute budgets gate even brand-new files with no baseline.
        regressions += check_budgets(name, current, out)
        baseline = baseline_payload(path, ref)
        if baseline is None:
            print("%s: no committed baseline at %s — skipped"
                  % (name, ref), file=out)
            continue
        for record in compare(current, baseline, threshold):
            if record["status"] == "skipped":
                print("%s: %s skipped (%s)" % (name, record["metric"],
                                               record["reason"]), file=out)
                continue
            marker = "REGRESSED" if record["status"] == "regressed" else "ok"
            print("%s: %-55s %12.4g -> %-12.4g %+6.1f%%  %s"
                  % (name, record["metric"], record["baseline"],
                     record["current"], 100 * record["change"], marker),
                  file=out)
            if record["status"] == "regressed":
                regressions += 1
    if regressions:
        print("\ntrend gate: %d metric(s) regressed past the %.0f%% "
              "threshold or an absolute budget" % (regressions,
                                                   100 * threshold), file=out)
    return regressions


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Diff BENCH_*.json against the committed baseline and "
                    "fail on throughput regressions.")
    parser.add_argument("files", nargs="*",
                        help="bench JSON files (default: BENCH_*.json at "
                             "the repo root)")
    parser.add_argument("--ref", default="HEAD",
                        help="git ref providing the baseline (default HEAD)")
    parser.add_argument("--threshold", type=float,
                        default=float(os.environ.get(
                            "TREND_THRESHOLD", DEFAULT_THRESHOLD)),
                        help="maximum tolerated fractional drop "
                             "(default 0.15)")
    args = parser.parse_args(argv)
    paths = args.files or sorted(
        glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json")))
    if not paths:
        print("trend gate: no BENCH_*.json files found")
        return 0
    return 1 if check_files(paths, args.ref, args.threshold) else 0


if __name__ == "__main__":
    sys.exit(main())

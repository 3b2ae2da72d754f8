"""Scale-out batch replay: serial vs warm-pool throughput.

Batch replay has two backends and this bench sweeps both over the same
batch of Sites editing sessions:

- **serial** (``workers=1``) — the in-process baseline;
- **warm pool** (``workers=N``) — N persistent worker processes serving
  chunked traces with wire-encoded results. Workers are spawned and
  warmed before the clock starts, so the number is the steady-state
  throughput a replay farm would see, not cold spawn cost. Beating
  serial requires a second physical core; the assertion engages only
  when ``os.sched_getaffinity`` reports one (2x at 4+ cores, 1.3x at
  2–3). On a single-core machine the honest number is below 1x and is
  still reported.

Every mode must produce the identical batch report — per-command
statuses are compared against the serial baseline before any timing
number is trusted.

Setting ``BENCH_QUICK=1`` runs a smoke-test configuration (small
batch, short sessions, no floor assertions) — CI uses it to prove the
harness runs end to end without paying for a stable measurement on
shared runners. The emitted ``BENCH_batch.json`` carries a ``quick``
flag so the trend gate never diffs a smoke run against a full baseline.
"""

import gc
import os
import time

from repro.apps.framework import make_browser
from repro.apps.sites import SitesApplication
from repro.core.recorder import WarrRecorder
from repro.session.batch import BatchRunner
from repro.session.policies import TimingPolicy
from repro.session.pool import WorkerPool, WorkerSpec
from repro.workloads.sessions import sites_edit_session

#: Smoke-test mode: tiny workload, no timing assertion (for CI).
QUICK = bool(os.environ.get("BENCH_QUICK"))

#: Traces per batch (every trace is a fresh isolated session).
TRACES = 8 if QUICK else 16

#: Text length for the editing session (~640 commands when full).
SESSION_LENGTH = 40 if QUICK else 640

#: Pool sizes measured; 1 worker is serial.
SCALE_SERIES = (2,) if QUICK else (2, 4)

#: Measurement rounds. Every round times every mode once, interleaved,
#: and each speedup is the median of *per-round* ratios against that
#: round's serial time — pairing inside a round cancels the slow
#: monotonic drift of the process (heap growth, allocator state) that
#: would otherwise penalize whichever mode happens to run last.
ROUNDS = 1 if QUICK else 5

#: Cores this process may actually run on (cgroup/affinity aware).
CORES = len(os.sched_getaffinity(0))

#: Required warm-pool speedup over serial, by available parallelism.
MIN_SPEEDUP = 2.0 if CORES >= 4 else 1.3


def sites_factory():
    """Per-session browser factory; workers resolve it by reference."""
    browser, _ = make_browser([SitesApplication], developer_mode=True)
    return browser


def record_session(text_length=SESSION_LENGTH):
    browser, _ = make_browser([SitesApplication])
    recorder = WarrRecorder().attach(browser)
    recorder.begin("http://sites.example.com/edit/home")
    sites_edit_session(browser, text="x" * text_length)
    return recorder.trace


def run_mode(trace, workers=1, pool=None):
    """Replay ``TRACES`` copies of ``trace``; returns (seconds, batch)."""
    runner = BatchRunner(sites_factory, timing=TimingPolicy.no_wait(),
                         workers=workers, pool=pool)
    gc.collect()  # level the allocator field between modes
    start = time.perf_counter()
    batch = runner.run([trace] * TRACES)
    seconds = time.perf_counter() - start
    assert batch.trace_count == TRACES
    assert batch.replayed_count == TRACES * len(trace), batch.summary()
    return seconds, batch


def _median(values):
    return sorted(values)[len(values) // 2]


def measure_modes(trace):
    """Paired-rounds timing per backend.

    Returns ``[(label, row_fields, median_seconds, median_speedup,
    batch)]`` in sweep order. Pools are created and warmed once (spawn
    and first-build cost amortize across a campaign; the steady-state
    number is the one a replay farm sees). Every round times every
    mode back to back, and each speedup is the median of per-round
    ratios against that round's serial time — so process drift shifts
    a whole round, not the comparison.
    """
    spec = WorkerSpec("benchmarks.bench_batch:sites_factory")
    pools = {}
    modes = [("serial", {"mode": "serial", "workers": 1}, {})]
    for workers in SCALE_SERIES:
        pool = WorkerPool(spec, workers).start()
        # Warm off the clock: every worker imports the stack, builds
        # its factory, and replays once before timing starts. A tripped
        # breaker hands traces back unrun, so check every outcome.
        outcomes, _ = pool.run(
            [("warmup-%d" % i, trace) for i in range(2 * workers)],
            engine_config={"timing": TimingPolicy.no_wait()})
        assert all(outcome.ok for outcome in outcomes), outcomes
        pools[workers] = pool
        modes.append(("pool-%d" % workers,
                      {"mode": "pool", "workers": workers},
                      {"pool": pool}))
    try:
        timings = {label: [] for label, _, _ in modes}
        ratios = {label: [] for label, _, _ in modes}
        batches = {}
        for _ in range(ROUNDS):
            serial_seconds = None
            for label, _, kwargs in modes:
                seconds, batch = run_mode(trace, **kwargs)
                if serial_seconds is None:  # serial is always first
                    serial_seconds = seconds
                timings[label].append(seconds)
                ratios[label].append(serial_seconds / seconds)
                batches[label] = batch
        return [(label, fields, _median(timings[label]),
                 _median(ratios[label]), batches[label])
                for label, fields, _ in modes]
    finally:
        for pool in pools.values():
            pool.close()


def test_batch_scaleout_sweep(reporter, json_reporter):
    trace = record_session()

    series = []
    baseline_batch = None
    for label, fields, seconds, speedup, batch in measure_modes(trace):
        if baseline_batch is None:
            baseline_batch = batch
        row = dict(fields)
        row.update({
            "seconds": round(seconds, 3),
            "traces_per_second": round(TRACES / seconds, 2),
            "speedup": round(speedup, 2),
        })
        series.append(row)
        # Correctness guard: the backend must not change replay
        # outcomes — same summary, same per-command statuses.
        assert batch.summary() == baseline_batch.summary(), label
        for mine, theirs in zip(batch.runs, baseline_batch.runs):
            assert [r.status for r in mine.report.results] \
                == [r.status for r in theirs.report.results], label

    lines = ["%-12s %-12s %-16s %-10s"
             % ("mode", "seconds", "traces/s", "speedup")]
    for row in series:
        name = row["mode"]
        if name != "serial":
            name += "-%d" % row["workers"]
        lines.append("%-12s %-12.3f %-16.2f %-10.2fx"
                     % (name, row["seconds"], row["traces_per_second"],
                        row["speedup"]))
    lines.append("")
    lines.append("%d usable core(s); pool floor %s"
                 % (CORES,
                    ">= %.1fx" % MIN_SPEEDUP
                    if not QUICK and CORES >= 2 else "off"))
    reporter("Scale-out batch replay — %d x %d-command Sites sessions"
             % (TRACES, len(trace)), lines)

    json_reporter("batch", {
        "benchmark": "batch",
        "quick": QUICK,
        "traces": TRACES,
        "commands_per_trace": len(trace),
        "cores": CORES,
        "series": series,
        "min_pool_speedup_required":
            MIN_SPEEDUP if not QUICK and CORES >= 2 else None,
    })

    if QUICK:
        return
    # A pool cannot beat serial replay without a second core to run on;
    # on single-core machines the numbers above are still written, but
    # the assertion would only measure process-management overhead.
    if CORES >= 2:
        pool_rows = [row for row in series if row["mode"] == "pool"]
        best = max(row["speedup"] for row in pool_rows)
        assert best >= MIN_SPEEDUP, (
            "best warm-pool speedup %.2fx across %r workers, below the "
            "required %.1fx on %d cores"
            % (best, [row["workers"] for row in pool_rows], MIN_SPEEDUP,
               CORES)
        )

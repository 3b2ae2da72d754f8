"""Durability costs: journaling overhead, resume speedup, soak survival.

The run journal promises crash-safe batches at production cost. This
bench pins the three numbers that make the promise honest and writes
``BENCH_resilience.json``:

1. **Journal overhead** — a journaled serial batch (every start and
   outcome fsync'd to WJ2) vs. the same batch without a journal. The
   relative gap is the price of durability on the happy path.
2. **Resume cost** — re-running a batch whose journal is already
   complete. Every trace replays *from the journal* instead of the
   browser, so this is the recovery path's fixed cost; the trend gate
   asserts it stays under ``MAX_RESUME_COST`` (10%) of a cold run.
   Anything higher would mean "resume" quietly re-executes work.
3. **Soak survival** — the ``python -m repro soak`` failure matrix
   (SIGTERM drain, SIGKILL'd parent, chaos-killed workers) with its
   exactly-once journal audit per cell. Reported as pass/fail counts;
   a failed cell fails the bench outright, quick mode included.

Setting ``BENCH_QUICK=1`` runs a smoke configuration (fewer traces,
one soak cell, no timing assertions) for CI; ``benchmarks/trend.py``
enforces the ``resume_overhead_cost`` budget on full runs.
"""

import os
import time

from repro.apps.framework import make_browser
from repro.apps.sites import SitesApplication
from repro.chaos.harness import run_soak
from repro.core.recorder import WarrRecorder
from repro.session import journal as run_journal
from repro.session.batch import BatchRunner
from repro.session.policies import TimingPolicy
from repro.workloads.sessions import sites_edit_session

#: Smoke-test mode: tiny workload, no timing assertion (for CI).
QUICK = bool(os.environ.get("BENCH_QUICK"))

#: Traces per measured batch.
TRACES = 4 if QUICK else 12

#: Text length for the recorded editing session — long enough that a
#: cold replay dwarfs the fixed per-trace cost of journal bookkeeping
#: (resume cost is measured relative to it).
SESSION_LENGTH = 40 if QUICK else 240

#: Best-of-N rounds to damp scheduler noise.
REPEATS = 1 if QUICK else 5

#: Resume of a complete journal must cost < this fraction of a cold
#: run — the recovery path must not quietly re-execute the work.
MAX_RESUME_COST = 0.10

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _factory():
    browser, _ = make_browser([SitesApplication], developer_mode=True)
    return browser


def record_traces():
    """One recorded sites session, replayed as ``TRACES`` batch items."""
    browser, _ = make_browser([SitesApplication])
    recorder = WarrRecorder().attach(browser)
    recorder.begin("http://sites.example.com/edit/home")
    sites_edit_session(browser, text="x" * SESSION_LENGTH)
    trace = recorder.trace
    return [trace] * TRACES, ["trace-%d" % i for i in range(TRACES)]


def _runner(journal=None, resume=False):
    return BatchRunner(_factory, timing=TimingPolicy.no_wait(),
                       journal=journal, resume=resume)


def measure(traces, labels, tmpdir):
    """Best-of-``REPEATS`` seconds for (plain, journaled, resume)."""
    plain = journaled = resume = None
    for round_index in range(REPEATS):
        start = time.perf_counter()
        batch = _runner().run(traces, labels=labels)
        seconds = time.perf_counter() - start
        assert batch.complete
        plain = seconds if plain is None else min(plain, seconds)

        path = os.path.join(tmpdir, "round-%d.wj2" % round_index)
        start = time.perf_counter()
        batch = _runner(journal=path).run(traces, labels=labels)
        seconds = time.perf_counter() - start
        assert batch.complete
        journaled = seconds if journaled is None else min(journaled, seconds)
        verdict = run_journal.verify_exactly_once(path,
                                                 expected_labels=labels)
        assert verdict["exactly_once"], verdict

        start = time.perf_counter()
        batch = _runner(journal=path, resume=True).run(traces, labels=labels)
        seconds = time.perf_counter() - start
        assert batch.complete and batch.resumed_count == len(traces)
        resume = seconds if resume is None else min(resume, seconds)
    return plain, journaled, resume


def run_soak_matrix():
    """The soak cells this configuration exercises."""
    if QUICK:
        return run_soak(mode=["serial"], scenarios=["drain"], traces=3,
                        throttle=0.1)
    return run_soak(traces=6)


def test_resilience(benchmark, reporter, json_reporter, tmp_path):
    traces, labels = record_traces()
    tmpdir = str(tmp_path)
    plain_s, journaled_s, resume_s = measure(traces, labels, tmpdir)
    journal_cost = journaled_s / plain_s - 1.0
    resume_cost = resume_s / plain_s

    soak = run_soak_matrix()
    soak_cells = len(soak.outcomes)
    soak_passed = sum(1 for o in soak.outcomes if o.passed)

    commands = sum(len(trace) for trace in traces)
    lines = [
        "serial batch, %d traces / %d commands (best of %d):"
        % (TRACES, commands, REPEATS),
        "  %-34s %.4fs" % ("no journal", plain_s),
        "  %-34s %.4fs  (%+.1f%%)"
        % ("journaled (WJ2, fsync)", journaled_s, journal_cost * 100.0),
        "  %-34s %.4fs  (%.1f%% of cold, budget < %.0f%%)"
        % ("resume of complete journal", resume_s, resume_cost * 100.0,
           MAX_RESUME_COST * 100.0),
        "",
        "soak matrix: %d/%d cell(s) passed" % (soak_passed, soak_cells),
    ]
    lines += ["  " + line for line in soak.summary_lines()[1:]]
    reporter("Resilience — journal overhead, resume cost, soak survival",
             lines)

    json_reporter("resilience", {
        "benchmark": "resilience",
        "quick": QUICK,
        "resume": {
            "traces": TRACES,
            "commands": commands,
            "plain_seconds": round(plain_s, 4),
            "journaled_seconds": round(journaled_s, 4),
            "resume_seconds": round(resume_s, 4),
            "journal_overhead_cost": round(journal_cost, 4),
            "resume_overhead_cost": round(resume_cost, 4),
            "budget": MAX_RESUME_COST,
        },
        "soak": {
            "cells": soak_cells,
            "passed": soak_passed,
            "outcomes": [o.to_dict() for o in soak.outcomes],
        },
    })

    # Exactly-once survival is correctness, not timing: quick mode
    # must hold it too.
    assert soak.passed, "soak failures:\n%s" % "\n".join(
        soak.summary_lines())
    if not QUICK:
        assert resume_cost < MAX_RESUME_COST, (
            "resuming a complete journal costs %.1f%% of a cold run, "
            "over the %.0f%% budget — resume is re-executing work"
            % (resume_cost * 100.0, MAX_RESUME_COST * 100.0))

    # pytest-benchmark number: one resume-from-journal pass.
    path = os.path.join(tmpdir, "bench.wj2")
    _runner(journal=path).run(traces, labels=labels)

    def resume_run():
        return _runner(journal=path, resume=True).run(traces, labels=labels)

    result = benchmark(resume_run)
    assert result.resumed_count == len(traces)

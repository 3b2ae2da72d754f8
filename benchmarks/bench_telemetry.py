"""Telemetry overhead: tracing-off must be (nearly) free — and
tracing-*on*, in the production category configuration, nearly so.

The tracing subsystem promises that instrumented code pays one guard
check (``telemetry.current() is None``) while tracing is off, and that
the packed ring buffer + category filtering keep a production trace
(``categories="production"``) affordable on an always-on replay farm.
This bench measures both and writes ``BENCH_telemetry.json``:

1. **Guard micro-benchmark** — the DOM dispatch hot loop run through
   the public guarded entry point (``dispatch_event``) vs. a guard-free
   reference body kept here (:func:`reference_dispatch`: the same
   untraced dispatch with every tracer test removed, checked to give
   ``dispatch_event``'s results on the bench's tree). The relative gap
   IS the tracing-off overhead, measured in-process back to back, and
   is asserted below ``MAX_OFF_OVERHEAD`` (5%).
2. **End-to-end replays** — whole-session replay throughput with
   tracing off, tracing on in the production category set (asserted
   below ``MAX_ON_OVERHEAD``: cost < 0.10x, i.e. tracing-on under
   1.10x the tracing-off runtime), and tracing on with every category
   (``"all"``, reported as ``tracing_on_full_cost``).

Both exported traces are run through the schema validator, so the
"cheap" configurations are pinned to still be *valid* configurations.

Setting ``BENCH_QUICK=1`` runs a smoke configuration (tiny workload,
no timing assertions) for CI; ``benchmarks/trend.py`` enforces the
``tracing_on_cost`` / ``tracing_off_overhead`` budgets on full runs.
"""

import gc
import json
import os
import subprocess
import sys
import time

from repro import perf, telemetry
from repro.apps.framework import make_browser
from repro.apps.sites import SitesApplication
from repro.core.recorder import WarrRecorder
from repro.core.replayer import TimingMode, WarrReplayer
from repro.dom.parser import parse_html
from repro.events import dispatch as dispatch_module
from repro.events.dispatch import dispatch_event
from repro.events.event import (
    AT_TARGET,
    BUBBLING_PHASE,
    CAPTURING_PHASE,
    Event,
)
from repro.workloads.sessions import sites_edit_session

#: Smoke-test mode: tiny workload, no timing assertion (for CI).
QUICK = bool(os.environ.get("BENCH_QUICK"))

#: Text length for the recorded editing session.
SESSION_LENGTH = 40 if QUICK else 320

#: Maximum tracing-off overhead on the guarded dispatch hot path.
MAX_OFF_OVERHEAD = 0.05

#: Maximum tracing-on replay cost with ``categories="production"``.
MAX_ON_OVERHEAD = 0.10

#: Dispatches per measurement round of the guard micro-benchmark.
DISPATCHES = 2_000 if QUICK else 20_000

#: Best-of-N rounds to damp scheduler noise.
REPEATS = 1 if QUICK else 7

#: Independent interpreter processes probing the asserted replay pair
#: (each runs ``REPEATS`` interleaved off/production rounds). A Python
#: process lands in a per-process memory layout that can slow the
#: allocation-heavier production replay by a steady millisecond for
#: the process's whole lifetime — no amount of in-process repetition
#: averages that away, so the pair's floors are taken across
#: processes, like any external benchmark runner would.
PROBES = 3

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HTML = """
<html><body>
  <div id="a"><div id="b"><div id="c"><span id="leaf">x</span></div></div></div>
</body></html>
"""


def record_session():
    browser, _ = make_browser([SitesApplication])
    recorder = WarrRecorder().attach(browser)
    recorder.begin("http://sites.example.com/edit/home")
    sites_edit_session(browser, text="x" * SESSION_LENGTH)
    return recorder.trace


def replay_once(trace, categories):
    """Replay on a fresh browser; returns (seconds, report, tracer).

    ``categories`` None replays with tracing off; otherwise it is the
    tracer's category spec (``"all"`` / ``"production"``). The heap is
    collected before the clock starts so garbage left by the previous
    configuration (an ``"all"`` replay retains thousands of args
    payloads) is not charged to this one; collections *triggered by*
    the measured replay still land inside the timed region.
    """
    browser, _ = make_browser([SitesApplication], developer_mode=True)
    replayer = WarrReplayer(browser, timing=TimingMode.no_wait())
    tracer = None
    gc.collect()
    start = time.perf_counter()
    if categories is not None:
        with telemetry.tracing(clock=browser.clock,
                               categories=categories) as tracer:
            report = replayer.replay(trace)
    else:
        report = replayer.replay(trace)
    seconds = time.perf_counter() - start
    assert report.replayed_count == len(trace), report.summary()
    return seconds, report, tracer


def measure_replays(trace, specs, repeats=REPEATS):
    """Best-of-``repeats`` replay rates for several category specs.

    The specs are interleaved round-robin (off, production, off, ...)
    rather than measured in separate blocks, so slow drift in machine
    state biases every configuration equally instead of skewing the
    off/on ratio. Returns ``{spec: (rate, tracer)}``.

    The asserted off/production pair must be measured in its own call,
    *before* any ``"all"`` replay: an all-categories tracer retains
    thousands of deferred args payloads, and that live heap measurably
    slows every replay that follows it in the same process — rotating
    it through the asserted pair inflates the production ratio by
    several points of pure measurement artifact.
    """
    best = {}
    tracers = {}
    for _ in range(repeats):
        for categories in specs:
            seconds, _, tracer = replay_once(trace, categories)
            if categories not in best or seconds < best[categories]:
                best[categories] = seconds
            tracers[categories] = tracer
    return {categories: (len(trace) / best[categories], tracers[categories])
            for categories in specs}


def measure_pair_floors():
    """Cross-process floors (seconds) for the off/production pair.

    Spawns ``PROBES`` fresh interpreters, each recording its own
    session and running the interleaved off/production rounds, and
    takes each configuration's best time across every probe. Returns
    ``(off_seconds, production_seconds, commands)``.
    """
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = (os.pathsep.join([src, env["PYTHONPATH"]])
                         if env.get("PYTHONPATH") else src)
    off = prod = commands = None
    for _ in range(PROBES):
        result = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe"],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT)
        if result.returncode != 0:
            raise RuntimeError("replay probe failed:\n%s" % result.stderr)
        probe = json.loads(result.stdout.strip().splitlines()[-1])
        off = probe["off"] if off is None else min(off, probe["off"])
        prod = (probe["production"] if prod is None
                else min(prod, probe["production"]))
        commands = probe["commands"]
    return off, prod, commands


def _probe_main():
    """One probe process: record, measure the pair, print JSON."""
    trace = record_session()
    best = {}
    for _ in range(REPEATS):
        for categories in (None, "production"):
            seconds, _, _ = replay_once(trace, categories)
            if categories not in best or seconds < best[categories]:
                best[categories] = seconds
    print(json.dumps({"off": best[None], "production": best["production"],
                      "commands": len(trace)}))


def check_export(tracer, categories):
    """The cheap configuration must still export a *valid* trace."""
    from tests.telemetry.schema import validate_trace

    trace_dict = telemetry.tracer_to_dict(tracer)
    validate_trace(trace_dict)
    assert trace_dict["otherData"]["events_total"] == tracer.buffer.total
    seen = {event.get("cat") for event in trace_dict["traceEvents"]
            if event.get("ph") != "M"}
    assert "session" in seen, "production trace lost the session narrative"
    if categories == "production":
        allowed = telemetry.PRODUCTION_CATEGORIES | {None}
        assert seen <= allowed, "category filter leaked: %r" % (
            seen - allowed,)
    return len(trace_dict["traceEvents"])


def reference_observed_types(target):
    """``observed_types`` without its tracer test."""
    document = target.owner_document
    if document is None or not perf._enabled:
        return None
    return document._listened_types


def reference_dispatch(target, event, on_error=None):
    """``dispatch_event`` with tracing off and no tracer test at all.

    The guard-free reference the guard micro-benchmark compares
    against: the same calls in the same order (the skip of unobserved
    types, the memoized propagation path, the per-phase listener
    walk), minus every ``telemetry._dispatch_tracer`` load and None
    test. :func:`check_reference` pins it to ``dispatch_event``'s
    results.
    """
    event.target = target
    observed = reference_observed_types(target)
    if observed is not None and event.type not in observed:
        return not event.default_prevented
    ancestors = dispatch_module._propagation_path(target)
    invoke = dispatch_module._invoke
    capture_key = (event.type, True)
    bubble_key = (event.type, False)
    event.event_phase = CAPTURING_PHASE
    for node in ancestors:
        if event.propagation_stopped:
            break
        listeners = node._listeners
        if listeners:
            handlers = listeners.get(capture_key)
            if handlers:
                invoke(node, handlers, event, on_error)
    listeners = target._listeners
    if listeners and not event.propagation_stopped:
        event.event_phase = AT_TARGET
        handlers = listeners.get(capture_key)
        if handlers:
            invoke(target, handlers, event, on_error)
        if not event.propagation_stopped:
            handlers = listeners.get(bubble_key)
            if handlers:
                invoke(target, handlers, event, on_error)
    if event.bubbles and not event.propagation_stopped:
        event.event_phase = BUBBLING_PHASE
        for node in reversed(ancestors):
            if event.propagation_stopped:
                break
            listeners = node._listeners
            if listeners:
                handlers = listeners.get(bubble_key)
                if handlers:
                    invoke(node, handlers, event, on_error)
    event.event_phase = None
    event.current_target = None
    return not event.default_prevented


def bench_tree(listener):
    """The bench's document and its leaf, with ``listener`` on the leaf
    and its two nearest ancestors."""
    document = parse_html(HTML)
    (leaf,) = [node for node in document.descendants()
               if getattr(node, "tag", None) == "span"]
    for node in (leaf, leaf.parent, leaf.parent.parent):
        node.add_event_listener("ping", listener)
    return document, leaf


def check_reference():
    """The reference body must dispatch exactly as ``dispatch_event``:
    the same listeners in the same order and phase, the same return
    value, for a plain, a prevented, a stopped and an unobserved
    event."""
    def outcome(entry_point, event_type, stop_at=None):
        seen = []

        def listener(event):
            seen.append((event.current_target.get_attribute("id"),
                         event.event_phase))
            if event.current_target.get_attribute("id") == stop_at:
                event.prevent_default()
                event.stop_propagation()

        _, leaf = bench_tree(listener)
        proceed = entry_point(leaf, Event(event_type, bubbles=True))
        return proceed, seen

    for event_type, stop_at in (("ping", None), ("ping", "c"),
                                ("ping", "leaf"), ("pong", None)):
        expected = outcome(dispatch_event, event_type, stop_at)
        assert outcome(reference_dispatch, event_type, stop_at) \
            == expected, (event_type, stop_at)


def dispatch_round(entry_point):
    """Time ``DISPATCHES`` bubbling dispatches through ``entry_point``."""
    hops = []
    _, leaf = bench_tree(lambda event: hops.append(1))
    start = time.perf_counter()
    for _ in range(DISPATCHES):
        entry_point(leaf, Event("ping", bubbles=True))
    return time.perf_counter() - start


def measure_guard_overhead():
    """Tracing-off overhead of the guarded dispatch entry point.

    Interleaves best-of-N rounds of the public (guarded) entry point
    and the guard-free reference so both see the same machine state.
    """
    assert telemetry.current() is None
    check_reference()
    guarded = None
    bare = None
    for _ in range(REPEATS):
        seconds = dispatch_round(dispatch_event)
        guarded = seconds if guarded is None else min(guarded, seconds)
        seconds = dispatch_round(reference_dispatch)
        bare = seconds if bare is None else min(bare, seconds)
    return guarded, bare


def test_tracing_overhead(benchmark, reporter, json_reporter):
    trace = record_session()
    if QUICK:
        rates = measure_replays(trace, (None, "production"))
        off_rate, _ = rates[None]
        prod_rate, prod_tracer = rates["production"]
    else:
        off_s, prod_s, commands = measure_pair_floors()
        assert commands == len(trace)
        off_rate = len(trace) / off_s
        prod_rate = len(trace) / prod_s
        # An untimed production replay supplies the export to validate.
        prod_tracer = replay_once(trace, "production")[2]
    # The all-categories number is informational (reported, never
    # asserted), so it runs after the asserted pair — see
    # measure_replays on why it must not rotate with them.
    full_rate, full_tracer = measure_replays(trace, ("all",))["all"]
    prod_cost = off_rate / prod_rate - 1.0
    full_cost = off_rate / full_rate - 1.0
    prod_events = check_export(prod_tracer, "production")
    full_events = check_export(full_tracer, "all")

    guarded_s, bare_s = measure_guard_overhead()
    guard_overhead = guarded_s / bare_s - 1.0

    lines = [
        "guarded dispatch hot loop (%d dispatches, best of %d):"
        % (DISPATCHES, REPEATS),
        "  %-34s %.4fs" % ("guard-free reference", bare_s),
        "  %-34s %.4fs" % ("guarded entry (tracing off)", guarded_s),
        "  overhead: %+.2f%% (budget < %.0f%%)"
        % (guard_overhead * 100.0, MAX_OFF_OVERHEAD * 100.0),
        "",
        "end-to-end replay, %d commands (%d probe processes × best "
        "of %d):" % (len(trace), PROBES, REPEATS),
        "  %-34s %.0f cmds/s" % ("tracing off", off_rate),
        "  %-34s %.0f cmds/s  (%d events)"
        % ("tracing on (production)", prod_rate, prod_events),
        "  %-34s %.0f cmds/s  (%d events)"
        % ("tracing on (all categories)", full_rate, full_events),
        "  production cost: %+.1f%% (budget < %.0f%%)"
        % (prod_cost * 100.0, MAX_ON_OVERHEAD * 100.0),
        "  all-categories cost: %+.1f%% (reported, not asserted)"
        % (full_cost * 100.0),
    ]
    reporter("Telemetry overhead — guard check and always-on tracing",
             lines)

    json_reporter("telemetry", {
        "benchmark": "telemetry",
        "quick": QUICK,
        "dispatches": DISPATCHES,
        "guard": {
            "bare_seconds": round(bare_s, 4),
            "guarded_seconds": round(guarded_s, 4),
            "tracing_off_overhead": round(guard_overhead, 4),
            "budget": MAX_OFF_OVERHEAD,
        },
        "replay": {
            "commands": len(trace),
            "tracing_off_commands_per_second": round(off_rate, 1),
            "tracing_on_commands_per_second": round(prod_rate, 1),
            "tracing_on_cost": round(prod_cost, 4),
            "tracing_on_full_commands_per_second": round(full_rate, 1),
            "tracing_on_full_cost": round(full_cost, 4),
            "budget": MAX_ON_OVERHEAD,
            "production_events": prod_events,
            "full_events": full_events,
        },
    })

    # Timing assertions are meaningless on a quick smoke run.
    if not QUICK:
        assert guard_overhead < MAX_OFF_OVERHEAD, (
            "tracing-off guard costs %+.2f%% on the dispatch hot path, "
            "over the %.0f%% budget"
            % (guard_overhead * 100.0, MAX_OFF_OVERHEAD * 100.0)
        )
        assert prod_cost < MAX_ON_OVERHEAD, (
            "production tracing costs %+.1f%% on end-to-end replay, "
            "over the %.0f%% budget (tracing-on must stay < %.2fx)"
            % (prod_cost * 100.0, MAX_ON_OVERHEAD * 100.0,
               1.0 + MAX_ON_OVERHEAD)
        )

    # pytest-benchmark number: one production-traced replay.
    def traced_replay():
        return replay_once(trace, categories="production")[1]

    result = benchmark(traced_replay)
    assert result.replayed_count == len(trace)


if __name__ == "__main__":
    _probe_main()

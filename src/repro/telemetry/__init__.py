"""Chrome trace-event tracing across the browser, replay, and session layers.

The observability counterpart to :mod:`repro.perf`'s flat counters: a
process-wide :class:`~repro.telemetry.tracer.Tracer` records nestable
duration spans, instants, and counter samples from every instrumented
boundary — IPC send/pump, WebKit input handling, DOM event dispatch,
layout reflow, XPath compile/evaluate, recorder command emission, and
the session engine's schedule → locate → act → observe pipeline — into
a bounded ring buffer, exported as Chrome trace-event JSON loadable in
``chrome://tracing`` (catapult's trace_viewer) or Perfetto.

Tracing is **off by default** and costs instrumented code exactly one
guard check (``telemetry.current() is None``) while off; the telemetry
benchmark pins that overhead below 5%. Enable it for a region::

    from repro import telemetry

    with telemetry.tracing(out="trace.json", clock=browser.clock):
        replayer.replay(trace)

or from the shell with ``python -m repro replay --trace-out trace.json``.
While installed, the tracer also bridges :mod:`repro.perf` counter
activity into counter events, so cache effectiveness renders on the
same timeline as the spans.

Tracing can also stay **on in production**: events land in a packed
binary ring buffer (see :mod:`repro.telemetry.packed`) and
``categories="production"`` restricts recording to the session
narrative, network, chaos, and recorder lanes — the telemetry
benchmark pins that configuration below 10% replay overhead. Any
category set is selectable, and a ``name:rate`` term samples that
category deterministically::

    with telemetry.tracing(out="trace.json",
                           categories="production,dispatch:0.1",
                           sample_seed=7):
        runner.run(traces)

(``--trace-categories`` on the CLI). The default remains ``"all"``.
"""

from contextlib import contextmanager

from repro import perf
from repro.telemetry.events import DEFAULT_BUFFER_SIZE, TraceEvent
from repro.telemetry.export import (
    dumps,
    to_trace_dict,
    to_trace_dict_raw,
    trace_summary,
    tracer_to_dict,
    write_trace,
    write_trace_dict,
)
from repro.telemetry.merge import TraceMerger
from repro.telemetry.observer import TracingNarrator
from repro.telemetry.packed import PackedRingBuffer, Sampler, StringTable
from repro.telemetry.tracer import (
    PRODUCTION_CATEGORIES,
    Tracer,
    parse_category_spec,
    resolve_categories,
)
from repro.telemetry.tracks import (
    CHAOS_TRACK,
    COUNTERS_TRACK,
    LOCATOR_TRACK,
    NET_TRACK,
    RECORDER_TRACK,
    SESSION_TRACK,
    TrackRegistry,
)

_tracer = None

#: The installed tracer *iff* it records the ``dispatch`` category,
#: else None. DOM event dispatch is the hottest guard site in the
#: process (thousands of calls per replay), so it reads this one
#: attribute instead of calling :func:`current` and then ``wants()`` —
#: one load and a None check whether tracing is off or the installed
#: tracer filters dispatch out, which keeps a production-category
#: tracer from taxing every dispatch. Maintained by :func:`install` /
#: :func:`uninstall`; a tracer's category set is immutable once built,
#: so resolving once at install time is sound.
_dispatch_tracer = None


def current():
    """The installed tracer, or None while tracing is off.

    This is THE guard instrumented code checks; everything else in the
    subsystem is only reached when it returns a tracer.
    """
    return _tracer


def enabled():
    """True while a tracer is installed."""
    return _tracer is not None


def _perf_bridge(name, hits, misses):
    """repro.perf hook: mirror counter updates as counter events."""
    tracer = _tracer
    if tracer is not None:
        tracer.counter("perf.%s" % name, {"hits": hits, "misses": misses},
                       track=COUNTERS_TRACK, cat="perf")


def install(tracer):
    """Install ``tracer`` process-wide; returns it.

    Also hooks :mod:`repro.perf` so cache hit/miss activity streams
    into counter events — but only when the tracer records the
    ``perf`` category; with it filtered out the bridge is never
    attached and counter updates cost nothing extra. Nested installs
    are refused — the tracer is a process-wide singleton, like the
    fast-path toggle.
    """
    global _tracer, _dispatch_tracer
    if _tracer is not None:
        raise RuntimeError("a tracer is already installed")
    _tracer = tracer
    _dispatch_tracer = tracer if tracer.wants("dispatch") else None
    if tracer.wants("perf"):
        perf.set_counter_observer(_perf_bridge)
    return tracer


def uninstall():
    """Remove the installed tracer (no-op when tracing is off)."""
    global _tracer, _dispatch_tracer
    _tracer = None
    _dispatch_tracer = None
    perf.set_counter_observer(None)


@contextmanager
def tracing(out=None, buffer_size=DEFAULT_BUFFER_SIZE, clock=None,
            tracer=None, categories=None, sample_seed=0):
    """Enable tracing for a ``with`` block.

    Installs ``tracer`` (or a fresh one with ``buffer_size``, the
    optional VirtualClock ``clock``, and the ``categories`` /
    ``sample_seed`` emit-guard configuration — see
    :class:`~repro.telemetry.tracer.Tracer`), uninstalls it on exit,
    and — when ``out`` is given — writes the Chrome trace JSON there.
    Yields the tracer.
    """
    active = tracer if tracer is not None else Tracer(
        buffer_size=buffer_size, clock=clock, categories=categories,
        sample_seed=sample_seed)
    install(active)
    try:
        yield active
    finally:
        uninstall()
        if out is not None:
            write_trace(out, active)


__all__ = [
    "CHAOS_TRACK",
    "COUNTERS_TRACK",
    "DEFAULT_BUFFER_SIZE",
    "LOCATOR_TRACK",
    "NET_TRACK",
    "PRODUCTION_CATEGORIES",
    "PackedRingBuffer",
    "RECORDER_TRACK",
    "SESSION_TRACK",
    "Sampler",
    "StringTable",
    "TraceEvent",
    "TraceMerger",
    "Tracer",
    "TracingNarrator",
    "TrackRegistry",
    "current",
    "dumps",
    "enabled",
    "install",
    "parse_category_spec",
    "resolve_categories",
    "to_trace_dict",
    "to_trace_dict_raw",
    "trace_summary",
    "tracer_to_dict",
    "tracing",
    "uninstall",
    "write_trace",
    "write_trace_dict",
]

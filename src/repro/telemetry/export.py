"""Chrome trace-event JSON export and trace summarization.

The exported object is the JSON-object trace format::

    {"traceEvents": [...], "displayTimeUnit": "ms", "otherData": {...}}

which catapult's trace_viewer (``chrome://tracing``) and Perfetto load
directly. Track-naming ``M`` metadata events from the tracer's
:class:`~repro.telemetry.tracks.TrackRegistry` are prepended so every
slice — including the per-trace slices the batch runner writes — is
self-describing.
"""

import json

from repro.telemetry.events import (
    PHASE_BEGIN,
    PHASE_COMPLETE,
    PHASE_COUNTER,
    PHASE_END,
    PHASE_INSTANT,
    PHASE_METADATA,
)


def _other_data(dropped, total):
    """The ``otherData`` block: producer plus ring-buffer counters.

    ``events_total`` counts every event the producing tracer ever
    recorded (mirroring the net layer's ``ExchangeLog`` ring), so a
    truncated trace is detectable from the file alone:
    ``dropped_events`` present (and nonzero) means the oldest
    ``dropped_events`` of ``events_total`` were overwritten.
    """
    data = {"producer": "repro.telemetry"}
    if total is not None:
        data["events_total"] = total
    if dropped:
        data["dropped_events"] = dropped
    return data


def to_trace_dict(events, metadata=(), dropped=0, total=None):
    """Assemble the exportable trace object from event sequences."""
    trace_events = [event.to_dict() for event in metadata]
    trace_events.extend(event.to_dict() for event in events)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": _other_data(dropped, total),
    }


def to_trace_dict_raw(event_dicts, metadata=(), dropped=0, total=None):
    """Assemble the trace object from *already-exported* event dicts.

    The worker-pool merge path operates on dicts (workers ship decoded
    ``TraceEvent.to_dict()`` output across the process boundary), so
    this variant skips the object-to-dict conversion.
    """
    return {
        "traceEvents": list(metadata) + list(event_dicts),
        "displayTimeUnit": "ms",
        "otherData": _other_data(dropped, total),
    }


def tracer_to_dict(tracer):
    """Trace object for every event ``tracer`` still holds.

    The ``otherData`` counters are the tracer's lifetime totals: they
    answer "is this file missing anything the tracer saw".
    """
    return to_trace_dict(list(tracer.buffer),
                         metadata=tracer.registry.metadata_events,
                         dropped=tracer.buffer.dropped,
                         total=tracer.buffer.total)


def dumps(tracer):
    """The trace as a JSON string."""
    return json.dumps(tracer_to_dict(tracer))


def write_trace(path, tracer):
    """Write the trace JSON to ``path``; returns the path."""
    return write_trace_dict(path, tracer_to_dict(tracer))


def write_trace_dict(path, trace_dict):
    """Write an assembled trace object to ``path``; returns the path."""
    with open(path, "w") as handle:
        json.dump(trace_dict, handle)
        handle.write("\n")
    return path


def trace_summary(trace_dict, top=5):
    """Human-readable lines summarizing an exported trace object.

    Counts events by category, and lists the ``top`` longest complete
    spans — the quick who-is-slow view ``repro replay --trace-out`` prints.
    """
    events = trace_dict["traceEvents"]
    by_category = {}
    spans = []
    counters = 0
    instants = 0
    opens = 0
    for event in events:
        ph = event.get("ph")
        if ph == PHASE_METADATA:
            continue
        by_category[event.get("cat", "?")] = (
            by_category.get(event.get("cat", "?"), 0) + 1)
        if ph == PHASE_COMPLETE:
            spans.append(event)
        elif ph == PHASE_COUNTER:
            counters += 1
        elif ph == PHASE_INSTANT:
            instants += 1
        elif ph in (PHASE_BEGIN, PHASE_END):
            opens += 1
    lines = ["%d trace event(s): %d span(s), %d begin/end, %d instant(s), "
             "%d counter sample(s)"
             % (len(events), len(spans), opens, instants, counters)]
    for category in sorted(by_category):
        lines.append("  %-10s %d" % (category, by_category[category]))
    other = trace_dict.get("otherData", {})
    total = other.get("events_total")
    dropped = other.get("dropped_events", 0)
    if total is not None:
        lines.append("ring buffer: %d event(s) recorded, %d dropped"
                     % (total, dropped))
    if dropped:
        lines.append("  WARNING: trace is TRUNCATED — the oldest %d "
                     "event(s) were overwritten" % dropped)
    spans.sort(key=lambda event: event.get("dur", 0.0), reverse=True)
    if spans:
        lines.append("longest spans:")
        for event in spans[:top]:
            lines.append("  %-24s %10.1f us  (pid %s tid %s)"
                         % (event["name"], event.get("dur", 0.0),
                            event["pid"], event["tid"]))
    return lines

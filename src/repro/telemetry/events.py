"""Trace events: the decoded form of the tracer's packed records.

The event model is the Chrome trace-event format (the interchange
format of catapult's trace_viewer and Perfetto): every event carries a
``name``, a phase ``ph``, a microsecond timestamp ``ts``, and the
``pid``/``tid`` of the track it renders on. The phases this tracer
emits:

====  =======================================================
``X``  complete event (a span with an explicit ``dur``)
``B``  duration-begin (paired with the next ``E`` on its tid)
``E``  duration-end
``b``  async-begin (paired by ``cat``+``id``; may overlap spans)
``e``  async-end
``i``  instant event
``C``  counter event (``args`` holds the series values)
``M``  metadata (process/thread names and sort indexes)
====  =======================================================

Async events model durations that cross threads or overlap freely —
IPC queue residency begins on the browser side and ends when the
renderer picks the message up, so it cannot be a synchronous span on
either thread's stack.

Events are recorded into a bounded packed ring
(:class:`~repro.telemetry.packed.PackedRingBuffer`) so an always-on
tracer is bounded: when the buffer fills, the oldest events are dropped
and the drop count is reported in the exported file's ``otherData``.
:class:`TraceEvent` is what that ring decodes to at export.
"""

#: Phase constants (Chrome trace-event ``ph`` values).
PHASE_COMPLETE = "X"
PHASE_BEGIN = "B"
PHASE_END = "E"
PHASE_ASYNC_BEGIN = "b"
PHASE_ASYNC_END = "e"
PHASE_INSTANT = "i"
PHASE_COUNTER = "C"
PHASE_METADATA = "M"

KNOWN_PHASES = frozenset(
    [PHASE_COMPLETE, PHASE_BEGIN, PHASE_END, PHASE_ASYNC_BEGIN,
     PHASE_ASYNC_END, PHASE_INSTANT, PHASE_COUNTER, PHASE_METADATA]
)

#: Default ring-buffer capacity (events).
DEFAULT_BUFFER_SIZE = 65536


class TraceEvent:
    """One Chrome trace event."""

    __slots__ = ("name", "ph", "ts", "pid", "tid", "dur", "cat", "args",
                 "id")

    def __init__(self, name, ph, ts, pid, tid, dur=None, cat=None, args=None,
                 id=None):
        self.name = name
        self.ph = ph
        self.ts = ts
        self.pid = pid
        self.tid = tid
        self.dur = dur
        self.cat = cat
        self.args = args
        #: Async pairing id (``b``/``e`` events match on cat + id).
        self.id = id

    def to_dict(self):
        """The JSON-serializable Chrome trace-event dict."""
        data = {
            "name": self.name,
            "ph": self.ph,
            "ts": round(self.ts, 3),
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.dur is not None:
            data["dur"] = round(self.dur, 3)
        if self.cat is not None:
            data["cat"] = self.cat
        if self.args is not None:
            data["args"] = self.args
        if self.id is not None:
            data["id"] = self.id
        if self.ph == PHASE_INSTANT:
            # Thread-scoped instants render as ticks on their tid track.
            data["s"] = "t"
        return data

    def __repr__(self):
        return "TraceEvent(%s %r ts=%.1f pid=%d tid=%d)" % (
            self.ph, self.name, self.ts, self.pid, self.tid,
        )

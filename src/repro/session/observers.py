"""Stock observers of the session event stream.

The :class:`~repro.session.report.ReplayReport` is not one of them:
:class:`~repro.session.engine.SessionRun` writes it directly and
updates it before emitting the event that narrates each change.

- :class:`PerfCountersObserver` aggregates fast-path cache activity
  across many sessions (the batch runner attaches one);
- :class:`EventLogObserver` records the raw stream, for tests and
  debugging.

Tool-specific observers live with their tools: WebErr's oracle adapter
in :mod:`repro.weberr.oracle`, AUsER's snapshotter in
:mod:`repro.auser.snapshot`, replay-fidelity scoring in
:mod:`repro.baselines.fidelity`.
"""

from repro.session.events import SessionObserver


class PerfCountersObserver(SessionObserver):
    """Accumulates per-cache hit/miss totals across sessions.

    One instance aggregates *in-process* sessions only. Instances must
    never be shared across processes — the counters live in ordinary
    process memory, so a worker mutating a pickled copy would silently
    diverge from the parent's. The observer refuses to pickle; pooled
    batch replay instead ships each session's counter *summary* back to
    the parent and combines them with :meth:`merge`.
    """

    def __init__(self):
        #: {cache: {"hits": h, "misses": m}} summed over every session.
        self.totals = {}
        self.sessions = 0

    def on_perf_delta(self, event):
        self.sessions += 1
        for name, counts in event.data["counters"].items():
            bucket = self.totals.setdefault(name, {"hits": 0, "misses": 0})
            bucket["hits"] += counts["hits"]
            bucket["misses"] += counts["misses"]

    def summary(self):
        """{cache: {"hits", "misses", "hit_rate"}} over all sessions."""
        return self.merge([self.totals])

    @classmethod
    def merge(cls, summaries):
        """Combine counter summaries into one (the parent-side merge).

        ``summaries`` is an iterable of ``{cache: {"hits", "misses",
        ...}}`` mappings — per-session deltas, per-worker totals, or
        prior :meth:`merge`/:meth:`summary` outputs. Hits and misses
        sum per cache; ``hit_rate`` is recomputed over the combined
        totals (never averaged across sessions or workers).
        """
        totals = {}
        for summary in summaries:
            for name, counts in summary.items():
                bucket = totals.setdefault(name, {"hits": 0, "misses": 0})
                bucket["hits"] += counts["hits"]
                bucket["misses"] += counts["misses"]
        result = {}
        for name, counts in totals.items():
            total = counts["hits"] + counts["misses"]
            result[name] = {
                "hits": counts["hits"],
                "misses": counts["misses"],
                "hit_rate": counts["hits"] / total if total else None,
            }
        return result

    def __reduce__(self):
        raise TypeError(
            "PerfCountersObserver must not cross process boundaries: a "
            "pickled copy would accumulate counters invisible to the "
            "parent. Ship counter summaries instead and combine them "
            "with PerfCountersObserver.merge().")


class EventLogObserver(SessionObserver):
    """Keeps every event (optionally filtered by kind)."""

    def __init__(self, kinds=None):
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.events = []

    def on_event(self, event):
        if self.kinds is None or event.kind in self.kinds:
            self.events.append(event)

    def kinds_seen(self):
        return [event.kind for event in self.events]

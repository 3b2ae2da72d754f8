"""Perf-counter totals across sessions.

Each :class:`~repro.session.report.ReplayReport` carries its session's
fast-path counter delta (``perf_counters``); the batch runner and the
benchmark harness sum those with :meth:`PerfCountersObserver.merge`.
"""


class PerfCountersObserver:
    """Combines per-cache hit/miss summaries (the parent-side merge)."""

    @classmethod
    def merge(cls, summaries):
        """Combine counter summaries into one.

        ``summaries`` is an iterable of ``{cache: {"hits", "misses",
        ...}}`` mappings — per-session deltas, per-worker totals, or
        prior :meth:`merge` outputs. Hits and misses sum per cache;
        ``hit_rate`` is recomputed over the combined totals (never
        averaged across sessions or workers).
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

"""Replay fast-path instrumentation and the global cache toggle.

The fast path (compiled-XPath cache, generation-invalidated DOM
indexes, memoized relaxation and locator generation, dirty-tracked
layout, per-markup page templates) is always on in production. For
benchmarking — and for proving cached and uncached replays behave
identically — it can be switched off as a whole with
:func:`set_fast_path` or the :func:`fast_path` context manager, which
reverts every call site to the original eager code path.

Every cache records hits and misses here under a dotted name
(``xpath.compile``, ``xpath.generate``, ``dom.index``, ``dom.parse``,
``relax.candidates``, ``relax.resolve``, ``layout``). The replayer
snapshots the counters around a replay and attaches the delta to its
report, so cache effectiveness is visible per trace.
"""

from collections import defaultdict
from contextlib import contextmanager

_enabled = True

#: Callbacks that drop module-level cache contents (registered by the
#: XPath and HTML parsers and the relaxation engine); run when the fast
#: path is toggled so measurements never see a half-warm cache.
_cache_clearers = []


class PerfStats:
    """Hit/miss counters keyed by cache name.

    ``hits`` and ``misses`` read 0 for a name never counted, so a count
    is one in-place increment: :func:`record` makes it, and a cache hit
    on the per-command path may make it itself, ``stats.hits[name] +=
    1``, when no counter observer is installed.
    """

    def __init__(self):
        self.hits = defaultdict(int)
        self.misses = defaultdict(int)

    def counter(self, name):
        """(hits, misses) for one cache (zeros if never touched)."""
        return (self.hits.get(name, 0), self.misses.get(name, 0))

    def snapshot(self):
        """Plain {name: (hits, misses)} copy of the current counters."""
        names = set(self.hits) | set(self.misses)
        return {name: self.counter(name) for name in names}

    def reset(self):
        self.hits.clear()
        self.misses.clear()


#: The process-wide stats instance every cache reports into.
stats = PerfStats()


#: Optional hook called as ``hook(name, hits, misses)`` after every
#: record; :mod:`repro.telemetry` installs one to mirror counter
#: activity into trace counter events. None (the default) costs
#: :func:`record` a single guard check.
_counter_observer = None


def set_counter_observer(hook):
    """Install (or clear, with None) the per-record counter hook."""
    global _counter_observer
    _counter_observer = hook


def record(name, hit):
    """Count one hit (``hit=True``) or miss on the named cache."""
    (stats.hits if hit else stats.misses)[name] += 1
    if _counter_observer is not None:
        hits, misses = stats.counter(name)
        _counter_observer(name, hits, misses)


def snapshot():
    """Current process-wide counters as {name: (hits, misses)}."""
    return stats.snapshot()


def reset():
    """Zero all counters (cache contents are untouched)."""
    stats.reset()


def delta(before):
    """Counters accumulated since ``before`` (a :func:`snapshot`).

    Returns {name: {"hits": h, "misses": m, "hit_rate": r}} with
    zero-activity caches dropped — a cache appears only when it saw at
    least one hit or miss since ``before``, so ``hit_rate`` is always a
    float in [0, 1], never None.
    """
    result = {}
    for name, (hits, misses) in snapshot().items():
        base_hits, base_misses = before.get(name, (0, 0))
        hits -= base_hits
        misses -= base_misses
        total = hits + misses
        if total == 0:
            continue
        result[name] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total,
        }
    return result


def register_cache_clearer(clear):
    """Register a callback that empties one module-level cache."""
    _cache_clearers.append(clear)
    return clear


def clear_caches():
    """Empty every registered module-level cache."""
    for clear in _cache_clearers:
        clear()


def fast_path_enabled():
    """True when the caches and lazy paths are active (the default)."""
    return _enabled


def set_fast_path(enabled):
    """Globally enable/disable the fast path; clears caches on change."""
    global _enabled
    enabled = bool(enabled)
    if enabled != _enabled:
        _enabled = enabled
        clear_caches()


@contextmanager
def fast_path(enabled):
    """Temporarily force the fast path on or off (restores on exit)."""
    previous = _enabled
    set_fast_path(enabled)
    try:
        yield
    finally:
        set_fast_path(previous)

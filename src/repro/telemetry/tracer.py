"""The process-wide tracer.

One :class:`Tracer` records every instrumented boundary into a bounded
packed binary ring (:class:`~repro.telemetry.packed.PackedRingBuffer`),
so an emission is interning plus one ``pack_into``, not object
construction. Timestamps are wall-clock microseconds (``perf_counter``)
relative to the tracer's start, matching the Chrome trace-event ``ts``
convention; when a :class:`~repro.util.clock.VirtualClock` is attached
(:attr:`Tracer.clock`), every event additionally carries the virtual
time (``vt_ms`` in its exported ``args``), so the simulated timeline
and the real one can be correlated in the viewer.

Three mechanisms keep the always-on cost flat:

- **category filtering** — ``categories=`` compiles down to one dict
  lookup per emit: a disabled category's state is ``False`` and the
  emit returns before touching the clock or the buffer. Call sites
  with non-trivial argument setup ask :meth:`Tracer.wants` first.
- **deterministic sampling** — a ``name:rate`` term in the
  ``categories=`` spec (``"session,dispatch:0.1"``) drives a seeded
  per-category :class:`~repro.telemetry.packed.Sampler`
  (``sample_seed=``). Only *leaf* phases are sampled (``X``/``i``/
  ``C``); begin/end and async pairs always record, so sampling can
  never unbalance the span structure.
- **interning and memoization** — names and categories become
  small-int table ids; track objects resolve through
  ``registry.for_object`` once and hit a per-tracer memo after that.

Args dicts are stashed by reference and materialized only at export:
ownership transfers to the tracer on emit (don't mutate a dict after
passing it), the caller's dict itself is never mutated, and callable
arg values are invoked at decode time — pass a bound method to defer
an expensive string encoding.

Call sites keep the tracing-off cost to a guard check by fetching the
installed tracer once (``telemetry.current()``) and doing nothing when
it is ``None``; the emit methods here are only ever reached with
tracing on.
"""

import time
from time import perf_counter as _perf_counter

from repro.telemetry.events import DEFAULT_BUFFER_SIZE
from repro.telemetry.packed import (
    PH_ASYNC_BEGIN,
    PH_ASYNC_END,
    PH_BEGIN,
    PH_COMPLETE,
    PH_COUNTER,
    PH_END,
    PH_INSTANT,
    PackedRingBuffer,
    Sampler,
)
from repro.telemetry.tracks import SESSION_TRACK, TrackRegistry

#: The category set a production replay farm leaves on: the session
#: narrative, network tape activity, chaos injections, and recorder
#: output — no per-dispatch, per-IPC-message, or per-cache-delta
#: events. ``categories="production"`` selects it.
PRODUCTION_CATEGORIES = frozenset(
    {"session", "net", "chaos", "recorder"})


def resolve_categories(spec):
    """Normalize a ``categories=`` spec to None (all) or a frozenset.

    Accepts ``None``/``"all"`` (everything), ``"production"``
    (:data:`PRODUCTION_CATEGORIES`), a comma-separated string — in
    which the names ``all``/``production`` expand in place, so
    ``"production,dispatch"`` is the production set plus dispatch —
    or any iterable of category names.
    """
    if spec is None or spec == "all":
        return None
    if isinstance(spec, str):
        names = {part.strip() for part in spec.split(",") if part.strip()}
    else:
        names = set(spec)
    if "all" in names:
        return None
    if "production" in names:
        names.discard("production")
        names.update(PRODUCTION_CATEGORIES)
    return frozenset(names)


def parse_category_spec(spec):
    """Split a ``categories=`` spec into ``(categories, sample rates)``.

    In a string spec, any comma-separated term may carry a
    deterministic sampling rate as ``name:rate`` — e.g.
    ``"session,dispatch:0.1"`` enables both categories and keeps ~10%
    of dispatch's discrete events (seeded, so the same seed keeps the
    same events). Rates attach to concrete category names, not to the
    ``all``/``production`` aliases. Non-string specs and specs without
    rates pass through with empty rates.
    """
    rates = {}
    if isinstance(spec, str) and ":" in spec:
        names = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, rate = part.partition(":")
            name = name.strip()
            if sep:
                rates[name] = float(rate)
            names.append(name)
        spec = ",".join(names) if names else None
    return resolve_categories(spec), rates


class _Span:
    """Context manager emitting one complete (``X``) event on exit.

    Entering yields the event's ``args`` dict so the body can attach
    results computed inside the span (box counts, match counts, ...).
    """

    __slots__ = ("_tracer", "_name", "_track", "_cat", "_args", "_start")

    def __init__(self, tracer, name, track, cat, args):
        self._tracer = tracer
        self._name = name
        self._track = track
        self._cat = cat
        self._args = args if args is not None else {}
        self._start = 0.0

    def __enter__(self):
        self._start = self._tracer.now_us()
        return self._args

    def __exit__(self, exc_type, exc_value, traceback):
        self._tracer.complete(self._name, self._start, track=self._track,
                              cat=self._cat, args=self._args)
        return False


class Tracer:
    """Records trace events into a bounded packed ring buffer.

    Events are fixed-width binary records, decoded only at export.
    ``categories`` is a spec for :func:`parse_category_spec`; its
    ``name:rate`` terms sample those categories, seeded by
    ``sample_seed``.
    """

    def __init__(self, buffer_size=DEFAULT_BUFFER_SIZE, clock=None,
                 registry=None, origin=None, categories=None,
                 sample_seed=0):
        self.buffer = PackedRingBuffer(buffer_size)
        self.registry = registry if registry is not None else TrackRegistry()
        #: Optional VirtualClock stamped into every event's args. The
        #: batch runner repoints this per run (one clock per browser).
        self.clock = clock
        self._origin = time.perf_counter() if origin is None else origin
        #: None means every category records; a frozenset enables only
        #: its members (events with no category always record).
        self.categories, self._rates = parse_category_spec(categories)
        self.sample_seed = int(sample_seed)
        #: cat -> False (disabled) | (sampler_or_None, cat_id).
        self._cat_state = {}
        #: id(track object) -> (pid, tid); pins keep the ids stable.
        self._tracks = {}
        self._track_pins = []

    # -- time ---------------------------------------------------------------

    def now_us(self):
        """Wall-clock microseconds since the tracer started."""
        return (time.perf_counter() - self._origin) * 1e6

    def to_us(self, perf_counter_seconds):
        """Convert an absolute ``perf_counter()`` reading to trace time."""
        return (perf_counter_seconds - self._origin) * 1e6

    # -- the emit guard ------------------------------------------------------

    def wants(self, cat):
        """True when ``cat`` records; THE pre-check for guarded sites.

        One dict lookup after the first call per category. Call sites
        that do any work to assemble an event (args dicts, ids,
        formatted names) gate on this so a disabled category costs
        nothing but the check.
        """
        state = self._cat_state.get(cat)
        if state is None:
            state = self._resolve_cat(cat)
        return state is not False

    def _resolve_cat(self, cat):
        """Compile and memoize the emit-guard state for one category."""
        cats = self.categories
        if cats is not None and cat is not None and cat not in cats:
            state = False
        else:
            rate = self._rates.get(cat)
            sampler = (Sampler(cat, rate, self.sample_seed)
                       if rate is not None and rate < 1.0 else None)
            cat_id = self.buffer.cats.intern(cat) if cat is not None else None
            state = (sampler, cat_id)
        self._cat_state[cat] = state
        return state

    # -- emission -----------------------------------------------------------

    def _track(self, track):
        """Memoized ``registry.for_object`` (the hot-path bypass)."""
        key = id(track)
        entry = self._tracks.get(key)
        if entry is None:
            entry = self.registry.for_object(track)
            self._tracks[key] = entry
            self._track_pins.append(track)
        return entry

    # The emit body is deliberately flattened into the hot public
    # methods (begin/end/complete/instant): at ~1 us per event, every
    # spare call frame on this path is measurable. The colder
    # async/counter methods share _emit.

    def _emit(self, name, ph, track, state, args, event_id):
        if track is None:
            pid, tid = SESSION_TRACK
        elif type(track) is tuple:
            pid, tid = track
        else:
            pid, tid = self._track(track)
        clock = self.clock
        self.buffer.append(ph, name, state[1], pid, tid,
                           (_perf_counter() - self._origin) * 1e6, None,
                           clock.now() if clock is not None else None,
                           args, event_id)
        return None

    def begin(self, name, track=None, cat=None, args=None):
        """Open a duration (``B``) span on the track; pair with end()."""
        state = self._cat_state.get(cat)
        if state is None:
            state = self._resolve_cat(cat)
        if state is False:
            return None
        if track is None:
            pid, tid = SESSION_TRACK
        elif type(track) is tuple:
            pid, tid = track
        else:
            pid, tid = self._track(track)
        clock = self.clock
        self.buffer.append(PH_BEGIN, name, state[1], pid, tid,
                           (_perf_counter() - self._origin) * 1e6, None,
                           clock.now() if clock is not None else None,
                           args, None)
        return None

    def end(self, name="", track=None, cat=None, args=None):
        """Close the innermost open ``B`` span on the track."""
        state = self._cat_state.get(cat)
        if state is None:
            state = self._resolve_cat(cat)
        if state is False:
            return None
        if track is None:
            pid, tid = SESSION_TRACK
        elif type(track) is tuple:
            pid, tid = track
        else:
            pid, tid = self._track(track)
        clock = self.clock
        self.buffer.append(PH_END, name, state[1], pid, tid,
                           (_perf_counter() - self._origin) * 1e6, None,
                           clock.now() if clock is not None else None,
                           args, None)
        return None

    def complete(self, name, start_us, track=None, cat=None, args=None,
                 end_us=None):
        """Record a complete (``X``) span started at ``start_us``."""
        state = self._cat_state.get(cat)
        if state is None:
            state = self._resolve_cat(cat)
        if state is False:
            return None
        sampler = state[0]
        if sampler is not None and not sampler.keep():
            return None
        if end_us is None:
            end_us = (_perf_counter() - self._origin) * 1e6
        dur = end_us - start_us
        if dur < 0.0:
            dur = 0.0
        if track is None:
            pid, tid = SESSION_TRACK
        elif type(track) is tuple:
            pid, tid = track
        else:
            pid, tid = self._track(track)
        clock = self.clock
        self.buffer.append(PH_COMPLETE, name, state[1], pid, tid, start_us,
                           dur, clock.now() if clock is not None else None,
                           args, None)
        return None

    def complete_between(self, name, start_perf_counter, track=None,
                         cat=None, args=None):
        """``X`` span from an absolute ``perf_counter()`` start to now."""
        return self.complete(name, self.to_us(start_perf_counter),
                             track=track, cat=cat, args=args)

    def async_begin(self, name, event_id, track=None, cat=None, args=None):
        """Open an async (``b``) span; pair with async_end on cat + id.

        Async spans may overlap sync spans and each other freely — they
        model durations that cross threads, like IPC queue residency.
        """
        state = self._cat_state.get(cat)
        if state is None:
            state = self._resolve_cat(cat)
        if state is False:
            return None
        return self._emit(name, PH_ASYNC_BEGIN, track, state, args,
                          event_id)

    def async_end(self, name, event_id, track=None, cat=None, args=None):
        """Close the async span opened with the same cat + id."""
        state = self._cat_state.get(cat)
        if state is None:
            state = self._resolve_cat(cat)
        if state is False:
            return None
        return self._emit(name, PH_ASYNC_END, track, state, args, event_id)

    def instant(self, name, track=None, cat=None, args=None):
        """A zero-duration tick on the track."""
        state = self._cat_state.get(cat)
        if state is None:
            state = self._resolve_cat(cat)
        if state is False:
            return None
        sampler = state[0]
        if sampler is not None and not sampler.keep():
            return None
        if track is None:
            pid, tid = SESSION_TRACK
        elif type(track) is tuple:
            pid, tid = track
        else:
            pid, tid = self._track(track)
        clock = self.clock
        self.buffer.append(PH_INSTANT, name, state[1], pid, tid,
                           (_perf_counter() - self._origin) * 1e6, None,
                           clock.now() if clock is not None else None,
                           args, None)
        return None

    def counter(self, name, values, track=None, cat=None):
        """A counter (``C``) sample; ``values`` maps series to numbers."""
        state = self._cat_state.get(cat)
        if state is None:
            state = self._resolve_cat(cat)
        if state is False:
            return None
        sampler = state[0]
        if sampler is not None and not sampler.keep():
            return None
        return self._emit(name, PH_COUNTER, track, state, dict(values),
                          None)

    def span(self, name, track=None, cat=None, args=None):
        """Context manager recording the body as an ``X`` event."""
        return _Span(self, name, track, cat, args)

    # -- buffer slicing (per-trace exports in a batch) ----------------------

    def mark(self):
        """Opaque position marker for :meth:`events_since`."""
        return self.buffer.total

    def events_since(self, mark):
        """Events recorded after ``mark`` still held by the buffer."""
        return self.buffer.since(mark)

    def wire_slice(self, mark):
        """Packed, picklable events-since-``mark`` for the pool wire."""
        return self.buffer.wire_slice(mark)

    def __repr__(self):
        return "Tracer(%r)" % (self.buffer,)

"""Packed binary event storage: the tracing hot path's data plane.

Chrome's trace infrastructure stays cheap enough to leave on in
production by never building an event *object* on the hot path: an
emission is a handful of integer writes into a preallocated buffer,
and the human-readable Chrome trace-event dicts are reconstructed only
at export time. This module is that treatment for ``repro.telemetry``:

- :class:`PackedRingBuffer` — fixed-width 48-byte records packed into
  one preallocated ``bytearray`` (overwrite-oldest, ``total``/
  ``dropped`` counters), with a parallel slot array holding each
  record's ``args`` payload by reference;
- :class:`StringTable` — event names, categories, and non-integer
  async ids are interned to small ints at emit time and resolved back
  to strings only at decode;
- :class:`Sampler` — a deterministic per-category LCG keep/drop
  stream, seeded from ``crc32(category) ^ seed`` so the same seed
  keeps the same event set in every process (Python's ``hash()`` is
  randomized per process and must not be used here);
- a portable wire encoding (:meth:`PackedRingBuffer.wire_slice` /
  :func:`decode_wire_slice`) so pool workers ship raw record bytes
  plus their intern tables across the process boundary instead of one
  dict per event.

Record layout (``struct`` format ``=BBHIIIqqdq``, 48 bytes)::

    ph      u8   phase code (index into PHASE_CHARS)
    flags   u8   which optional fields are present (F_* bits)
    cat     u16  interned category id
    name    u32  interned name id
    pid     u32  track process id
    tid     u32  track thread id
    ts      i64  timestamp, integer nanoseconds
    dur     i64  duration, integer nanoseconds (F_DUR)
    vt      f64  virtual-clock milliseconds, raw (F_VT)
    id      i64  async pairing id (F_ID; interned string if F_STR_ID)

``ts``/``dur`` quantize the tracer's float microseconds to integer
nanoseconds — exactly the precision the exporter keeps anyway (it
rounds to 3 decimal places of a microsecond). ``args`` payloads are
stashed *by reference* (ownership passes to the buffer; emit never
copies) as either a dict — whose callable values are called only at
decode, so deferred encodings like a command's ``to_line`` bound
method cost nothing unless the event is actually exported — or an
encoder tuple ``(encoder, *payload)`` expanded to the full dict by
:func:`materialize_args` at decode.
"""

from struct import Struct

from zlib import crc32

from repro.telemetry.events import TraceEvent

#: Phase codes <-> Chrome ``ph`` characters, by index.
PHASE_CHARS = "XBEbeiCM"
PH_COMPLETE = 0
PH_BEGIN = 1
PH_END = 2
PH_ASYNC_BEGIN = 3
PH_ASYNC_END = 4
PH_INSTANT = 5
PH_COUNTER = 6
PH_METADATA = 7

#: Presence bits for the record's optional fields.
F_DUR = 0x01
F_CAT = 0x02
F_ARGS = 0x04
F_ID = 0x08
F_VT = 0x10
F_STR_ID = 0x20

RECORD = Struct("=BBHIIIqqdq")
RECORD_SIZE = RECORD.size

#: Records allocated up front. The backing store grows in-place (by
#: doubling, capped at ``capacity``) as records are appended, so a
#: tracer for a short run never pays for — or page-faults through — a
#: multi-megabyte allocation it won't fill. A 65536-record default
#: buffer is ~3 MB; allocating it eagerly cost more than an entire
#: short replay's tracing did.
SEGMENT_RECORDS = 1024

#: Version tag of the pool wire encoding (see :meth:`wire_slice`).
WIRE_TAG = "WTP1"


class WireSliceError(ValueError):
    """A packed telemetry wire slice is malformed: a bad tag or shape, a
    torn record block, or a record naming a phase, name, category or
    string id its intern tables do not hold."""


class StringTable:
    """Interns strings to dense small-int ids; decodes by index."""

    __slots__ = ("strings", "_ids")

    def __init__(self, strings=None):
        self.strings = list(strings) if strings is not None else []
        self._ids = {s: i for i, s in enumerate(self.strings)}

    def intern(self, string):
        table = self._ids
        index = table.get(string)
        if index is None:
            index = len(self.strings)
            table[string] = index
            self.strings.append(string)
        return index

    def __len__(self):
        return len(self.strings)

    def __getitem__(self, index):
        return self.strings[index]

    def __repr__(self):
        return "StringTable(%d)" % len(self.strings)


class Sampler:
    """Deterministic keep/drop stream for one sampled category.

    A 32-bit LCG (Numerical Recipes constants) advanced once per
    candidate event; the event is kept when the state falls below
    ``rate`` of the 32-bit range. Seeding mixes the category name via
    ``crc32`` with the caller's seed, so two processes replaying the
    same workload with the same seed keep the *same* events — the
    property the cross-process determinism test pins down.
    """

    __slots__ = ("rate", "_state", "_threshold")

    def __init__(self, category, rate, seed=0):
        self.rate = float(rate)
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("sampling rate must be within [0, 1]")
        self._state = (crc32(category.encode("utf-8"))
                       ^ ((seed * 0x9E3779B1) & 0xFFFFFFFF)) or 1
        self._threshold = int(self.rate * 4294967296.0)

    def keep(self):
        state = (self._state * 1664525 + 1013904223) & 0xFFFFFFFF
        self._state = state
        return state < self._threshold


def materialize_args(args, vt):
    """The export-time ``args`` dict for one record (always a copy).

    ``args`` is either a dict (callable values are invoked now —
    deferred encoding) or an encoder tuple ``(encoder, *payload)``
    whose encoder builds the whole dict at once — the cheapest shape a
    hot emitter can stash, one tuple instead of a dict per event. The
    packed virtual timestamp is merged in. The caller's payload is
    never mutated — the returned dict is fresh.
    """
    if args is not None:
        if type(args) is tuple:
            out = args[0](*args[1:])
        else:
            out = {key: (value() if callable(value) else value)
                   for key, value in args.items()}
    elif vt is not None:
        out = {}
    else:
        return None
    if vt is not None:
        out["vt_ms"] = vt
    return out


def _event_from_record(record, args, names, cats):
    """Rebuild one :class:`TraceEvent` from an unpacked record tuple."""
    ph, flags, cat_id, name_id, pid, tid, ts, dur, vt, event_id = record
    return TraceEvent(
        names[name_id], PHASE_CHARS[ph], ts / 1000.0, pid, tid,
        dur=(dur / 1000.0) if flags & F_DUR else None,
        cat=cats[cat_id] if flags & F_CAT else None,
        args=materialize_args(args if flags & F_ARGS else None,
                              vt if flags & F_VT else None),
        id=(names[event_id] if flags & F_STR_ID
            else event_id if flags & F_ID else None))


class PackedRingBuffer:
    """Bounded packed event storage; drops the oldest when full.

    API-compatible with the legacy object ring
    (:class:`~repro.telemetry.events.RingBuffer`): ``total`` counts
    every append ever made, ``dropped`` is what overwrite-oldest
    evicted, iteration and :meth:`since` yield decoded
    :class:`~repro.telemetry.events.TraceEvent` objects.
    """

    __slots__ = ("capacity", "names", "cats", "total", "_data", "_args",
                 "_alloc", "_pack", "_intern")

    def __init__(self, capacity, names=None, cats=None):
        if capacity < 1:
            raise ValueError("ring buffer needs capacity >= 1")
        self.capacity = capacity
        self.names = names if names is not None else StringTable()
        self.cats = cats if cats is not None else StringTable()
        self.total = 0
        self._alloc = capacity if capacity < SEGMENT_RECORDS else (
            SEGMENT_RECORDS)
        self._data = bytearray(self._alloc * RECORD_SIZE)
        self._args = [None] * self._alloc
        self._pack = RECORD.pack_into
        self._intern = self.names.intern

    # -- hot path ------------------------------------------------------------

    def append(self, ph, name, cat_id, pid, tid, ts_us, dur_us, vt_ms,
               args, event_id):
        """Pack one record; a few int ops and one ``pack_into``.

        ``cat_id`` is a pre-interned id (or None), ``ts_us``/``dur_us``
        are float microseconds, ``vt_ms`` the raw virtual-clock reading.
        ``args`` ownership transfers to the buffer — callers must not
        mutate the dict after emitting.
        """
        flags = 0
        if cat_id is None:
            cat_id = 0
        else:
            flags = F_CAT
        if dur_us is None:
            dur = 0
        else:
            dur = int(dur_us * 1000.0 + 0.5)
            flags |= F_DUR
        if vt_ms is None:
            vt_ms = 0.0
        else:
            flags |= F_VT
        if event_id is None:
            eid = 0
        elif type(event_id) is int:
            eid = event_id
            flags |= F_ID
        else:
            eid = self._intern(str(event_id))
            flags |= F_ID | F_STR_ID
        if args is not None:
            flags |= F_ARGS
        total = self.total
        slot = total % self.capacity
        if slot >= self._alloc:
            self._grow(slot + 1)
        self._args[slot] = args
        self._pack(self._data, slot * RECORD_SIZE, ph, flags, cat_id,
                   self._intern(name), pid, tid,
                   int(ts_us * 1000.0 + 0.5), dur, vt_ms, eid)
        self.total = total + 1

    def append_raw(self, ph, flags, cat_id, name_id, pid, tid, ts_ns,
                   dur_ns, vt_ms, args):
        """Pre-compiled append: the emitter already did the thinking.

        The caller supplies a complete ``flags`` byte, interned ids,
        and integer-nanosecond timestamps, so this is just the slot
        bookkeeping and one ``pack_into`` — the shape the observer's
        per-command fast path compiles down to. No ``F_ID`` payloads
        (the id field packs as 0).
        """
        total = self.total
        slot = total % self.capacity
        if slot >= self._alloc:
            self._grow(slot + 1)
        self._args[slot] = args
        self._pack(self._data, slot * RECORD_SIZE, ph, flags, cat_id,
                   name_id, pid, tid, ts_ns, dur_ns, vt_ms, 0)
        self.total = total + 1

    def _grow(self, needed):
        """Extend the backing store (record slots double up to capacity).

        The ring only wraps once ``total`` reaches ``capacity``, and the
        store is always grown before a slot past ``_alloc`` is written,
        so by the time wrapping starts the store is fully allocated.
        """
        alloc = self._alloc * 2
        if alloc < needed:
            alloc = needed
        if alloc > self.capacity:
            alloc = self.capacity
        self._data.extend(bytes((alloc - self._alloc) * RECORD_SIZE))
        self._args.extend([None] * (alloc - self._alloc))
        self._alloc = alloc

    # -- counters ------------------------------------------------------------

    @property
    def dropped(self):
        """How many events were overwritten to keep the buffer bounded."""
        extra = self.total - self.capacity
        return extra if extra > 0 else 0

    def __len__(self):
        return self.total if self.total < self.capacity else self.capacity

    # -- decode (export-time only) -------------------------------------------

    def _decode_range(self, start, stop):
        data = self._data
        arg_slots = self._args
        names = self.names.strings
        cats = self.cats.strings
        unpack = RECORD.unpack_from
        events = []
        for index in range(start, stop):
            slot = index % self.capacity
            events.append(_event_from_record(
                unpack(data, slot * RECORD_SIZE), arg_slots[slot],
                names, cats))
        return events

    def since(self, mark):
        """Decoded events appended after ``mark`` (a prior ``total``).

        Records already overwritten are silently absent from the slice.
        """
        start = self.total - len(self)
        if mark > start:
            start = mark
        return self._decode_range(start, self.total)

    def __iter__(self):
        return iter(self._decode_range(self.total - len(self), self.total))

    # -- the pool wire -------------------------------------------------------

    def wire_slice(self, mark):
        """A picklable slice of raw records for the worker-pool wire.

        Returns ``(WIRE_TAG, record_bytes, args_list, names, cats)``:
        the packed bytes of every live record after ``mark``, a
        parallel list of materialized args dicts (callables resolved
        worker-side, where their objects are still alive), and
        snapshots of the intern tables. Decode with
        :func:`decode_wire_slice`; :class:`TraceMerger` remaps pids on
        the decoded events exactly as it does for dict slices.
        """
        start = self.total - len(self)
        if mark > start:
            start = mark
        count = self.total - start
        data = self._data
        if count <= 0:
            chunk = b""
        else:
            first = (start % self.capacity) * RECORD_SIZE
            end = first + count * RECORD_SIZE
            limit = self.capacity * RECORD_SIZE
            if end <= limit:
                chunk = bytes(data[first:end])
            else:
                chunk = bytes(data[first:limit]) + bytes(data[:end - limit])
        args_out = []
        for index in range(start, self.total):
            args_out.append(materialize_args(
                self._args[index % self.capacity], None))
        return (WIRE_TAG, chunk, args_out,
                list(self.names.strings), list(self.cats.strings))

    def __repr__(self):
        return "PackedRingBuffer(%d/%d, %d dropped)" % (
            len(self), self.capacity, self.dropped)


def is_wire_slice(events):
    """True when ``events`` is a packed wire slice, not a dict list."""
    return (type(events) is tuple and len(events) == 5
            and events[0] == WIRE_TAG)


def decode_wire_slice(slice_tuple):
    """Decode a :meth:`PackedRingBuffer.wire_slice` back into events.

    The slice crossed a process boundary, so every reference a record
    makes is checked before it is followed; anything malformed raises
    :class:`WireSliceError`.
    """
    if not is_wire_slice(slice_tuple):
        raise WireSliceError("not a %s wire slice" % WIRE_TAG)
    _, data, args_list, names, cats = slice_tuple
    if len(data) != len(args_list) * RECORD_SIZE:
        raise WireSliceError("wire slice is torn: %d bytes for %d args "
                             "slots" % (len(data), len(args_list)))
    events = []
    for index, record in enumerate(RECORD.iter_unpack(data)):
        ph, flags, cat_id, name_id = record[:4]
        event_id = record[9]
        if ph >= len(PHASE_CHARS) or name_id >= len(names) \
                or (flags & F_CAT and cat_id >= len(cats)) \
                or (flags & F_STR_ID and not 0 <= event_id < len(names)):
            raise WireSliceError(
                "record %d of the wire slice names a phase, name, category "
                "or string id outside its tables" % index)
        events.append(_event_from_record(record, args_list[index], names,
                                         cats))
    return events

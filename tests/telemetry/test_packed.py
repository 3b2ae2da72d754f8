"""The packed binary ring: records, interning, sampling, wire slices.

The packed path's contract is equivalence: everything the legacy
object-per-event ring records, the 48-byte binary records reproduce at
decode — same fields, same rounding, same args — while the hot path
stays a handful of integer writes. These tests pin the unit behaviors
(interning, overwrite-oldest counters, lazy growth, deferred args) and
the equivalence itself, property-tested across generated emit
sequences.
"""

import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.packed import (
    F_ARGS,
    F_CAT,
    F_DUR,
    PH_ASYNC_BEGIN,
    PH_COMPLETE,
    PH_COUNTER,
    PH_INSTANT,
    RECORD_SIZE,
    SEGMENT_RECORDS,
    WIRE_TAG,
    PackedRingBuffer,
    Sampler,
    StringTable,
    WireSliceError,
    decode_wire_slice,
    is_wire_slice,
    materialize_args,
)
from repro.telemetry.tracer import Tracer
from repro.util.clock import VirtualClock
from tests.session.test_wire import _mutation, mutate


class TestStringTable:
    def test_interns_to_dense_ids(self):
        table = StringTable()
        assert table.intern("alpha") == 0
        assert table.intern("beta") == 1
        assert table.intern("alpha") == 0
        assert len(table) == 2
        assert table[1] == "beta"

    def test_seeds_from_existing_strings(self):
        table = StringTable(["x", "y"])
        assert table.intern("y") == 1
        assert table.intern("z") == 2


class TestSampler:
    def test_rate_bounds_validated(self):
        with pytest.raises(ValueError):
            Sampler("cat", 1.5)
        with pytest.raises(ValueError):
            Sampler("cat", -0.1)

    def test_same_seed_same_stream(self):
        a = Sampler("session", 0.5, seed=42)
        b = Sampler("session", 0.5, seed=42)
        assert [a.keep() for _ in range(256)] == [
            b.keep() for _ in range(256)]

    def test_categories_get_distinct_streams(self):
        a = [Sampler("session", 0.5, seed=7).keep() for _ in range(64)]
        b = [Sampler("dispatch", 0.5, seed=7).keep() for _ in range(64)]
        assert a != b

    def test_rate_roughly_honored(self):
        sampler = Sampler("session", 0.25, seed=3)
        kept = sum(sampler.keep() for _ in range(4000))
        assert 800 < kept < 1200

    def test_deterministic_across_processes(self):
        """The decision stream survives hash randomization.

        ``Sampler`` seeds from ``crc32``, not ``hash()``, so two
        processes with different ``PYTHONHASHSEED`` keep the same
        events — the property that makes sampled traces comparable
        across a worker pool.
        """
        script = ("from repro.telemetry.packed import Sampler\n"
                  "s = Sampler('session', 0.5, seed=42)\n"
                  "print(''.join('1' if s.keep() else '0' "
                  "for _ in range(128)))\n")
        outputs = set()
        for hashseed in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, check=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": hashseed})
            outputs.add(result.stdout.strip())
        local = Sampler("session", 0.5, seed=42)
        outputs.add("".join("1" if local.keep() else "0"
                            for _ in range(128)))
        assert len(outputs) == 1


class TestMaterializeArgs:
    def test_plain_dict_is_copied_not_mutated(self):
        caller = {"key": "value"}
        out = materialize_args(caller, 12.5)
        assert out == {"key": "value", "vt_ms": 12.5}
        assert caller == {"key": "value"}
        assert out is not caller

    def test_callable_values_deferred(self):
        calls = []

        def encode():
            calls.append(1)
            return "expensive"

        stash = {"detail": encode}
        assert not calls
        assert materialize_args(stash, None) == {"detail": "expensive"}
        assert calls == [1]

    def test_encoder_tuple_builds_whole_dict(self):
        def encoder(a, b):
            return {"a": a, "b": b}

        assert materialize_args((encoder, 1, 2), 3.0) == {
            "a": 1, "b": 2, "vt_ms": 3.0}

    def test_vt_only_makes_fresh_dict(self):
        assert materialize_args(None, 7.0) == {"vt_ms": 7.0}
        assert materialize_args(None, None) is None


class TestPackedRingBuffer:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            PackedRingBuffer(0)

    def test_round_trips_fields(self):
        buffer = PackedRingBuffer(8)
        cat_id = buffer.cats.intern("session")
        buffer.append(PH_COMPLETE, "step", cat_id, 7, 9, 1.2345, 2.0,
                      5.5, {"k": 1}, None)
        (event,) = list(buffer)
        assert event.name == "step"
        assert event.ph == "X"
        assert event.pid == 7 and event.tid == 9
        # Quantized to integer nanoseconds — the exporter's precision.
        assert event.ts == pytest.approx(1.2345, abs=0.001)
        assert event.dur == pytest.approx(2.0, abs=0.001)
        assert event.cat == "session"
        assert event.args == {"k": 1, "vt_ms": 5.5}

    def test_string_ids_interned_and_restored(self):
        buffer = PackedRingBuffer(8)
        buffer.append(PH_INSTANT, "tick", None, 1, 1, 0.0, None, None,
                      None, "GET /index")
        (event,) = list(buffer)
        assert event.id == "GET /index"
        assert event.cat is None

    def test_overwrite_oldest_counts_drops(self):
        buffer = PackedRingBuffer(4)
        for index in range(10):
            buffer.append(PH_INSTANT, "e%d" % index, None, 1, 1,
                          float(index), None, None, None, None)
        assert buffer.total == 10
        assert buffer.dropped == 6
        assert len(buffer) == 4
        assert [event.name for event in buffer] == ["e6", "e7", "e8", "e9"]

    def test_since_skips_overwritten_records(self):
        buffer = PackedRingBuffer(4)
        mark = buffer.total
        for index in range(7):
            buffer.append(PH_INSTANT, "e%d" % index, None, 1, 1,
                          float(index), None, None, None, None)
        assert [event.name for event in buffer.since(mark)] == [
            "e3", "e4", "e5", "e6"]

    def test_backing_store_grows_lazily(self):
        buffer = PackedRingBuffer(SEGMENT_RECORDS * 4)
        assert buffer._alloc == SEGMENT_RECORDS
        assert len(buffer._data) == SEGMENT_RECORDS * RECORD_SIZE
        for index in range(SEGMENT_RECORDS + 1):
            buffer.append(PH_INSTANT, "e", None, 1, 1, 0.0, None, None,
                          None, None)
        assert buffer._alloc == SEGMENT_RECORDS * 2
        # Growth is capped at capacity, and decoding still sees
        # everything appended so far.
        assert len(list(buffer)) == SEGMENT_RECORDS + 1

    def test_grow_caps_at_capacity(self):
        buffer = PackedRingBuffer(SEGMENT_RECORDS + 10)
        for _ in range(SEGMENT_RECORDS + 5):
            buffer.append(PH_INSTANT, "e", None, 1, 1, 0.0, None, None,
                          None, None)
        assert buffer._alloc == buffer.capacity
        assert len(buffer._args) == buffer.capacity

    def test_append_raw_matches_append(self):
        """The observer's precompiled shape decodes like the generic one."""
        generic = PackedRingBuffer(8)
        raw = PackedRingBuffer(8)
        cat_id = generic.cats.intern("session")
        assert raw.cats.intern("session") == cat_id
        name_id = raw.names.intern("command")
        args = {"status": "ok"}
        generic.append(PH_COMPLETE, "command", cat_id, 3, 4, 10.5, 2.25,
                       None, dict(args), None)
        raw.append_raw(PH_COMPLETE, F_CAT | F_DUR | F_ARGS, cat_id,
                       name_id, 3, 4, 10500, 2250, 0.0, dict(args))
        (expected,), (actual,) = list(generic), list(raw)
        assert actual.to_dict() == expected.to_dict()

    def test_deferred_args_resolved_per_decode(self):
        buffer = PackedRingBuffer(8)
        command = ["click", "#save"]
        buffer.append(PH_INSTANT, "cmd", None, 1, 1, 0.0, None, None,
                      (lambda a, b: {"line": "%s %s" % (a, b)},
                       command[0], command[1]), None)
        (event,) = list(buffer)
        assert event.args == {"line": "click #save"}
        # Decoding is repeatable — the stash is not consumed.
        (again,) = list(buffer)
        assert again.args == {"line": "click #save"}


class TestWireSlice:
    def _fill(self, buffer, count):
        for index in range(count):
            buffer.append(PH_COMPLETE, "e%d" % index,
                          buffer.cats.intern("session"), 1, 2,
                          float(index), 0.5, None, {"i": index}, None)

    def test_detects_wire_slices(self):
        buffer = PackedRingBuffer(4)
        assert is_wire_slice(buffer.wire_slice(0))
        assert not is_wire_slice([{"name": "x"}])

    def test_round_trip_simple(self):
        buffer = PackedRingBuffer(8)
        self._fill(buffer, 3)
        decoded = decode_wire_slice(buffer.wire_slice(0))
        assert [event.to_dict() for event in decoded] == [
            event.to_dict() for event in buffer]

    def test_round_trip_across_the_wrap_seam(self):
        """A slice spanning the ring's wrap point reassembles in order."""
        buffer = PackedRingBuffer(4)
        self._fill(buffer, 7)
        decoded = decode_wire_slice(buffer.wire_slice(buffer.total - 4))
        assert [event.name for event in decoded] == ["e3", "e4", "e5", "e6"]
        assert [event.args["i"] for event in decoded] == [3, 4, 5, 6]

    def test_torn_slice_rejected(self):
        buffer = PackedRingBuffer(4)
        self._fill(buffer, 2)
        tag, data, args, names, cats = buffer.wire_slice(0)
        with pytest.raises(ValueError):
            decode_wire_slice((tag, data[:-1], args, names, cats))
        with pytest.raises(ValueError):
            decode_wire_slice(("BOGUS", data, args, names, cats))

    def test_out_of_range_references_raise_the_typed_error(self):
        buffer = PackedRingBuffer(4)
        self._fill(buffer, 2)
        tag, data, args, names, cats = buffer.wire_slice(0)
        bad_phase = bytearray(data)
        bad_phase[0] = 250
        for broken in ((tag, data, args, [], cats),
                       (tag, data, args, names, []),
                       (tag, bytes(bad_phase), args, names, cats),
                       (tag, data, args, names)):
            with pytest.raises(WireSliceError):
                decode_wire_slice(broken)

    def test_interned_tables_stay_per_worker(self):
        """Two workers' tables intern in different orders; the decoded
        events still carry each worker's own strings — the property the
        pooled-merge path relies on when it concatenates slices."""
        first = PackedRingBuffer(8)
        second = PackedRingBuffer(8)
        first.append(PH_INSTANT, "alpha", first.cats.intern("net"), 1, 1,
                     0.0, None, None, None, None)
        second.append(PH_INSTANT, "beta", second.cats.intern("session"),
                      1, 1, 0.0, None, None, None, None)
        second.append(PH_INSTANT, "alpha", second.cats.intern("net"),
                      1, 1, 1.0, None, None, None, None)
        decoded = (decode_wire_slice(first.wire_slice(0))
                   + decode_wire_slice(second.wire_slice(0)))
        assert [(event.name, event.cat) for event in decoded] == [
            ("alpha", "net"), ("beta", "session"), ("alpha", "net")]


# -- packed ≡ legacy equivalence ------------------------------------------

_NAMES = st.sampled_from(["locate", "act", "dispatch", "reflow"])
_CATS = st.sampled_from([None, "session", "net", "dispatch"])
_ARGS = st.one_of(
    st.none(),
    st.dictionaries(st.sampled_from(["k", "n"]),
                    st.integers(-10, 10), max_size=2))
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("complete"), _NAMES, _CATS, _ARGS,
                  st.floats(0.0, 1e6), st.floats(0.0, 1e3)),
        st.tuples(st.just("instant"), _NAMES, _CATS, _ARGS),
        st.tuples(st.just("begin"), _NAMES, _CATS, _ARGS),
        st.tuples(st.just("end"), _NAMES, _CATS, _ARGS),
        st.tuples(st.just("async"), _NAMES, _CATS,
                  st.one_of(st.integers(0, 5),
                            st.sampled_from(["req-1", "req-2"]))),
        st.tuples(st.just("counter"), _NAMES, _CATS,
                  st.integers(0, 100)),
    ),
    max_size=60)


def _run_ops(tracer, ops):
    track = (1, 2)
    for op in ops:
        kind = op[0]
        if kind == "complete":
            _, name, cat, args, start, dur = op
            tracer.complete(name, start, end_us=start + dur, track=track,
                            cat=cat, args=dict(args) if args else args)
        elif kind == "instant":
            _, name, cat, args = op
            tracer.instant(name, track=track, cat=cat,
                           args=dict(args) if args else args)
        elif kind == "begin":
            _, name, cat, args = op
            tracer.begin(name, track=track, cat=cat,
                         args=dict(args) if args else args)
        elif kind == "end":
            _, name, cat, args = op
            tracer.end(name, track=track, cat=cat,
                       args=dict(args) if args else args)
        elif kind == "async":
            _, name, cat, event_id = op
            tracer.async_begin(name, event_id, track=track, cat=cat)
            tracer.async_end(name, event_id, track=track, cat=cat)
        elif kind == "counter":
            _, name, cat, value = op
            tracer.counter(name, {"v": value}, track=track, cat=cat)


def _comparable(tracer):
    """Exported dicts with the wall-clock-dependent fields stripped.

    ``complete`` timestamps are caller-supplied and must round-trip
    exactly; every other phase stamps ``now_us()``, which two tracers
    can never share.
    """
    out = []
    for event in tracer.buffer:
        data = event.to_dict()
        if data["ph"] != "X":
            del data["ts"]
        out.append(data)
    return out


class TestPackedLegacyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_round_trip_matches_legacy(self, ops):
        packed = Tracer(buffer_size=256, packed=True)
        legacy = Tracer(buffer_size=256, packed=False)
        _run_ops(packed, ops)
        _run_ops(legacy, ops)
        assert _comparable(packed) == _comparable(legacy)

    @settings(max_examples=30, deadline=None)
    @given(ops=_OPS)
    def test_round_trip_matches_with_category_filter(self, ops):
        packed = Tracer(buffer_size=256, packed=True,
                        categories="production")
        legacy = Tracer(buffer_size=256, packed=False,
                        categories="production")
        _run_ops(packed, ops)
        _run_ops(legacy, ops)
        assert _comparable(packed) == _comparable(legacy)

    @settings(max_examples=30, deadline=None)
    @given(ops=_OPS)
    def test_round_trip_matches_under_sampling(self, ops):
        packed = Tracer(buffer_size=256, packed=True, sample=0.5,
                        sample_seed=9)
        legacy = Tracer(buffer_size=256, packed=False, sample=0.5,
                        sample_seed=9)
        _run_ops(packed, ops)
        _run_ops(legacy, ops)
        assert _comparable(packed) == _comparable(legacy)

    @settings(max_examples=30, deadline=None)
    @given(ops=_OPS)
    def test_virtual_clock_stamped_identically(self, ops):
        packed = Tracer(buffer_size=256, packed=True,
                        clock=VirtualClock(start=250.0))
        legacy = Tracer(buffer_size=256, packed=False,
                        clock=VirtualClock(start=250.0))
        _run_ops(packed, ops)
        _run_ops(legacy, ops)
        assert _comparable(packed) == _comparable(legacy)


class TestCallerArgsNeverMutated:
    """vt_ms stamping must never leak into the caller's dict.

    Regression pin: the legacy emit used to stamp ``vt_ms`` into the
    args dict it was handed, so a caller reusing one dict across
    emits saw it silently grow.
    """

    def _assert_pristine(self, packed):
        clock = VirtualClock(start=99.0)
        tracer = Tracer(buffer_size=16, packed=packed, clock=clock)
        caller_args = {"detail": "kept"}
        tracer.instant("tick", track=(1, 1), args=caller_args)
        tracer.complete("span", 0.0, end_us=5.0, track=(1, 1),
                        args=caller_args)
        (instant, span) = list(tracer.buffer)
        assert instant.args == {"detail": "kept", "vt_ms": 99.0}
        assert span.args == {"detail": "kept", "vt_ms": 99.0}
        assert caller_args == {"detail": "kept"}

    def test_packed_path(self):
        self._assert_pristine(packed=True)

    def test_legacy_path(self):
        self._assert_pristine(packed=False)


class TestSamplingDeterminismAcrossProcesses:
    def test_same_seed_keeps_same_events_in_a_subprocess(self):
        script = (
            "from repro.telemetry.tracer import Tracer\n"
            "tracer = Tracer(buffer_size=512, sample=0.5, sample_seed=21)\n"
            "for index in range(200):\n"
            "    tracer.complete('e%d' % index, float(index),\n"
            "                    end_us=index + 1.0, track=(1, 1),\n"
            "                    cat='session')\n"
            "print(','.join(event.name for event in tracer.buffer))\n")
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, check=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "random"})
        tracer = Tracer(buffer_size=512, sample=0.5, sample_seed=21)
        for index in range(200):
            tracer.complete("e%d" % index, float(index),
                            end_us=index + 1.0, track=(1, 1),
                            cat="session")
        local = ",".join(event.name for event in tracer.buffer)
        assert result.stdout.strip() == local
        # And a different seed really changes the kept set.
        other = Tracer(buffer_size=512, sample=0.5, sample_seed=22)
        for index in range(200):
            other.complete("e%d" % index, float(index),
                           end_us=index + 1.0, track=(1, 1),
                           cat="session")
        assert ",".join(event.name for event in other.buffer) != local


# -- decoder fuzzing ------------------------------------------------------


def _seed_slice():
    """A wire slice using every optional field: durations, categories,
    args, virtual time, and integer and string async ids."""
    buffer = PackedRingBuffer(8)
    session = buffer.cats.intern("session")
    buffer.append(PH_COMPLETE, "locate", session, 1, 2, 1.0, 0.5, 3.0,
                  {"line": "click"}, None)
    buffer.append(PH_ASYNC_BEGIN, "load", buffer.cats.intern("net"), 1, 2,
                  2.0, None, None, None, "req-1")
    buffer.append(PH_ASYNC_BEGIN, "fetch", session, 1, 3, 3.0, None, None,
                  None, 7)
    buffer.append(PH_COUNTER, "hits", None, 1, 2, 4.0, None, 5.0,
                  {"n": 1}, None)
    return buffer.wire_slice(0)


SEED_SLICE = _seed_slice()


def decode_or_slice_error(slice_tuple):
    try:
        decode_wire_slice(slice_tuple)
    except WireSliceError:
        pass


class TestDecoderFuzz:
    """Arbitrary and mutated slices decode or raise WireSliceError."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.just(WIRE_TAG), st.text(max_size=4)),
           st.lists(st.binary(min_size=RECORD_SIZE, max_size=RECORD_SIZE),
                    max_size=4),
           st.integers(min_value=-1, max_value=1),
           st.lists(st.text(max_size=3), max_size=3),
           st.lists(st.text(max_size=3), max_size=3))
    def test_arbitrary_slices(self, tag, records, skew, names, cats):
        data = b"".join(records)
        args = [None] * max(0, len(records) + skew)
        decode_or_slice_error((tag, data, args, names, cats))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_mutation, min_size=1, max_size=4),
           st.integers(min_value=0, max_value=4),
           st.integers(min_value=0, max_value=3))
    def test_mutated_valid_slices(self, mutations, names_kept, cats_kept):
        tag, data, args, names, cats = SEED_SLICE
        decode_or_slice_error((tag, mutate(data, mutations), args,
                               names[:names_kept], cats[:cats_kept]))

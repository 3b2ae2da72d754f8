"""The tape store: blobs, entries, and the WT1 binary format."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.http import HttpRequest, HttpResponse
from repro.net.tape import TAPE_MAGIC, BlobStore, Tape, TapeError
from repro.net.transport import body_hash
from repro.session.wire import _write_varint
from tests.session.test_wire import _mutation, mutate


def recorded_tape():
    tape = Tape(label="unit", config={"app": "unit", "seed": 7})
    tape.stamp_chaos("flaky_net", 3)
    shell = "<html>shell</html>"
    tape.record(HttpRequest("http://h.example/"),
                HttpResponse(body=shell))
    tape.record(HttpRequest("http://h.example/other"),
                HttpResponse(body=shell))  # duplicate body
    tape.record(HttpRequest("http://h.example/api", method="POST",
                            body='{"q": 1}'),
                HttpResponse(body='{"n": 1}', status=201,
                             content_type="application/json",
                             headers={"X-Api": "v1"}))
    return tape


class TestBlobStore:
    def test_identical_bodies_stored_once(self):
        store = BlobStore()
        first = store.put("same body")
        second = store.put("same body")
        assert first == second
        assert len(store) == 1
        assert store.logical_bytes == 2 * len("same body")
        assert store.stored_bytes == len("same body")
        assert store.dedup_ratio == 2.0

    def test_empty_store_ratio_is_one(self):
        assert BlobStore().dedup_ratio == 1.0

    def test_get_round_trips_and_missing_raises(self):
        store = BlobStore()
        digest = store.put("payload")
        assert store.get(digest) == "payload"
        assert digest in store
        with pytest.raises(TapeError):
            store.get(body_hash("never stored"))

    def test_digest_is_content_address(self):
        assert BlobStore().put("x") == body_hash("x")


class TestTapeRecording:
    def test_entries_indexed_by_fingerprint(self):
        tape = recorded_tape()
        assert len(tape) == 3
        entry = tape.entries[0]
        matches = tape.entries_for(entry.fingerprint)
        assert matches == [entry]
        assert tape.entries_for("no such fingerprint") == []

    def test_response_for_rebuilds_exchange(self):
        tape = recorded_tape()
        response = tape.response_for(tape.entries[2])
        assert response.status == 201
        assert response.content_type == "application/json"
        assert response.body == '{"n": 1}'
        assert response.headers == {"X-Api": "v1"}

    def test_duplicate_bodies_dedup(self):
        tape = recorded_tape()
        stats = tape.stats()
        assert stats["entries"] == 3
        assert stats["unique_bodies"] == 2
        assert stats["dedup_ratio"] > 1.0

    def test_compact_drops_only_orphans(self):
        tape = recorded_tape()
        assert tape.compact() == 0  # recording never orphans
        tape.entries = tape.entries[:1]  # orphans the JSON body blob
        dropped = tape.compact()
        assert dropped == 1
        assert len(tape.blobs) == 1
        assert tape.response_for(tape.entries[0]).body \
            == "<html>shell</html>"


class TestWT1Format:
    def assert_tapes_equal(self, original, decoded):
        assert decoded.label == original.label
        assert decoded.config == original.config
        assert decoded.chaos_profile == original.chaos_profile
        assert decoded.chaos_seed == original.chaos_seed
        assert [e.to_dict() for e in decoded.entries] \
            == [e.to_dict() for e in original.entries]
        assert decoded.blobs._blobs == original.blobs._blobs
        assert decoded.blobs.logical_bytes == original.blobs.logical_bytes
        for entry in original.entries:
            assert [e.ordinal for e in
                    decoded.entries_for(entry.fingerprint)] \
                == [e.ordinal for e in
                    original.entries_for(entry.fingerprint)]

    def test_round_trip(self):
        tape = recorded_tape()
        self.assert_tapes_equal(tape, Tape.decode(tape.encode()))

    def test_empty_tape_round_trips(self):
        tape = Tape()
        decoded = Tape.decode(tape.encode())
        assert decoded.label is None
        assert decoded.config == {}
        assert decoded.chaos_profile is None
        assert decoded.chaos_seed is None
        assert len(decoded) == 0

    def test_magic_enforced(self):
        assert Tape().encode().startswith(TAPE_MAGIC)
        with pytest.raises(TapeError):
            Tape.decode(b"WR1" + Tape().encode()[3:])
        with pytest.raises(TapeError):
            Tape.decode("not bytes")

    def test_trailing_bytes_rejected(self):
        with pytest.raises(TapeError):
            Tape.decode(recorded_tape().encode() + b"\x00")

    def test_truncation_rejected(self):
        blob = recorded_tape().encode()
        with pytest.raises(TapeError):
            Tape.decode(blob[:len(blob) // 2])

    def test_save_load(self, tmp_path):
        path = str(tmp_path / "t.tape")
        tape = recorded_tape()
        tape.save(path)
        self.assert_tapes_equal(tape, Tape.load(path))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        text = st.text(max_size=20)
        tape = Tape(
            label=data.draw(st.none() | text),
            config=data.draw(st.dictionaries(
                st.text(min_size=1, max_size=8),
                st.integers(0, 100) | text, max_size=3)),
        )
        if data.draw(st.booleans()):
            tape.stamp_chaos(data.draw(text), data.draw(st.integers(0, 2**31)))
        for _ in range(data.draw(st.integers(0, 6))):
            url = "http://h.example/" + data.draw(
                st.text(alphabet="abcxyz", max_size=6))
            tape.record(
                HttpRequest(url,
                            method=data.draw(st.sampled_from(
                                ["GET", "POST"])),
                            body=data.draw(text)),
                HttpResponse(body=data.draw(text),
                             status=data.draw(st.integers(100, 599)),
                             content_type=data.draw(st.sampled_from(
                                 ["text/html", "application/json"])),
                             headers=data.draw(st.dictionaries(
                                 st.text(alphabet="abc-", min_size=1,
                                         max_size=6),
                                 text, max_size=3))),
            )
        decoded = Tape.decode(tape.encode())
        assert decoded.label == tape.label
        assert decoded.config == tape.config
        assert decoded.chaos_profile == tape.chaos_profile
        assert decoded.chaos_seed == tape.chaos_seed
        assert [e.to_dict() for e in decoded.entries] \
            == [e.to_dict() for e in tape.entries]
        assert decoded.blobs._blobs == tape.blobs._blobs
        assert decoded.blobs.logical_bytes == tape.blobs.logical_bytes


class TestJsonExport:
    def test_export_json_is_loadable_and_complete(self, tmp_path):
        path = str(tmp_path / "t.json")
        tape = recorded_tape()
        tape.export_json(path)
        with open(path) as handle:
            data = json.load(handle)
        assert data["format"] == "WT1"
        assert data["label"] == "unit"
        assert data["chaos"] == {"profile": "flaky_net", "seed": 3}
        assert len(data["entries"]) == 3
        assert data["stats"]["unique_bodies"] == 2
        # Every referenced body is present inline.
        for entry in data["entries"]:
            assert entry["body_digest"] in data["blobs"]


def raw_tape(strings, body):
    """WT1 bytes with the given intern table and body section."""
    out = bytearray(TAPE_MAGIC)
    _write_varint(out, len(strings))
    for data in strings:
        _write_varint(out, len(data))
        out.extend(data)
    return bytes(out + body)


#: label, config ref 1, no chaos, no entries, no blobs, 0 logical bytes.
CONFIG_ONLY_BODY = bytes([0, 1, 0, 0, 0, 0, 0])

SEED_TAPES = [recorded_tape().encode(), Tape().encode()]


def decode_or_tape_error(blob):
    try:
        tape = Tape.decode(blob)
    except TapeError:
        return
    # Whatever decodes is a usable tape: it exports and re-encodes.
    exported = tape.to_json_dict()
    assert Tape.decode(tape.encode()).to_json_dict() == exported


class TestMalformedTapes:
    def test_non_utf8_interned_string(self):
        with pytest.raises(TapeError, match="interned string 1 .*UTF-8"):
            Tape.decode(raw_tape([b"\xff\xfe"], b""))

    def test_truncated_varint(self):
        with pytest.raises(TapeError, match="truncated varint"):
            Tape.decode(TAPE_MAGIC + b"\x80")

    def test_over_long_varint(self):
        with pytest.raises(TapeError, match="varint too long"):
            Tape.decode(TAPE_MAGIC + b"\xff" * 10 + b"\x01")

    def test_config_that_is_not_json(self):
        with pytest.raises(TapeError, match="not valid JSON"):
            Tape.decode(raw_tape([b"{nope"], CONFIG_ONLY_BODY))

    def test_config_that_is_not_an_object(self):
        with pytest.raises(TapeError, match="JSON list, not an object"):
            Tape.decode(raw_tape([b"[1]"], CONFIG_ONLY_BODY))

    def test_required_string_missing(self):
        # One entry whose fingerprint reference is 0 (None).
        body = bytes([0, 0, 0, 0, 1, 0])
        with pytest.raises(TapeError, match="fingerprint is missing"):
            Tape.decode(raw_tape([], body))

    def test_bad_chaos_seed_flag(self):
        with pytest.raises(TapeError, match="flag is 2"):
            Tape.decode(raw_tape([], bytes([0, 0, 0, 2])))


class TestDecoderFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64))
    def test_arbitrary_bytes(self, data):
        decode_or_tape_error(data)
        decode_or_tape_error(TAPE_MAGIC + data)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(range(len(SEED_TAPES))),
           st.lists(_mutation, min_size=1, max_size=4))
    def test_mutated_valid_tapes(self, which, mutations):
        decode_or_tape_error(mutate(SEED_TAPES[which], mutations))

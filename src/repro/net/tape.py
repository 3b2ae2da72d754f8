"""Network tapes: content-addressed recordings of HTTP exchanges.

A :class:`Tape` is what :class:`~repro.net.transport.RecordTransport`
writes and :class:`~repro.net.transport.PlaybackTransport` serves: an
ordered list of exchanges keyed by request fingerprint, with every
response body stored once in a content-addressed :class:`BlobStore`.
Deduplication is the point — across a million recorded sessions of the
same application, the app shell, scripts, and common API responses are
byte-identical, so the marginal tape cost of one more session is its
handful of unique responses, not its full wire traffic.

A tape also carries provenance:

- the **chaos stamp** — the ``(profile, seed)`` active while recording,
  so a crash found under fault injection replays byte-identically from
  its tape (install the same profile and seed, play the tape back);
- the **config stamp** — a JSON-able dict of engine configuration
  (app, timing mode, session seed, ...) documenting what produced the
  recording.

On disk a tape is a compact ``WT1`` binary (same toolbox as the WR3
result wire format: LEB128 varints + a 1-based interned string table,
with blob bodies in a raw byte section so large payloads never bloat
the intern table), plus a JSON export for human inspection via
``python -m repro tape inspect --json``.
"""

import json

from repro.net.http import HttpResponse
from repro.net.transport import body_hash, request_fingerprint
from repro.session.wire import BodyReader, _StringTable, _write_varint

#: Tape format tag; bump when the layout changes incompatibly.
TAPE_MAGIC = b"WT1"


class TapeError(ValueError):
    """A blob that is not a well-formed WT1 tape."""


class BlobStore:
    """Content-addressed response bodies: one copy per distinct body.

    ``logical_bytes`` counts every byte handed to :meth:`put` (what a
    naive tape would store); ``stored_bytes`` counts what is actually
    kept. Their ratio is the dedup factor the bench reports.
    """

    def __init__(self):
        self._blobs = {}
        self.logical_bytes = 0

    def put(self, body):
        """Store ``body`` (str), returning its digest."""
        digest = body_hash(body)
        self.logical_bytes += len(body.encode("utf-8"))
        if digest not in self._blobs:
            self._blobs[digest] = body
        return digest

    def get(self, digest):
        try:
            return self._blobs[digest]
        except KeyError:
            raise TapeError("blob %s missing from store" % digest[:12])

    def __contains__(self, digest):
        return digest in self._blobs

    def __len__(self):
        return len(self._blobs)

    @property
    def stored_bytes(self):
        return sum(len(body.encode("utf-8"))
                   for body in self._blobs.values())

    @property
    def dedup_ratio(self):
        """logical/stored — 1.0 means no duplicate bodies were seen."""
        stored = self.stored_bytes
        return self.logical_bytes / stored if stored else 1.0

    def digests(self):
        return list(self._blobs)

    def discard(self, digest):
        self._blobs.pop(digest, None)

    def __repr__(self):
        return "BlobStore(%d blob(s), %d logical / %d stored bytes)" % (
            len(self._blobs), self.logical_bytes, self.stored_bytes,
        )


class TapeEntry:
    """One recorded exchange; the body lives in the tape's blob store."""

    __slots__ = ("ordinal", "fingerprint", "method", "url", "status",
                 "content_type", "headers", "body_digest")

    def __init__(self, ordinal, fingerprint, method, url, status,
                 content_type, headers, body_digest):
        self.ordinal = ordinal
        self.fingerprint = fingerprint
        self.method = method
        self.url = url
        self.status = status
        self.content_type = content_type
        self.headers = headers
        self.body_digest = body_digest

    def to_dict(self):
        return {
            "ordinal": self.ordinal,
            "fingerprint": self.fingerprint,
            "method": self.method,
            "url": self.url,
            "status": self.status,
            "content_type": self.content_type,
            "headers": dict(self.headers),
            "body_digest": self.body_digest,
        }

    def __repr__(self):
        return "TapeEntry(#%d %s %s -> %d)" % (
            self.ordinal, self.method, self.url, self.status,
        )


class Tape:
    """An ordered recording of HTTP exchanges, indexed by fingerprint."""

    def __init__(self, label=None, config=None):
        self.label = label
        #: Engine-config stamp (JSON-able dict) — what produced this tape.
        self.config = dict(config or {})
        #: Chaos stamp: profile name + seed active while recording.
        self.chaos_profile = None
        self.chaos_seed = None
        self.entries = []
        self.blobs = BlobStore()
        self._index = {}
        #: Built responses by ordinal. Playback serves the same entry
        #: thousands of times across a batch (every session replays the
        #: same app shell); responses are treated as immutable
        #: everywhere in the stack, so one built object per entry is
        #: safe and keeps playback at-or-above live throughput.
        self._responses = {}

    # -- recording -----------------------------------------------------------

    def record(self, request, response):
        """Append one exchange; returns the new :class:`TapeEntry`."""
        fingerprint = request_fingerprint(request)
        entry = TapeEntry(
            ordinal=len(self.entries),
            fingerprint=fingerprint,
            method=request.method,
            url=request.url,
            status=response.status,
            content_type=response.content_type,
            headers=dict(response.headers),
            body_digest=self.blobs.put(response.body),
        )
        self.entries.append(entry)
        self._index.setdefault(fingerprint, []).append(entry)
        return entry

    def stamp_chaos(self, profile_name, seed):
        self.chaos_profile = profile_name
        self.chaos_seed = seed

    # -- playback ------------------------------------------------------------

    def entries_for(self, fingerprint):
        """Entries matching ``fingerprint``, in recording order."""
        return self._index.get(fingerprint, [])

    def response_for(self, entry):
        """The recorded :class:`HttpResponse` for ``entry``.

        Built once per entry and shared between plays — responses are
        read-only throughout the stack.
        """
        response = self._responses.get(entry.ordinal)
        if response is None:
            response = HttpResponse(
                body=self.blobs.get(entry.body_digest),
                status=entry.status,
                content_type=entry.content_type,
                headers=dict(entry.headers),
            )
            self._responses[entry.ordinal] = response
        return response

    # -- accounting ----------------------------------------------------------

    def stats(self):
        return {
            "label": self.label,
            "entries": len(self.entries),
            "fingerprints": len(self._index),
            "unique_bodies": len(self.blobs),
            "logical_bytes": self.blobs.logical_bytes,
            "stored_bytes": self.blobs.stored_bytes,
            "dedup_ratio": round(self.blobs.dedup_ratio, 3),
            "chaos_profile": self.chaos_profile,
            "chaos_seed": self.chaos_seed,
        }

    def compact(self):
        """Drop blobs no entry references; returns how many were dropped.

        Orphans appear when entries are filtered or tapes are merged and
        re-saved; recording alone never creates one.
        """
        live = {entry.body_digest for entry in self.entries}
        orphans = [d for d in self.blobs.digests() if d not in live]
        for digest in orphans:
            self.blobs.discard(digest)
        return len(orphans)

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        return "Tape(%r, %d entr%s, %d blob(s))" % (
            self.label, len(self.entries),
            "y" if len(self.entries) == 1 else "ies", len(self.blobs),
        )

    # -- WT1 binary format ---------------------------------------------------

    def encode(self):
        """Pack the tape into one ``WT1`` blob."""
        table = _StringTable()
        body = bytearray()
        _write_varint(body, table.ref(self.label))
        _write_varint(body, table.ref(
            json.dumps(self.config, sort_keys=True) if self.config
            else None))
        _write_varint(body, table.ref(self.chaos_profile))
        if self.chaos_seed is None:
            body.append(0)
        else:
            body.append(1)
            _write_varint(body, self.chaos_seed)
        _write_varint(body, len(self.entries))
        for entry in self.entries:
            _write_varint(body, table.ref(entry.fingerprint))
            _write_varint(body, table.ref(entry.method))
            _write_varint(body, table.ref(entry.url))
            _write_varint(body, entry.status)
            _write_varint(body, table.ref(entry.content_type))
            _write_varint(body, table.ref(entry.body_digest))
            _write_varint(body, len(entry.headers))
            for name in sorted(entry.headers):
                _write_varint(body, table.ref(name))
                _write_varint(body, table.ref(str(entry.headers[name])))
        # Blob section: raw bytes, outside the intern table, so megabyte
        # bodies are a straight copy rather than table entries.
        digests = sorted(self.blobs.digests())
        _write_varint(body, len(digests))
        for digest in digests:
            _write_varint(body, table.ref(digest))
            payload = self.blobs.get(digest).encode("utf-8")
            _write_varint(body, len(payload))
            body.extend(payload)
        # Logical byte total cannot be recomputed from deduped blobs.
        _write_varint(body, self.blobs.logical_bytes)

        out = bytearray(TAPE_MAGIC)
        _write_varint(out, len(table.strings))
        for text in table.strings:
            encoded = text.encode("utf-8")
            _write_varint(out, len(encoded))
            out.extend(encoded)
        out.extend(body)
        return bytes(out)

    @classmethod
    def decode(cls, blob):
        """The exact inverse of :meth:`encode`.

        Every malformed payload raises :class:`TapeError` naming the
        defect, never a foreign decoding error.
        """
        if not isinstance(blob, (bytes, bytearray, memoryview)):
            raise TapeError("tape payload must be bytes, got %s"
                            % type(blob).__name__)
        blob = bytes(blob)
        if blob[:len(TAPE_MAGIC)] != TAPE_MAGIC:
            raise TapeError("bad magic; not a %s tape"
                            % TAPE_MAGIC.decode())
        reader = BodyReader(blob, TapeError, "truncated tape",
                            pos=len(TAPE_MAGIC))
        for number in range(1, reader.varint() + 1):
            reader.strings.append(reader.text("interned string %d"
                                              % number))

        tape = cls(label=reader.ref())
        config_json = reader.ref()
        if config_json is not None:
            try:
                config = json.loads(config_json)
            except (ValueError, RecursionError):
                raise TapeError("config stamp is not valid JSON")
            if not isinstance(config, dict):
                raise TapeError("config stamp is a JSON %s, not an object"
                                % type(config).__name__)
            tape.config = config
        tape.chaos_profile = reader.ref()
        flag = reader.byte()
        if flag > 1:
            raise TapeError("chaos seed flag is %d, not 0 or 1" % flag)
        if flag:
            tape.chaos_seed = reader.varint()
        for ordinal in range(reader.varint()):
            entry = TapeEntry(
                ordinal=ordinal,
                fingerprint=reader.ref("fingerprint"),
                method=reader.ref("method"),
                url=reader.ref("url"),
                status=reader.varint(),
                content_type=reader.ref(),
                body_digest=reader.ref("body digest"),
                headers={},
            )
            for _ in range(reader.varint()):
                name = reader.ref("header name")
                entry.headers[name] = reader.ref("header value")
            tape.entries.append(entry)
            tape._index.setdefault(entry.fingerprint, []).append(entry)
        for _ in range(reader.varint()):
            digest = reader.ref("blob digest")
            tape.blobs._blobs[digest] = reader.text("blob %s"
                                                    % digest[:12])
        tape.blobs.logical_bytes = reader.varint()
        if reader.pos != len(blob):
            raise TapeError("%d trailing byte(s) after tape"
                            % (len(blob) - reader.pos))
        return tape

    def save(self, path):
        with open(path, "wb") as handle:
            handle.write(self.encode())
        return path

    @classmethod
    def load(cls, path):
        with open(path, "rb") as handle:
            return cls.decode(handle.read())

    # -- JSON export (inspection) --------------------------------------------

    def to_json_dict(self):
        """A JSON-able view of the whole tape (bodies inline)."""
        return {
            "format": TAPE_MAGIC.decode(),
            "label": self.label,
            "config": dict(self.config),
            "chaos": {"profile": self.chaos_profile,
                      "seed": self.chaos_seed},
            "stats": self.stats(),
            "entries": [entry.to_dict() for entry in self.entries],
            "blobs": {digest: self.blobs.get(digest)
                      for digest in sorted(self.blobs.digests())},
        }

    def export_json(self, path):
        with open(path, "w") as handle:
            json.dump(self.to_json_dict(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        return path

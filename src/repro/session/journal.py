"""WJ2: the append-only, fsync'd batch run journal.

A batch run is only as durable as its book-keeping. Before this module,
the farm's unit of durability was the whole process: a parent crash, an
orchestrator's SIGTERM, or one poisonous trace threw away every result
the run had already paid for. The run journal makes the *trace* the
unit of durability instead: every batch writes an append-only journal
of per-trace ``start``/``finish`` records (each finish carrying the
trace's WR3 report blob), fsync'd record by record, so a resumed run
(``python -m repro batch --journal PATH --resume``) replays completed
entries *from the journal* and re-runs only the remainder.

Format (version tag ``WJ2`` — same idiom as WR3/WT1):

- **framing** — every record is ``varint(length) + body + crc32``; the
  length covers body+crc, so the reader can skip records it cannot
  parse and — crucially — detect a *torn tail*: a record cut short by
  a crash mid-append fails its length or CRC check and is truncated,
  never fatal. Anything before the torn frame stays valid.
- **LEB128 varints** for every integer, **string interning** for every
  repeated string: labels and error classes are written once as
  ``INTERN`` records and referenced by 1-based index afterwards
  (0 = None). Intern records always precede the record that first
  references them, so truncation can strand an intern record (harmless)
  but never a dangling reference.
- **reports ride as WR3 blobs, verbatim** — a finish record embeds the
  worker's blob byte for byte, and :func:`read_journal` hands it back
  undecoded (:attr:`FinishRecord.blob`). Only resume decodes it, with
  :func:`repro.session.wire.decode_report` against the trace whose
  digest it has just verified; the exactly-once audit and ``repro
  journal`` never decode a report.
- **one admission commit** — the ``CONFIG`` record is not written on its
  own: it goes out with the first batch of ``START`` records (a pooled
  run's whole admission wave) in one write and one fsync. A crash
  before that commit leaves a file with no ``CONFIG`` (at most a prefix
  of one), which resume treats as a run that never started.

The first record is always ``CONFIG``: a JSON description of the batch
(mode, per-trace labels and SHA-256 trace digests). Resume verifies the
submitted batch against it — same labels, same trace content — before
trusting any completed entry, so a journal can never be replayed
against a different workload.

Exactly-once accounting: a trace is *complete* iff the journal holds a
finish record for it (any status — replayed, failed, or quarantined).
A crash between a trace's completion and its finish record's fsync
re-runs that trace on resume; a crash after the fsync replays it from
the journal. Either way the journal ends with exactly one finish per
trace, which is what the soak harness verifies.
"""

import hashlib
import json
import os
import zlib

from repro.session.wire import (
    BodyReader,
    WireError,
    _read_varint,
    _write_varint,
)

#: Format tag; bump when the layout changes incompatibly.
MAGIC = b"WJ2"

#: Journal record types.
_CONFIG = 1
_INTERN = 2
_START = 3
_FINISH = 4
_EVENT = 5

#: Finish statuses, packed as one byte.
REPLAYED = "replayed"
FAILED = "failed"
QUARANTINED = "quarantined"
_STATUSES = (REPLAYED, FAILED, QUARANTINED)
_STATUS_CODE = {status: code for code, status in enumerate(_STATUSES)}

_CRC = zlib.crc32


class JournalError(ValueError):
    """A journal that cannot be used: bad magic, mid-file corruption,
    or a config that does not match the submitted batch."""


def trace_digest(trace_text):
    """Content digest binding a journal entry to its trace."""
    return hashlib.sha256(trace_text.encode("utf-8")).hexdigest()


def batch_config(labels, digests, mode, extra=None):
    """The CONFIG payload for a batch: one (label, digest) per trace."""
    config = {
        "version": 1,
        "mode": mode,
        "entries": [{"label": label, "digest": digest}
                    for label, digest in zip(labels, digests)],
    }
    if extra:
        config["extra"] = dict(extra)
    return config


def verify_config(config, labels, digests):
    """Refuse to resume a journal against a different workload.

    The batch *mode* may legitimately differ (a run crashed under a
    pool can be finished serially, and a journal from an older release
    may name a mode that no longer exists), but the traces themselves
    must be the same, in the same order.
    """
    entries = (config or {}).get("entries")
    if entries is None:
        raise JournalError("journal has no batch config record")
    if len(entries) != len(labels):
        raise JournalError(
            "journal describes %d trace(s) but the batch submits %d"
            % (len(entries), len(labels)))
    for index, (entry, label, digest) in enumerate(
            zip(entries, labels, digests)):
        if entry["label"] != label:
            raise JournalError(
                "journal entry %d is %r but the batch submits %r"
                % (index, entry["label"], label))
        if entry["digest"] != digest:
            raise JournalError(
                "trace %r changed since the journal was written "
                "(digest mismatch)" % label)


# -- records ------------------------------------------------------------------


class StartRecord:
    """One trace admitted for execution (attempt counts from 1)."""

    __slots__ = ("index", "label", "attempt")

    def __init__(self, index, label, attempt=1):
        self.index = index
        self.label = label
        self.attempt = attempt

    def __repr__(self):
        return "StartRecord(%d, %r, attempt=%d)" % (
            self.index, self.label, self.attempt)


class FinishRecord:
    """One trace's final outcome, report included when one exists."""

    __slots__ = ("index", "label", "status", "attempts", "worker_id",
                 "blob", "error", "error_class", "diagnosis")

    def __init__(self, index, label, status, attempts=1, worker_id=None,
                 blob=None, error=None, error_class=None, diagnosis=None):
        self.index = index
        self.label = label
        self.status = status
        self.attempts = attempts
        self.worker_id = worker_id
        #: The report's WR3 blob, undecoded (decode it against the
        #: trace with :func:`repro.session.wire.decode_report`), or None
        #: when the trace never produced a report (containment failure).
        self.blob = blob
        self.error = error
        self.error_class = error_class
        #: Quarantine diagnosis bundle (dict), or None.
        self.diagnosis = diagnosis

    def __repr__(self):
        return "FinishRecord(%d, %r, %s)" % (self.index, self.label,
                                             self.status)


class JournalEvent:
    """A run-level annotation (drain requested, pool degraded, ...)."""

    __slots__ = ("kind", "payload")

    def __init__(self, kind, payload=None):
        self.kind = kind
        self.payload = payload or {}

    def __repr__(self):
        return "JournalEvent(%r)" % self.kind


class JournalSnapshot:
    """Everything a read pass recovered from a journal file."""

    def __init__(self):
        self.config = None
        self.starts = []
        self.finishes = []
        self.events = []
        self.strings = []
        #: Byte offset of the last intact record's end — the resume
        #: append point; everything past it was a torn tail.
        self.valid_length = 0
        self.truncated_bytes = 0

    @property
    def torn(self):
        """True when a torn tail was dropped during the read."""
        return self.truncated_bytes > 0

    def finish_by_index(self):
        """{index: FinishRecord}, first finish wins (duplicates are a
        bug surfaced separately by :meth:`duplicate_finishes`)."""
        table = {}
        for record in self.finishes:
            table.setdefault(record.index, record)
        return table

    def duplicate_finishes(self):
        """Indexes finished more than once — exactly-once violations."""
        seen = set()
        duplicates = []
        for record in self.finishes:
            if record.index in seen:
                duplicates.append(record.index)
            seen.add(record.index)
        return duplicates

    def completed_indexes(self):
        """Set of trace indexes holding a finish record."""
        return {record.index for record in self.finishes}

    def unfinished_indexes(self):
        """Indexes the config promises but no finish record covers."""
        total = len((self.config or {}).get("entries", ()))
        return [index for index in range(total)
                if index not in self.completed_indexes()]


# -- reading ------------------------------------------------------------------


def _maybe_json(reader):
    """An optional length-prefixed JSON payload (length 0 is None)."""
    length = reader.varint()
    if length == 0:
        return None
    return json.loads(reader.take(length).decode("utf-8"))


def read_journal(path):
    """Read ``path`` into a :class:`JournalSnapshot`.

    A torn tail — a final record cut short by a crash mid-append — is
    truncated, not fatal: the snapshot covers every intact record and
    notes the dropped byte count. Corruption *before* the tail (a CRC
    mismatch followed by further intact records) is indistinguishable
    from a tail tear at read time, so the read conservatively stops at
    the first bad frame either way. A file that is empty or a prefix of
    the magic is a journal whose admission commit never landed: it
    reads as an empty snapshot. A frame whose CRC holds but whose body
    is malformed raises :class:`JournalError` naming its offset.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    snapshot = JournalSnapshot()
    if len(blob) < len(MAGIC) and MAGIC.startswith(blob):
        snapshot.truncated_bytes = len(blob)
        return snapshot
    magic = blob[:len(MAGIC)]
    if magic != MAGIC:
        if magic[:2] == MAGIC[:2]:
            raise JournalError(
                "%r is a %s journal; this build reads only %s"
                % (path, magic.decode("ascii", "replace"), MAGIC.decode()))
        raise JournalError("bad magic; %r is not a %s journal"
                           % (path, MAGIC.decode()))
    pos = len(MAGIC)
    while pos < len(blob):
        frame_start = pos
        try:
            length, pos = _read_varint(blob, pos)
        except WireError:
            break  # torn varint at the tail
        if length < 5 or pos + length > len(blob):
            break  # torn frame
        body = blob[pos:pos + length - 4]
        crc = int.from_bytes(blob[pos + length - 4:pos + length], "little")
        if _CRC(body) != crc:
            break  # torn mid-record write
        pos += length
        try:
            _decode_body(body, snapshot)
        except (ValueError, RecursionError) as exc:
            # JournalError, UnicodeDecodeError and JSONDecodeError
            # are all ValueErrors; deep JSON recurses.
            raise JournalError("malformed record at offset %d: %s"
                               % (frame_start, exc))
        snapshot.valid_length = pos
    if snapshot.valid_length == 0:
        snapshot.valid_length = len(MAGIC)
    snapshot.truncated_bytes = len(blob) - snapshot.valid_length
    return snapshot


def _check_config(config):
    """A CONFIG payload must be an object whose entries are labelled."""
    entries = config.get("entries", []) if isinstance(config, dict) \
        else None
    if not isinstance(entries, list) or not all(
            isinstance(entry, dict)
            and isinstance(entry.get("label"), str)
            and isinstance(entry.get("digest"), str)
            for entry in entries):
        raise JournalError("config record is not a batch description")
    return config


def _decode_body(body, snapshot):
    reader = BodyReader(body, JournalError, "record body truncated",
                        snapshot.strings)
    kind = reader.byte()
    if kind == _CONFIG:
        if snapshot.config is not None:
            raise JournalError("second config record")
        snapshot.config = _check_config(
            json.loads(reader.text("config record")))
    elif kind == _INTERN:
        snapshot.strings.append(reader.text("interned string"))
    elif kind == _START:
        snapshot.starts.append(StartRecord(
            reader.varint(), reader.ref(), reader.varint()))
    elif kind == _FINISH:
        index = reader.varint()
        label = reader.ref()
        status_code = reader.byte()
        if status_code >= len(_STATUSES):
            raise JournalError("unknown finish status %d" % status_code)
        attempts = reader.varint()
        worker_field = reader.varint()
        flags = reader.byte()
        if flags > 7:
            raise JournalError("unknown finish flags %#x" % flags)
        blob = reader.take(reader.varint()) if flags & 1 else None
        error_class = reader.ref() if flags & 2 else None
        error = reader.ref() if flags & 2 else None
        diagnosis = _maybe_json(reader) if flags & 4 else None
        snapshot.finishes.append(FinishRecord(
            index, label, _STATUSES[status_code], attempts=attempts,
            worker_id=None if worker_field == 0 else worker_field - 1,
            blob=blob, error=error, error_class=error_class,
            diagnosis=diagnosis))
    elif kind == _EVENT:
        snapshot.events.append(JournalEvent(reader.ref(),
                                            _maybe_json(reader)))
    else:
        raise JournalError("unknown journal record type %d" % kind)
    if reader.pos != len(body):
        raise JournalError("%d trailing byte(s) in record body"
                           % (len(body) - reader.pos))


# -- writing ------------------------------------------------------------------


class RunJournal:
    """Appends WJ2 records to a journal file, fsync per commit.

    Use :meth:`create` for a fresh run and :meth:`resume` to continue
    one: resume reads the existing file, verifies its config against
    the submitted batch, truncates any torn tail, and appends from
    there — the intern table carries over so references stay valid.
    """

    def __init__(self, path, handle, strings, fsync=True, pending=b""):
        self.path = path
        self._handle = handle
        self._ids = {text: ref + 1 for ref, text in enumerate(strings)}
        self._fsync = fsync
        self._closed = False
        #: Bytes waiting for the next commit: a fresh journal's magic
        #: and CONFIG record, which go out with the first START wave.
        self._pending = pending

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(cls, path, config, fsync=True):
        """Start a fresh journal (truncating any existing file).

        Nothing but the truncation reaches the disk yet: the magic and
        the ``CONFIG`` record are committed together with the first
        :meth:`start` (or whatever record comes first, or :meth:`close`).
        """
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        handle = open(path, "wb")
        body = bytearray([_CONFIG])
        cls._text(body, json.dumps(config, sort_keys=True))
        return cls(path, handle, [], fsync=fsync,
                   pending=MAGIC + cls._frame(body))

    @classmethod
    def resume(cls, path, labels=None, digests=None, fsync=True,
               config=None):
        """Reopen ``path`` for appending; returns ``(journal, snapshot)``.

        The torn tail (if any) is physically truncated so the next
        append starts on a record boundary. With ``labels``/``digests``
        given, the journal's config is verified against them first.
        A journal whose admission commit never landed (no ``CONFIG``
        record) ran nothing: given the ``config`` a fresh run would
        write, it starts over with it; without one it is rejected.
        """
        snapshot = read_journal(path)
        if snapshot.config is None and config is not None:
            return cls.create(path, config, fsync=fsync), snapshot
        if labels is not None:
            verify_config(snapshot.config, labels, digests)
        elif snapshot.config is None:
            raise JournalError("journal has no batch config record")
        handle = open(path, "r+b")
        handle.truncate(snapshot.valid_length)
        handle.seek(snapshot.valid_length)
        return cls(path, handle, snapshot.strings, fsync=fsync), snapshot

    def close(self):
        if self._closed:
            return
        if self._pending:
            self._commit(b"")
        self._closed = True
        self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, tb):
        self.close()
        return False

    # -- records ------------------------------------------------------------

    def start(self, entries, attempt=1):
        """Traces were admitted for execution: one write, one fsync.

        ``entries`` is a sequence of ``(index, label)`` pairs — a pooled
        run's whole admission wave, or the one trace a serial run is
        about to execute.
        """
        out = bytearray()
        for index, label in entries:
            body = bytearray([_START])
            _write_varint(body, index)
            _write_varint(body, self._ref(label, out))
            _write_varint(body, attempt)
            out += self._frame(body)
        self._commit(out)

    def finish(self, index, label, status, attempts=1, worker_id=None,
               blob=None, error=None, error_class=None, diagnosis=None):
        """A trace reached its final outcome; fsync'd before returning.

        ``blob`` is the report's WR3 blob, embedded verbatim;
        ``diagnosis`` is the quarantine bundle.
        """
        if status not in _STATUS_CODE:
            raise JournalError("unknown finish status %r" % status)
        out = bytearray()
        body = bytearray([_FINISH])
        _write_varint(body, index)
        _write_varint(body, self._ref(label, out))
        body.append(_STATUS_CODE[status])
        _write_varint(body, attempts)
        _write_varint(body, 0 if worker_id is None else worker_id + 1)
        flags = ((1 if blob is not None else 0)
                 | (2 if error is not None or error_class is not None else 0)
                 | (4 if diagnosis is not None else 0))
        body.append(flags)
        if flags & 1:
            _write_varint(body, len(blob))
            body += blob
        if flags & 2:
            _write_varint(body, self._ref(error_class, out))
            _write_varint(body, self._ref(error, out))
        if flags & 4:
            self._json(body, diagnosis)
        out += self._frame(body)
        self._commit(out)

    def event(self, kind, **payload):
        """A run-level annotation (``drain``, ``degraded``, ...)."""
        out = bytearray()
        body = bytearray([_EVENT])
        _write_varint(body, self._ref(kind, out))
        self._json(body, payload or None)
        out += self._frame(body)
        self._commit(out)

    # -- encoding helpers ---------------------------------------------------

    def _ref(self, text, out):
        """Intern ``text``, appending an INTERN frame to ``out`` when new."""
        if text is None:
            return 0
        ref = self._ids.get(text)
        if ref is None:
            ref = len(self._ids) + 1
            self._ids[text] = ref
            body = bytearray([_INTERN])
            self._text(body, text)
            out += self._frame(body)
        return ref

    @staticmethod
    def _text(body, text):
        encoded = text.encode("utf-8")
        _write_varint(body, len(encoded))
        body += encoded

    @staticmethod
    def _json(body, payload):
        if payload is None:
            _write_varint(body, 0)
            return
        encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
        _write_varint(body, len(encoded))
        body += encoded

    @staticmethod
    def _frame(body):
        frame = bytearray()
        _write_varint(frame, len(body) + 4)
        frame += body
        frame += _CRC(bytes(body)).to_bytes(4, "little")
        return frame

    def _commit(self, data):
        if self._closed:
            raise JournalError("journal %r is closed" % self.path)
        if self._pending:
            data = self._pending + data
            self._pending = b""
        self._handle.write(data)
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())

    def __repr__(self):
        return "RunJournal(%r)" % self.path


def verify_exactly_once(path, expected_labels=None):
    """Audit a finished journal for exactly-once execution.

    Returns a JSON-able verdict: every configured trace must hold
    exactly one finish record — no losses, no duplicates. The soak
    harness calls this after every kill/resume scenario.
    """
    snapshot = read_journal(path)
    entries = (snapshot.config or {}).get("entries", [])
    labels = [entry["label"] for entry in entries]
    duplicates = snapshot.duplicate_finishes()
    missing = snapshot.unfinished_indexes()
    verdict = {
        "traces": len(entries),
        "finished": len(snapshot.completed_indexes()),
        "missing": [labels[i] for i in missing if i < len(labels)],
        "duplicates": sorted({labels[i] for i in duplicates
                              if i < len(labels)}),
        "torn_bytes": snapshot.truncated_bytes,
        "events": [event.kind for event in snapshot.events],
    }
    verdict["exactly_once"] = not verdict["missing"] \
        and not verdict["duplicates"] and bool(entries)
    if expected_labels is not None:
        verdict["labels_match"] = list(expected_labels) == labels
        verdict["exactly_once"] = (verdict["exactly_once"]
                                   and verdict["labels_match"])
    return verdict

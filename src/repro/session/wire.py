"""Compact binary shipping of replay results across process boundaries.

A pooled trace's result has exactly one encoding on its way through the
farm: the worker packs its :class:`~repro.session.report.ReplayReport`
into one flat ``bytes`` blob, the result queue carries that blob (pickling
``bytes`` is a length-prefixed memcpy), the run journal stores it as-is,
and the parent decodes it once against the trace object it already
holds. The blob therefore never repeats what the parent knows: it holds
no trace text, and a result whose command is the trace's own command at
the same position is a single ``0`` byte.

Format (version tag ``WR3``):

- **varints** — unsigned LEB128 for every integer (lengths, counts,
  refs, hit/miss totals), so small numbers cost one byte;
- **string interning** — every string in the payload (statuses,
  details, error types/messages, cache names, off-trace command lines)
  is stored once in a table and referenced by 1-based index, with ``0``
  as the ``None`` sentinel;
- **positional commands** — a result's command field is ``0`` when the
  command is the trace's command at the result's position, otherwise a
  string reference to the command's line;
- **counters as arrays** — perf counters ship as parallel
  name-ref/hits/misses/rate records; hit rates are carried as raw IEEE
  doubles so decoded floats are bit-identical to the encoder's.

Each side pays for a report's distinct content: the encoder writes a
repeated error triple, and a repeat of the last clean five-byte result
record, by copying its bytes; the decoder reads every
result's fields inline, decodes a repeat of the last clean five-byte
result record by one comparison, and builds one :class:`RemoteError`
per distinct triple, shared by every field that repeats it (nothing
raises or edits a decoded error).

:func:`decode_report` is the inverse of :func:`encode_report` given the
same trace: ``decode_report(encode_report(r), r.trace).to_dict() ==
r.to_dict()`` — the oracle the wire tests check. Every malformed blob
raises :class:`WireError` with a message naming the defect.
"""

import struct
import sys

from repro.session.report import CommandResult, RemoteError, ReplayReport
from repro.util.errors import TraceFormatError, classify

#: Format tag; bump when the layout changes incompatibly.
MAGIC = b"WR3"

#: The net-fidelity counters, in wire order.
_NET_FIDELITY_KEYS = ("failed_fetches", "timeouts", "tape_misses")

#: CommandResult statuses packed as one byte; anything else ships as a
#: string reference after the ``_STATUS_OTHER`` marker.
_STATUSES = ("ok", "relaxed", "coordinate-fallback", "failed")
_STATUS_CODE = {status: code for code, status in enumerate(_STATUSES)}
_STATUS_OTHER = 0xFF

_DOUBLE = struct.Struct("<d")


class WireError(ValueError):
    """A blob that is not a well-formed WR3 payload."""


# -- primitives ---------------------------------------------------------------


def _write_varint(out, value):
    """Append ``value`` (non-negative int) as unsigned LEB128."""
    if value < 0:
        raise WireError("varint cannot encode negative value %r" % value)
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _varint(blob, pos):
    """The varint at ``pos`` and the position after it (bounds are the
    caller's ``IndexError``)."""
    byte = blob[pos]
    if byte < 0x80:
        return byte, pos + 1
    result = byte & 0x7F
    shift = 7
    while True:
        pos += 1
        byte = blob[pos]
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos + 1
        shift += 7
        if shift > 63:
            raise WireError("varint too long")


def _read_varint(blob, pos):
    """:func:`_varint` for other decoders: a read past the end raises
    ``WireError("truncated varint")``."""
    try:
        return _varint(blob, pos)
    except IndexError:
        raise WireError("truncated varint") from None


class BodyReader:
    """Bounds-checked cursor over a varint + interned-string body.

    The WJ2 journal and the WT1 tape decode their bodies with it. Every
    read past the end, bad varint, bad UTF-8 or dangling string
    reference raises ``error`` — the decoder's own typed error class —
    and a read past the end carries the decoder's ``truncated``
    message. :meth:`ref` resolves against ``strings``, the body's
    1-based interned string table.
    """

    __slots__ = ("blob", "pos", "strings", "error", "truncated")

    def __init__(self, blob, error, truncated, strings=None, pos=0):
        self.blob = blob
        self.pos = pos
        self.strings = strings if strings is not None else []
        self.error = error
        self.truncated = truncated

    def varint(self):
        try:
            value, self.pos = _read_varint(self.blob, self.pos)
        except WireError as exc:
            raise self.error("%s at byte %d" % (exc, self.pos))
        return value

    def byte(self):
        if self.pos >= len(self.blob):
            raise self.error(self.truncated)
        value = self.blob[self.pos]
        self.pos += 1
        return value

    def take(self, count):
        if self.pos + count > len(self.blob):
            raise self.error(self.truncated)
        chunk = self.blob[self.pos:self.pos + count]
        self.pos += count
        return chunk

    def text(self, what="string"):
        """A length-prefixed UTF-8 string; ``what`` names it in errors."""
        data = self.take(self.varint())
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError:
            raise self.error("%s is not valid UTF-8" % what)

    def ref(self, required=None):
        """A string reference: 0 is None, otherwise 1-based table index.

        ``required`` names the field when None is not allowed there.
        """
        ref = self.varint()
        if ref == 0:
            if required is not None:
                raise self.error("%s is missing" % required)
            return None
        try:
            return self.strings[ref - 1]
        except IndexError:
            raise self.error("string reference %d outside table" % ref)


class _StringTable:
    """Interned strings, referenced by 1-based index (0 = None)."""

    def __init__(self):
        self._ids = {}
        self.strings = []

    def ref(self, text):
        if text is None:
            return 0
        ref = self._ids.get(text)
        if ref is None:
            self.strings.append(text)
            ref = len(self.strings)
            self._ids[text] = ref
        return ref


# -- encoding -----------------------------------------------------------------


def _encode_error(out, ref, error, chunks):
    """An error triple (type/message/severity) or the None marker.

    ``chunks`` maps each triple this report has encoded to its bytes, so
    a repeated error (one page error per keystroke under a timing bug)
    is three attribute reads and one copy.
    """
    if error is None:
        out.append(0)
        return
    key = (getattr(error, "type_name", None) or type(error).__name__,
           str(error), classify(error))
    chunk = chunks.get(key)
    if chunk is None:
        chunk = bytearray(b"\x01")
        for text in key:
            _write_varint(chunk, ref(text))
        chunk = chunks[key] = bytes(chunk)
    out += chunk


def encode_report(report):
    """Pack a :class:`ReplayReport` into one WR3 blob (no trace text)."""
    table = _StringTable()
    ref = table.ref
    chunks = {}
    body = bytearray()
    append = body.append
    append(1 if report.halted else 0)
    _write_varint(body, ref(report.halt_reason))
    _encode_error(body, ref, report.halt_error, chunks)
    _write_varint(body, ref(report.final_url))
    _write_varint(body, report.recoveries)
    fidelity = report.net_fidelity
    for key in _NET_FIDELITY_KEYS:
        _write_varint(body, fidelity.get(key, 0))
    commands = report.trace.commands
    count = len(commands)
    results = report.results
    _write_varint(body, len(results))
    status_code = _STATUS_CODE
    # One-byte varints are appended inline: this loop runs once per
    # replayed command, and most of its fields are small. A clean
    # replay's results repeat one five-byte record (the trace's own
    # command, one status and detail, no retries, no error): ``record``
    # is the last such record written, for the ``status``, ``detail``
    # and ``retries`` it was written from, and a repeat is one copy.
    record = status = detail = retries = None
    for position, result in enumerate(results):
        command = result.command
        positional = position < count and command is commands[position]
        if record is not None and positional and result.error is None \
                and result.status == status and result.detail == detail \
                and result.retries == retries:
            body += record
            continue
        start = len(body)
        if positional:
            append(0)
        else:
            _write_varint(body, ref(command.to_line()))
        status = result.status
        code = status_code.get(status, _STATUS_OTHER)
        append(code)
        if code == _STATUS_OTHER:
            _write_varint(body, ref(status))
        detail = result.detail
        detail_ref = ref(detail)
        if detail_ref < 0x80:
            append(detail_ref)
        else:
            _write_varint(body, detail_ref)
        retries = result.retries
        if retries < 0x80:
            append(retries)
        else:
            _write_varint(body, retries)
        if result.error is None:
            append(0)
            if positional and len(body) - start == 5:
                record = body[start:]
            else:
                record = None
        else:
            _encode_error(body, ref, result.error, chunks)
            record = None
    page_errors = report.page_errors
    _write_varint(body, len(page_errors))
    for error in page_errors:
        _encode_error(body, ref, error, chunks)
    counters = report.perf_counters
    _write_varint(body, len(counters))
    for name in sorted(counters):
        counts = counters[name]
        _write_varint(body, ref(name))
        _write_varint(body, counts["hits"])
        _write_varint(body, counts["misses"])
        rate = counts.get("hit_rate")
        if rate is None:
            append(0)
        else:
            append(1)
            body.extend(_DOUBLE.pack(rate))

    out = bytearray(MAGIC)
    _write_varint(out, len(table.strings))
    for text in table.strings:
        encoded = text.encode("utf-8")
        _write_varint(out, len(encoded))
        out.extend(encoded)
    out.extend(body)
    return bytes(out)


# -- decoding -----------------------------------------------------------------


def decode_report(blob, trace):
    """Rebuild the :class:`ReplayReport` in ``blob`` on ``trace``.

    ``trace`` is the trace the report was replayed from; positional
    command references resolve to its command objects. Decoding runs
    once per pooled trace as its result arrives, and once per journaled
    trace on resume, so it is a flat loop over local state: a result's
    one-byte fields are read inline, repeated records and error triples
    are decoded once, and bounds are enforced by the interpreter's own
    ``IndexError`` on ``blob[pos]`` rather than a check per byte.
    """
    if not isinstance(blob, (bytes, bytearray, memoryview)):
        raise WireError("wire payload must be bytes, got %s"
                        % type(blob).__name__)
    blob = bytes(blob)
    magic = blob[:len(MAGIC)]
    if magic != MAGIC:
        if magic[:2] == MAGIC[:2] and len(magic) == len(MAGIC):
            raise WireError("unsupported wire version %s; this build reads "
                            "only %s" % (magic.decode("ascii", "replace"),
                                         MAGIC.decode()))
        raise WireError("bad magic; not a %s payload" % MAGIC.decode())
    try:
        report, pos = _decode_payload(blob, len(MAGIC), trace)
    except (IndexError, struct.error):
        raise WireError("truncated payload")
    if pos != len(blob):
        raise WireError("%d trailing byte(s) after payload"
                        % (len(blob) - pos))
    return report


def _string(blob, pos, strings):
    """A string reference (0 is None, otherwise a 1-based index into
    ``strings``) and the position after it."""
    ref, pos = _varint(blob, pos)
    if ref == 0:
        return None, pos
    if ref > len(strings):
        raise WireError("string reference %d outside table of %d"
                        % (ref, len(strings)))
    return strings[ref - 1], pos


def _flag(blob, pos, what):
    byte = blob[pos]
    if byte > 1:
        raise WireError("bad %s flag %d" % (what, byte))
    return byte, pos + 1


def _error(blob, pos, strings, errors):
    """The error flag, then (flag 1) the type/message/severity refs; and
    the position after them.

    A report's errors repeat (one page error per keystroke under a
    timing bug), so each distinct triple is decoded once and its
    :class:`RemoteError` shared by every field that repeats it.
    ``errors`` holds the report's triples whose three refs are one byte
    each, by those three bytes.
    """
    byte = blob[pos]
    if byte == 0:
        return None, pos + 1
    if byte != 1:
        raise WireError("bad error flag %d" % byte)
    pos += 1
    key = blob[pos:pos + 3]
    if key in errors:
        return errors[key], pos + 3
    start = pos
    type_name, pos = _string(blob, pos, strings)
    message, pos = _string(blob, pos, strings)
    severity, pos = _string(blob, pos, strings)
    error = RemoteError(message, type_name=type_name, severity=severity)
    if pos - start == 3:
        errors[key] = error
    return error, pos


def _decode_payload(blob, pos, trace):
    strings = []
    count, pos = _varint(blob, pos)
    for index in range(count):
        length, pos = _varint(blob, pos)
        end = pos + length
        if end > len(blob):
            raise WireError("truncated payload")
        try:
            strings.append(blob[pos:end].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise WireError("string %d is not valid UTF-8 (%s)"
                            % (index + 1, exc.reason))
        pos = end

    errors = {}
    report = ReplayReport(trace)
    halted, pos = _flag(blob, pos, "halted")
    report.halted = bool(halted)
    report.halt_reason, pos = _string(blob, pos, strings)
    report.halt_error, pos = _error(blob, pos, strings, errors)
    report.final_url, pos = _string(blob, pos, strings)
    report.recoveries, pos = _varint(blob, pos)
    fidelity = report.net_fidelity = {}
    for key in _NET_FIDELITY_KEYS:
        fidelity[key], pos = _varint(blob, pos)
    commands = trace.commands
    n_commands = len(commands)
    n_strings = len(strings)
    statuses = _STATUSES
    n_statuses = len(statuses)
    results = report.results
    append = results.append
    count, pos = _varint(blob, pos)
    # Each result's fields are read inline, the way encode_report
    # writes them: a one-byte varint is the byte itself, and only a
    # longer one goes through _varint. A clean replay's results repeat
    # one five-byte record (the trace's own command, one status and
    # detail, no retries, no error); ``same`` holds the last such record
    # decoded, whose status, detail and retries are still bound, so a
    # repeat costs one comparison.
    same = None
    for position in range(count):
        if blob[pos:pos + 5] == same and position < n_commands:
            pos += 5
            append(CommandResult(commands[position], status, detail, None,
                                 retries))
            continue
        start = pos
        ref = blob[pos]
        if ref < 0x80:
            pos += 1
        else:
            ref, pos = _varint(blob, pos)
        if ref == 0:
            if position >= n_commands:
                raise WireError(
                    "result %d refers to the trace's command at its "
                    "position, but the trace has %d command(s)"
                    % (position, n_commands))
            command = commands[position]
        else:
            if ref > n_strings:
                raise WireError("string reference %d outside table of %d"
                                % (ref, n_strings))
            command = _parse_command(strings[ref - 1], position)
        code = blob[pos]
        pos += 1
        if code < n_statuses:
            status = statuses[code]
        elif code == _STATUS_OTHER:
            status, pos = _string(blob, pos, strings)
        else:
            raise WireError("unknown status code %d" % code)
        ref = blob[pos]
        if ref < 0x80:
            pos += 1
        else:
            ref, pos = _varint(blob, pos)
        if ref == 0:
            detail = None
        elif ref > n_strings:
            raise WireError("string reference %d outside table of %d"
                            % (ref, n_strings))
        else:
            detail = strings[ref - 1]
        retries = blob[pos]
        if retries < 0x80:
            pos += 1
        else:
            retries, pos = _varint(blob, pos)
        if blob[pos] == 0:
            pos += 1
            append(CommandResult(command, status, detail, None, retries))
            if pos - start == 5 and blob[start] == 0:
                same = blob[start:pos]
            else:
                same = None
        else:
            error, pos = _error(blob, pos, strings, errors)
            append(CommandResult(command, status, detail, error, retries))
            same = None
    page_errors = report.page_errors
    count, pos = _varint(blob, pos)
    for _ in range(count):
        error, pos = _error(blob, pos, strings, errors)
        page_errors.append(error)
    counters = report.perf_counters
    count, pos = _varint(blob, pos)
    for _ in range(count):
        name, pos = _string(blob, pos, strings)
        if name is not None:
            # Cache names are a small fixed set; interned, the decoded
            # reports a campaign keeps share one copy of each.
            name = sys.intern(name)
        hits, pos = _varint(blob, pos)
        misses, pos = _varint(blob, pos)
        rate = None
        flag, pos = _flag(blob, pos, "hit-rate")
        if flag:
            rate = _DOUBLE.unpack_from(blob, pos)[0]
            pos += 8
        counters[name] = {"hits": hits, "misses": misses, "hit_rate": rate}
    return report, pos


def _parse_command(line, position):
    # Imported here: repro.core pulls in repro.net, whose tape codec
    # imports this module's primitives.
    from repro.core.commands import parse_command_line

    try:
        return parse_command_line(line)
    except TraceFormatError as exc:
        raise WireError("result %d carries an unparsable command line: %s"
                        % (position, exc))

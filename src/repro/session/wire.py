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

:func:`decode_report` is the inverse of :func:`encode_report` given the
same trace: ``decode_report(encode_report(r), r.trace).to_dict() ==
r.to_dict()`` — the oracle the wire tests check. Every malformed blob
raises :class:`WireError` with a message naming the defect.
"""

import struct

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


def _read_varint(blob, pos):
    result = 0
    shift = 0
    while True:
        if pos >= len(blob):
            raise WireError("truncated varint")
        byte = blob[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise WireError("varint too long")


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


def _encode_error(out, ref, error):
    """An error triple (type/message/severity) or the None marker."""
    if error is None:
        out.append(0)
        return
    out.append(1)
    _write_varint(out, ref(getattr(error, "type_name", None)
                           or type(error).__name__))
    _write_varint(out, ref(str(error)))
    _write_varint(out, ref(classify(error)))


def encode_report(report):
    """Pack a :class:`ReplayReport` into one WR3 blob (no trace text)."""
    table = _StringTable()
    ref = table.ref
    body = bytearray()
    append = body.append
    append(1 if report.halted else 0)
    _write_varint(body, ref(report.halt_reason))
    _encode_error(body, ref, report.halt_error)
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
    # replayed command, and most of its fields are small.
    for position, result in enumerate(results):
        command = result.command
        if position < count and command is commands[position]:
            append(0)
        else:
            _write_varint(body, ref(command.to_line()))
        code = status_code.get(result.status, _STATUS_OTHER)
        append(code)
        if code == _STATUS_OTHER:
            _write_varint(body, ref(result.status))
        detail = ref(result.detail)
        if detail < 0x80:
            append(detail)
        else:
            _write_varint(body, detail)
        retries = result.retries
        if retries < 0x80:
            append(retries)
        else:
            _write_varint(body, retries)
        if result.error is None:
            append(0)
        else:
            _encode_error(body, ref, result.error)
    page_errors = report.page_errors
    _write_varint(body, len(page_errors))
    for error in page_errors:
        _encode_error(body, ref, error)
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
    trace on resume, so it is a flat loop over local state: varints take
    a one-byte fast path, and bounds are enforced by the interpreter's
    own ``IndexError`` on ``blob[pos]`` rather than a check per byte.
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


def _decode_payload(blob, pos, trace):
    strings = []

    def varint():
        nonlocal pos
        byte = blob[pos]
        pos += 1
        if byte < 0x80:
            return byte
        result = byte & 0x7F
        shift = 7
        while True:
            byte = blob[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 63:
                raise WireError("varint too long")

    def string():
        """A string reference: 0 is None, otherwise 1-based table index."""
        ref = varint()
        if ref == 0:
            return None
        if ref > len(strings):
            raise WireError("string reference %d outside table of %d"
                            % (ref, len(strings)))
        return strings[ref - 1]

    def flag(what):
        nonlocal pos
        byte = blob[pos]
        pos += 1
        if byte > 1:
            raise WireError("bad %s flag %d" % (what, byte))
        return byte

    def error():
        if not flag("error"):
            return None
        type_name = string()
        message = string()
        return RemoteError(message, type_name=type_name, severity=string())

    for index in range(varint()):
        length = varint()
        if pos + length > len(blob):
            raise WireError("truncated payload")
        try:
            strings.append(blob[pos:pos + length].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise WireError("string %d is not valid UTF-8 (%s)"
                            % (index + 1, exc.reason))
        pos += length

    report = ReplayReport(trace)
    report.halted = bool(flag("halted"))
    report.halt_reason = string()
    report.halt_error = error()
    report.final_url = string()
    report.recoveries = varint()
    report.net_fidelity = {key: varint() for key in _NET_FIDELITY_KEYS}
    commands = trace.commands
    count = len(commands)
    n_strings = len(strings)
    statuses = _STATUSES
    n_statuses = len(statuses)
    results = []
    for position in range(varint()):
        # Inline the command reference and the one-byte status code —
        # per-result overhead is what decode time is made of.
        byte = blob[pos]
        pos += 1
        ref = byte if byte < 0x80 else (byte & 0x7F) | (varint() << 7)
        if ref == 0:
            if position >= count:
                raise WireError(
                    "result %d refers to the trace's command at its "
                    "position, but the trace has %d command(s)"
                    % (position, count))
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
            status = string()
        else:
            raise WireError("unknown status code %d" % code)
        results.append(CommandResult(command, status, detail=string(),
                                     retries=varint(), error=error()))
    report.results = results
    report.page_errors = [error() for _ in range(varint())]
    counters = {}
    for _ in range(varint()):
        name = string()
        hits = varint()
        misses = varint()
        rate = None
        if flag("hit-rate"):
            rate = _DOUBLE.unpack_from(blob, pos)[0]
            pos += 8
        counters[name] = {"hits": hits, "misses": misses, "hit_rate": rate}
    report.perf_counters = counters
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

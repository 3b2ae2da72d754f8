"""The WR3 result wire format: the codec against its oracle, and fuzzing.

The oracle is the report's JSON form: for every report ``r``,
``decode_report(encode_report(r), r.trace).to_dict() == r.to_dict()``.
These tests check it on real replays of all four paper apps, on
hand-built edge cases, and (via hypothesis) on generated reports. The
fuzz tests feed both decoders that read WR3 blobs — the wire decoder
and the run-journal reader — arbitrary bytes and mutated valid
payloads, and accept nothing but their typed errors.
"""

import functools
import os
import pickle
import struct
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.framework import make_browser
from repro.cli import APPS
from repro.core.commands import (
    ClickCommand,
    DragCommand,
    SwitchFrameCommand,
    TypeCommand,
    parse_command_line,
)
from repro.core.recorder import WarrRecorder
from repro.core.trace import WarrTrace
from repro.session.engine import SessionEngine
from repro.session.journal import MAGIC as JOURNAL_MAGIC
from repro.session.journal import (
    FAILED,
    QUARANTINED,
    REPLAYED,
    JournalError,
    RunJournal,
    batch_config,
    read_journal,
    trace_digest,
)
from repro.session.policies import TimingPolicy
from repro.session.report import CommandResult, RemoteError, ReplayReport
from repro.session.wire import (
    MAGIC,
    WireError,
    _read_varint,
    _write_varint,
    decode_report,
    encode_report,
)
from repro.util.errors import ReplayError
from tests.session.test_batch import factory, record_trace

TRACE = WarrTrace("http://x/", [
    parse_command_line("click //a 5,5 0"),
    parse_command_line("type //input[@name='who'] [a,65] 10"),
    parse_command_line("type //input[@name='who'] [b,66] 10"),
    parse_command_line("click //input[@type='submit'] 40,12 5"),
])


def round_trip(report):
    """Encode, decode on the same trace, and check the oracle."""
    decoded = decode_report(encode_report(report), report.trace)
    assert decoded.to_dict() == report.to_dict()
    assert decoded.trace is report.trace
    return decoded


@functools.lru_cache(maxsize=None)
def app_replay(app, no_wait=False):
    """Record the app's scripted session, then replay it."""
    app_class, session, start_url = APPS[app]
    browser, _ = make_browser([app_class])
    recorder = WarrRecorder().attach(browser)
    recorder.begin(start_url, label=app)
    session(browser)
    recorder.detach()
    replay_browser, _ = make_browser([app_class], developer_mode=True)
    timing = TimingPolicy.no_wait() if no_wait else None
    return SessionEngine(replay_browser, timing=timing).run(recorder.trace)


def report_on(trace=TRACE, results=(), **fields):
    report = ReplayReport(trace)
    report.results = list(results)
    for name, value in fields.items():
        setattr(report, name, value)
    return report


class TestRealReplays:
    @pytest.mark.parametrize("app", ["sites", "gmail", "portal", "docs"])
    def test_app_replay_round_trips(self, app):
        report = app_replay(app)
        assert report.results
        decoded = round_trip(report)
        # Every command the replay ran is the trace's own, so each is
        # reused by position rather than shipped and parsed.
        assert all(mine.command is theirs.command
                   for mine, theirs in zip(decoded.results, report.results))

    def test_sites_timing_bug_page_errors_round_trip(self):
        # Paper §V-C: Sites replayed without waits raises page errors.
        report = app_replay("sites", no_wait=True)
        assert report.page_errors
        round_trip(report)

    @pytest.mark.parametrize("app", ["sites", "gmail", "portal", "docs"])
    def test_blob_carries_no_trace_text(self, app):
        report = app_replay(app)
        blob = encode_report(report)
        assert blob.startswith(MAGIC)
        for command in report.trace:
            assert command.xpath.encode("utf-8") not in blob
        # One byte of command reference per positional result at most
        # a handful more for status, detail, retries and error.
        assert len(blob) < len(report.trace.to_text().encode("utf-8"))

    def test_encoding_is_canonical(self):
        # Re-encoding a decoded report yields the very same bytes, so a
        # journaled blob and a freshly encoded one never disagree.
        report = app_replay("gmail")
        blob = encode_report(report)
        assert encode_report(decode_report(blob, report.trace)) == blob


class TestRoundTrip:
    def test_real_replay_report_round_trips_exactly(self):
        trace = record_trace("wire")
        engine = SessionEngine(factory(), timing=TimingPolicy.no_wait())
        decoded = round_trip(engine.run(trace))
        assert decoded.complete

    def test_halted_report_with_errors_round_trips(self):
        report = report_on(
            results=[CommandResult(TRACE[0], CommandResult.FAILED,
                                   detail="no match",
                                   error=ReplayError("gone"))],
            halted=True, halt_reason="boom",
            halt_error=RemoteError("boom", type_name="ReplayHaltedError",
                                   severity="fatal"))
        decoded = round_trip(report)
        assert decoded.halted and not decoded.complete
        assert decoded.halt_error.type_name == "ReplayHaltedError"
        assert decoded.results[0].error.type_name == "ReplayError"

    def test_relaxed_results_and_coordinate_fallback(self):
        report = report_on(results=[
            CommandResult(TRACE[0], CommandResult.RELAXED,
                          detail="relaxed: dropped [@id]"),
            CommandResult(TRACE[1], CommandResult.OK),
            CommandResult(TRACE[2], CommandResult.OK),
            CommandResult(TRACE[3], CommandResult.COORDINATE,
                          detail="clicked at (40, 12)"),
        ], final_url="http://x/done")
        decoded = round_trip(report)
        assert decoded.relaxed_count == 2

    def test_retries_and_page_errors(self):
        report = report_on(
            results=[CommandResult(TRACE[0], CommandResult.OK, retries=3),
                     CommandResult(TRACE[1], CommandResult.OK,
                                   retries=1000)],
            page_errors=[RemoteError("übel ☃", type_name="ScriptError",
                                     severity="permanent"),
                         ValueError("plain exception")],
            recoveries=2,
            net_fidelity={"failed_fetches": 4, "timeouts": 2,
                          "tape_misses": 1})
        decoded = round_trip(report)
        assert decoded.retry_count == 1003
        assert [e.type_name for e in decoded.page_errors] \
            == ["ScriptError", "ValueError"]

    def test_repeated_records_with_changes_between(self):
        # Runs of one record, broken by records that differ in each
        # field; every decoded result keeps its own values.
        trace = WarrTrace("http://x/", [TRACE[i % 4] for i in range(12)])
        fields = [("ok", ""), ("ok", ""), ("ok", "relaxed"), ("ok", ""),
                  ("relaxed", ""), ("relaxed", ""), ("ok", None),
                  ("ok", None), ("ok", ""), ("ok", ""), ("ok", ""),
                  ("ok", "")]
        results = [CommandResult(trace[i], status, detail)
                   for i, (status, detail) in enumerate(fields)]
        results[3].retries = 2
        results[9] = CommandResult(trace[9], CommandResult.FAILED,
                                   "no match", error=ReplayError("once"))
        # Two equal records whose command is not the trace's own.
        off_trace = parse_command_line("drag //div 3,4 0")
        for index in (10, 11):
            results[index] = CommandResult(off_trace, "ok", "")
        decoded = round_trip(report_on(trace=trace, results=results))
        assert [(r.status, r.detail, r.retries, r.error is None)
                for r in decoded.results] \
            == [(r.status, r.detail, r.retries, r.error is None)
                for r in results]
        assert all(mine.command is theirs for mine, theirs
                   in zip(decoded.results[:10], trace))

    def test_page_errors_repeating_one_triple(self):
        # The timing-bug shape: one error per keystroke, all alike, plus
        # a result error and a halt error with the same triple.
        def bug():
            return RemoteError("editorState is not defined",
                               type_name="ReferenceError",
                               severity="permanent")

        report = report_on(
            results=[CommandResult(TRACE[0], CommandResult.FAILED,
                                   error=bug()),
                     CommandResult(TRACE[1], CommandResult.OK)],
            page_errors=[bug() for _ in range(5)] + [ValueError("other")]
            + [bug()],
            halted=True, halt_reason="boom", halt_error=bug())
        blob = encode_report(report)
        assert blob.count(b"editorState") == 1
        decoded = round_trip(report)
        assert encode_report(decoded) == blob
        errors = decoded.page_errors
        assert [str(error) for error in errors] \
            == ["editorState is not defined"] * 5 + ["other"] \
            + ["editorState is not defined"]
        # Each distinct triple is decoded once and shared.
        assert all(error is errors[0] for error in errors[1:5])
        assert errors[6] is errors[0] is decoded.results[0].error \
            is decoded.halt_error
        assert errors[5].type_name == "ValueError"

    def test_command_not_the_trace_command_at_its_position(self):
        swapped = TRACE[3]
        lookalike = TRACE[1].copy()
        report = report_on(results=[
            CommandResult(swapped, CommandResult.OK),      # wrong position
            CommandResult(lookalike, CommandResult.OK),    # equal, not same
            CommandResult(TRACE[2], CommandResult.OK),
        ])
        decoded = round_trip(report)
        assert decoded.results[0].command is not TRACE[0]
        assert decoded.results[0].command == swapped
        assert decoded.results[1].command == lookalike
        assert decoded.results[2].command is TRACE[2]

    def test_more_results_than_commands_ship_their_lines(self):
        extra = parse_command_line("drag //div 3,4 0")
        report = report_on(results=[
            CommandResult(command, CommandResult.OK) for command in TRACE
        ] + [CommandResult(extra, "weird-status")])
        decoded = round_trip(report)
        assert decoded.results[-1].status == "weird-status"

    def test_fewer_results_than_commands(self):
        report = report_on(results=[CommandResult(TRACE[0], "ok")],
                           halted=True, halt_reason="stopped early")
        assert len(round_trip(report).results) == 1

    def test_empty_report_round_trips(self):
        round_trip(report_on(trace=WarrTrace()))

    def test_hit_rate_doubles_are_bit_identical(self):
        rates = {"a": 1.0 / 3.0, "b": 2.0 ** -1074, "c": 0.1 + 0.2,
                 "d": None}
        report = report_on(perf_counters={
            name: {"hits": 10 ** 12, "misses": 7, "hit_rate": rate}
            for name, rate in rates.items()})
        decoded = round_trip(report)
        for name, rate in rates.items():
            got = decoded.perf_counters[name]["hit_rate"]
            if rate is None:
                assert got is None
            else:
                assert struct.pack("<d", got) == struct.pack("<d", rate)


class TestCompactness:
    def test_interning_beats_pickled_dicts_on_repetitive_batches(self):
        # Many identical off-trace command lines: the line is stored once.
        command = parse_command_line("type //input[@name='who'] [a,65] 120")
        report = report_on(trace=WarrTrace("http://host/page"), results=[
            CommandResult(command, "ok") for _ in range(200)])
        blob = encode_report(report)
        assert blob.count(b"//input") == 1
        assert len(blob) < len(pickle.dumps(report.to_dict()))
        round_trip(report)

    def test_real_report_is_smaller_than_its_pickle(self):
        report = app_replay("gmail")
        assert len(encode_report(report)) \
            < len(pickle.dumps(report.to_dict())) // 4


def frame(strings, body):
    """A hand-built WR3 blob: the string table, then ``body``."""
    out = bytearray(MAGIC)
    _write_varint(out, len(strings))
    for text in strings:
        _write_varint(out, len(text))
        out += text
    return bytes(out + bytes(body))


#: halted, halt-reason, halt-error, final-url, recoveries, 3 fidelity.
HEAD = [0, 0, 0, 0, 0, 0, 0, 0]


class TestMalformedPayloads:
    def test_hand_built_minimal_blob_decodes(self):
        report = decode_report(frame([], HEAD + [0, 0, 0]), TRACE)
        assert report.results == [] and not report.halted

    def test_invalid_utf8(self):
        with pytest.raises(WireError, match="string 1 is not valid UTF-8"):
            decode_report(frame([b"\xff\xfe"], HEAD + [0, 0, 0]), TRACE)

    def test_out_of_range_string_reference(self):
        body = [0, 5] + HEAD[2:] + [0, 0, 0]
        with pytest.raises(WireError,
                           match="string reference 5 outside table of 1"):
            decode_report(frame([b"x"], body), TRACE)

    def test_out_of_range_command_reference(self):
        body = HEAD + [1, 9, 0, 0, 0, 0, 0, 0]
        with pytest.raises(WireError,
                           match="string reference 9 outside table of 0"):
            decode_report(frame([], body), TRACE)

    def test_unknown_status_code(self):
        body = HEAD + [1, 0, 7, 0, 0, 0, 0, 0]
        with pytest.raises(WireError, match="unknown status code 7"):
            decode_report(frame([], body), TRACE)

    def test_positional_reference_beyond_the_trace(self):
        body = HEAD + [1, 0, 0, 0, 0, 0, 0, 0]
        with pytest.raises(WireError, match="trace has 0 command"):
            decode_report(frame([], body), WarrTrace())

    def test_unparsable_shipped_command_line(self):
        body = HEAD + [1, 1, 0, 0, 0, 0, 0, 0]
        with pytest.raises(WireError, match="unparsable command line"):
            decode_report(frame([b"bogus"], body), TRACE)

    def test_trailing_garbage_rejected(self):
        blob = encode_report(app_replay("portal"))
        with pytest.raises(WireError, match="1 trailing byte"):
            decode_report(blob + b"\x00", app_replay("portal").trace)

    def test_bad_magic_rejected(self):
        with pytest.raises(WireError, match="bad magic"):
            decode_report(b"XX1whatever", TRACE)

    def test_old_magic_names_its_version(self):
        with pytest.raises(WireError, match="unsupported wire version WR2"):
            decode_report(b"WR2" + frame([], HEAD + [0, 0, 0])[3:], TRACE)

    def test_non_bytes_rejected(self):
        with pytest.raises(WireError, match="bytes"):
            decode_report({"not": "bytes"}, TRACE)

    def test_magic_is_versioned(self):
        assert MAGIC == b"WR3"
        assert encode_report(report_on()).startswith(MAGIC)

    #: One positional result: command 0, status ok, then ``tail``.
    @staticmethod
    def one_result(tail, strings=()):
        return frame(list(strings), HEAD + [1, 0, 0] + list(tail))

    def test_result_error_flag_of_two(self):
        blob = self.one_result([0, 0, 2, 0, 0])
        with pytest.raises(WireError, match="bad error flag 2"):
            decode_report(blob, TRACE)

    def test_detail_reference_past_the_string_table(self):
        blob = self.one_result([5, 0, 0, 0, 0], strings=[b"x"])
        with pytest.raises(WireError,
                           match="string reference 5 outside table of 1"):
            decode_report(blob, TRACE)

    def test_multibyte_detail_reference_past_the_string_table(self):
        blob = self.one_result([0x80, 0x01, 0, 0, 0, 0])
        with pytest.raises(WireError,
                           match="string reference 128 outside table of 0"):
            decode_report(blob, TRACE)

    def test_repeated_record_past_the_trace_end(self):
        # Five identical positional records on a four-command trace.
        blob = frame([], HEAD + [5] + [0, 0, 0, 0, 0] * 5 + [0, 0])
        with pytest.raises(WireError, match="result 4 refers to the "
                           "trace's command at its position, but the "
                           "trace has 4 command"):
            decode_report(blob, TRACE)

    def test_truncated_retries_varint(self):
        blob = self.one_result([0, 0x80])
        with pytest.raises(WireError, match="truncated payload"):
            decode_report(blob, TRACE)

    def test_bad_flag_inside_a_repeated_error_triple(self):
        strings = [b"ScriptError", b"editorState is not defined",
                   b"permanent"]
        triple = [1, 1, 2, 3]
        # A result's error, then page errors repeating its triple: the
        # third repeat carries a bad flag and must not be served from
        # the decoded triple.
        blob = self.one_result([0, 0] + triple + [3] + triple + triple
                               + [2, 1, 2, 3, 0], strings=strings)
        with pytest.raises(WireError, match="bad error flag 2"):
            decode_report(blob, TRACE)

    def test_dangling_reference_in_a_repeated_error_triple(self):
        strings = [b"E", b"m", b"permanent"]
        blob = self.one_result([0, 0, 1, 1, 2, 3, 2, 1, 1, 2, 3,
                                1, 1, 2, 9, 0], strings=strings)
        with pytest.raises(WireError,
                           match="string reference 9 outside table of 3"):
            decode_report(blob, TRACE)

    def test_truncated_payload_rejected(self):
        # Every proper prefix, not just the halfway cut.
        report = app_replay("portal")
        blob = encode_report(report)
        for cut in range(len(blob)):
            with pytest.raises(WireError):
                decode_report(blob[:cut], report.trace)


# -- property test: generated reports ----------------------------------------

_text = st.text(max_size=30)
_opt_text = st.none() | _text
_xpath = st.sampled_from(["//a", "//div[@id='x']", "/html/body/input[2]",
                          "default"])
_elapsed = st.integers(min_value=0, max_value=10 ** 6)
_coordinate = st.integers(min_value=-500, max_value=5000)
_command = st.one_of(
    st.builds(ClickCommand, _xpath, _coordinate, _coordinate, _elapsed),
    st.builds(DragCommand, _xpath, _coordinate, _coordinate, _elapsed),
    st.builds(TypeCommand, _xpath,
              st.sampled_from(["a", " ", "\n", "[", "]", "\\", "é", "Enter"]),
              st.integers(min_value=0, max_value=255), _elapsed),
    st.builds(SwitchFrameCommand, _xpath, _elapsed),
)
_error = st.none() | st.builds(
    RemoteError, _text, type_name=_text,
    severity=st.sampled_from(["transient", "permanent", "fatal"])) \
    | st.builds(ValueError, _text)
_status = st.sampled_from(["ok", "relaxed", "coordinate-fallback",
                           "failed"]) | _text
_result = st.tuples(st.booleans(), _command, _status, _opt_text,
                    st.integers(min_value=0, max_value=10 ** 9), _error)
_counter = st.fixed_dictionaries({
    "hits": st.integers(min_value=0, max_value=10 ** 12),
    "misses": st.integers(min_value=0, max_value=10 ** 12),
    "hit_rate": st.none() | st.floats(allow_nan=False),
})
_count = st.integers(min_value=0, max_value=10 ** 9)


@st.composite
def _reports(draw):
    trace = WarrTrace("http://x/", draw(st.lists(_command, max_size=6)))
    report = ReplayReport(trace)
    for position, (positional, command, status, detail, retries, error) \
            in enumerate(draw(st.lists(_result, max_size=8))):
        if positional and position < len(trace):
            command = trace[position]
        report.results.append(CommandResult(command, status, detail=detail,
                                            error=error, retries=retries))
    report.halted = draw(st.booleans())
    report.halt_reason = draw(_opt_text)
    report.halt_error = draw(_error)
    report.page_errors = draw(st.lists(_error.filter(bool), max_size=3))
    report.final_url = draw(_opt_text)
    report.recoveries = draw(_count)
    report.perf_counters = draw(st.dictionaries(_text, _counter, max_size=4))
    report.net_fidelity = {"failed_fetches": draw(_count),
                           "timeouts": draw(_count),
                           "tape_misses": draw(_count)}
    return report


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(_reports())
    def test_any_schema_shaped_report_round_trips(self, report):
        round_trip(report)


# -- fuzzing both decoders ----------------------------------------------------


def _seed_blobs():
    """Valid blobs that cover every field, each with its trace."""
    halted = report_on(
        results=[CommandResult(TRACE[0], CommandResult.RELAXED, "r",
                               retries=2, error=ReplayError("x")),
                 CommandResult(TRACE[3], "odd")],
        halted=True, halt_reason="h",
        halt_error=RemoteError("h", type_name="E", severity="fatal"),
        page_errors=[ValueError("p")], final_url="http://x/",
        perf_counters={"c": {"hits": 1, "misses": 2, "hit_rate": 1 / 3}})
    plain = report_on(results=[CommandResult(c, "ok") for c in TRACE])
    return [(encode_report(report), report.trace)
            for report in (halted, plain)]


SEED_BLOBS = _seed_blobs()

_mutation = st.tuples(
    st.sampled_from(["flip", "set", "insert", "delete"]),
    st.integers(min_value=0, max_value=10 ** 6),
    st.integers(min_value=0, max_value=255),
)


def mutate(data, mutations):
    data = bytearray(data)
    for kind, where, value in mutations:
        position = where % (len(data) + 1)
        if kind == "insert":
            data[position:position] = bytes([value])
        elif position < len(data):
            if kind == "flip":
                data[position] ^= 1 << (value % 8)
            elif kind == "set":
                data[position] = value
            else:
                del data[position:position + 1 + value % 4]
    return bytes(data)


def decode_or_wire_error(blob, trace):
    try:
        decode_report(blob, trace)
    except WireError:
        pass


def _frames(data):
    """Split a journal file into its record bodies."""
    frames = []
    pos = len(JOURNAL_MAGIC)
    while pos < len(data):
        length, start = _read_varint(data, pos)
        frames.append(data[start:start + length - 4])
        pos = start + length
    return frames


def _reframe(bodies):
    """A journal file holding ``bodies`` as validly framed records."""
    return JOURNAL_MAGIC + b"".join(bytes(RunJournal._frame(body))
                                    for body in bodies)


def _seed_journal():
    """A journal using every record kind, report blobs included."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "seed.wj2")
        labels = ["a", "b", "c"]
        config = batch_config(labels, [trace_digest(x) for x in labels],
                              "pooled")
        with RunJournal.create(path, config, fsync=False) as journal:
            journal.start([(0, "a"), (1, "b"), (2, "c")])
            journal.finish(0, "a", REPLAYED, worker_id=0,
                           blob=SEED_BLOBS[0][0])
            journal.finish(1, "b", QUARANTINED, attempts=2,
                           error="died", error_class="WorkerCrashError",
                           diagnosis={"label": "b", "attempts": 2})
            journal.finish(2, "c", FAILED, blob=SEED_BLOBS[1][0])
            journal.event("degraded", deaths=3)
        with open(path, "rb") as handle:
            return handle.read()


SEED_JOURNAL = _seed_journal()


class TestDecoderFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=64))
    def test_wire_arbitrary_bytes(self, data):
        decode_or_wire_error(data, TRACE)
        decode_or_wire_error(MAGIC + data, TRACE)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(range(len(SEED_BLOBS))),
           st.lists(_mutation, min_size=1, max_size=4))
    def test_wire_mutated_valid_payloads(self, which, mutations):
        blob, trace = SEED_BLOBS[which]
        decode_or_wire_error(mutate(blob, mutations), trace)

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=64))
    def test_journal_arbitrary_bytes(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.wj2")
            for content in (data, b"WJ2" + data):
                with open(path, "wb") as handle:
                    handle.write(content)
                try:
                    read_journal(path)
                except JournalError:
                    pass

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=100),
           st.lists(_mutation, min_size=1, max_size=3))
    def test_journal_mutated_frames_with_valid_crcs(self, which, mutations):
        # Mutate one record body and recompute its length and CRC: the
        # frame passes the torn-tail checks, so only the body decoder
        # stands between the mutation and the caller.
        bodies = _frames(SEED_JOURNAL)
        which %= len(bodies)
        bodies[which] = mutate(bodies[which], mutations)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.wj2")
            with open(path, "wb") as handle:
                handle.write(_reframe(bodies))
            try:
                snapshot = read_journal(path)
            except JournalError:
                return
        # Resume decodes what the reader kept: typed errors only there.
        for record in snapshot.finishes:
            if record.blob is not None:
                decode_or_wire_error(record.blob, TRACE)

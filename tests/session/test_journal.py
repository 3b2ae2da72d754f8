"""WJ2 run journal: round-trip, torn tails, resume, exactly-once.

The durability story rests on three properties pinned here:

1. **round-trip** — every record appended by :class:`RunJournal` comes
   back intact from :func:`read_journal`, report blobs byte for byte;
2. **torn-tail tolerance** — cutting a journal at *any* byte yields a
   readable prefix of the records that were written, never a crash and
   never an invented record (the property a crash mid-``fsync`` relies
   on);
3. **resume agreement** — a batch resumed from a journal produces the
   same :class:`BatchReport` content the original run produced, with
   the journal's exactly-once audit holding across the splice.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.session import journal as run_journal
from repro.session.batch import BatchRunner
from repro.session.journal import (
    FAILED,
    QUARANTINED,
    REPLAYED,
    JournalError,
    RunJournal,
    batch_config,
    read_journal,
    trace_digest,
    verify_config,
    verify_exactly_once,
)
from repro.core.commands import parse_command_line
from repro.core.trace import WarrTrace
from repro.session.policies import TimingPolicy
from repro.session.report import CommandResult, ReplayReport
from repro.session.wire import encode_report
from tests.session.test_batch import factory, record_trace

SMALL_TRACE = WarrTrace("http://x/", [parse_command_line("click //a 5,5 0")])


def small_blob():
    """A minimal but non-trivial WR3 report blob (on SMALL_TRACE)."""
    report = ReplayReport(SMALL_TRACE)
    report.results = [CommandResult(SMALL_TRACE.commands[0], "ok")]
    report.final_url = "http://x/done"
    return encode_report(report)


def build_journal(path, finishes=3):
    """A journal with config + one start/finish per trace + one event."""
    labels = ["trace-%d" % i for i in range(finishes)]
    digests = [trace_digest("text-%d" % i) for i in range(finishes)]
    with RunJournal.create(path, batch_config(labels, digests, "serial"),
                           fsync=False) as journal:
        for index, label in enumerate(labels):
            journal.start([(index, label)])
            journal.finish(index, label, REPLAYED, attempts=1,
                           blob=small_blob())
        journal.event("drain", reason="test")
    return labels


class TestRoundTrip:
    def test_full_record_vocabulary_round_trips(self, tmp_path):
        path = str(tmp_path / "run.wj2")
        labels = ["a", "b", "c"]
        digests = [trace_digest(t) for t in ("ta", "tb", "tc")]
        config = batch_config(labels, digests, "pooled")
        blob = small_blob()
        diagnosis = {"label": "b", "attempts": 2, "workers": [0, 1]}
        with RunJournal.create(path, config, fsync=False) as journal:
            journal.start([(0, "a")])
            journal.finish(0, "a", REPLAYED, attempts=1, worker_id=0,
                           blob=blob)
            journal.start([(1, "b")])
            journal.start([(1, "b")], attempt=2)
            journal.finish(1, "b", QUARANTINED, attempts=2, worker_id=1,
                           error="worker died", error_class="WorkerCrashError",
                           diagnosis=diagnosis)
            journal.start([(2, "c")])
            journal.finish(2, "c", FAILED, error="timeout",
                           error_class="TimeoutError")
            journal.event("degraded", deaths=6)

        snapshot = read_journal(path)
        assert snapshot.config == config
        assert not snapshot.torn
        assert [(s.index, s.label, s.attempt) for s in snapshot.starts] \
            == [(0, "a", 1), (1, "b", 1), (1, "b", 2), (2, "c", 1)]

        by_index = snapshot.finish_by_index()
        assert by_index[0].status == REPLAYED
        assert by_index[0].worker_id == 0
        assert by_index[0].blob == blob
        assert by_index[1].status == QUARANTINED
        assert by_index[1].attempts == 2
        assert by_index[1].error == "worker died"
        assert by_index[1].error_class == "WorkerCrashError"
        assert by_index[1].diagnosis == diagnosis
        assert by_index[2].status == FAILED
        assert by_index[2].worker_id is None
        assert by_index[2].blob is None
        assert [e.kind for e in snapshot.events] == ["degraded"]
        assert snapshot.events[0].payload == {"deaths": 6}

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad.wj2")
        with open(path, "wb") as handle:
            handle.write(b"NOPE not a journal")
        with pytest.raises(JournalError, match="magic"):
            read_journal(path)

    def test_unknown_finish_status_rejected_at_write(self, tmp_path):
        path = str(tmp_path / "run.wj2")
        with RunJournal.create(path, batch_config([], [], "serial"),
                               fsync=False) as journal:
            with pytest.raises(JournalError, match="status"):
                journal.finish(0, "x", "exploded")

    def test_closed_journal_refuses_appends(self, tmp_path):
        path = str(tmp_path / "run.wj2")
        journal = RunJournal.create(path, batch_config([], [], "serial"),
                                    fsync=False)
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.start([(0, "x")])


def _reframe(bodies):
    """A journal file holding ``bodies`` as validly framed records."""
    out = bytearray(run_journal.MAGIC)
    for body in bodies:
        out += RunJournal._frame(bytes(body))
    return bytes(out)


class TestFormatVersion:
    def test_wj1_journal_rejected_naming_its_version(self, tmp_path):
        path = str(tmp_path / "old.wj2")
        with open(path, "wb") as handle:
            handle.write(b"WJ1\x05\x01{}\x00\x00\x00\x00")
        with pytest.raises(JournalError, match="WJ1 journal"):
            read_journal(path)

    def test_magic_prefix_reads_as_a_run_that_never_started(self, tmp_path):
        path = str(tmp_path / "torn.wj2")
        for content in (b"", run_journal.MAGIC[:1], run_journal.MAGIC[:2],
                        run_journal.MAGIC):
            with open(path, "wb") as handle:
                handle.write(content)
            snapshot = read_journal(path)
            assert snapshot.config is None and not snapshot.finishes

    def test_config_waits_for_the_first_start(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(run_journal.os, "fsync", synced.append)
        path = str(tmp_path / "run.wj2")
        config = batch_config(["a", "b"], ["d1", "d2"], "pooled")
        journal = RunJournal.create(path, config)
        assert os.path.getsize(path) == 0 and synced == []
        journal.start([(0, "a"), (1, "b")])
        assert len(synced) == 1
        journal.close()
        snapshot = read_journal(path)
        assert snapshot.config == config
        assert [(s.index, s.label) for s in snapshot.starts] \
            == [(0, "a"), (1, "b")]

    def test_close_commits_a_config_without_starts(self, tmp_path):
        path = str(tmp_path / "run.wj2")
        config = batch_config(["a"], ["d"], "serial")
        RunJournal.create(path, config, fsync=False).close()
        assert read_journal(path).config == config


class TestMalformedRecords:
    """Frames whose CRC holds but whose body does not parse."""

    def _write(self, tmp_path, bodies):
        path = str(tmp_path / "bad.wj2")
        with open(path, "wb") as handle:
            handle.write(_reframe(bodies))
        return path

    @pytest.mark.parametrize("body, reason", [
        (b"\x02\x02\xff\xfe", "UTF-8|utf-8"),         # INTERN, bad UTF-8
        (b"\x01\x05{nope", "Expecting"),               # CONFIG, bad JSON
        (b"\x01\x02[]", "batch description"),          # CONFIG, not a dict
        (b"\x03\x00\x09\x01", "reference 9"),          # START, dangling ref
        (b"\x03\x00", "truncated"),                    # START, cut short
        (b"\x04\x00\x00\x07", "status"),               # FINISH, bad status
        (b"\x02\x01a\x00", "trailing"),                # INTERN + extra byte
        (b"\x09", "record type"),                       # unknown kind
    ])
    def test_malformed_body_raises_with_its_offset(self, tmp_path, body,
                                                   reason):
        intact = b"\x02\x01z"  # an INTERN record for "z"
        path = self._write(tmp_path, [intact, body])
        offset = len(_reframe([intact]))
        with pytest.raises(JournalError,
                           match="offset %d: .*(%s)" % (offset, reason)):
            read_journal(path)


class TestTornTail:
    def test_every_truncation_point_yields_a_readable_prefix(self, tmp_path):
        # The crash-safety property itself: chop the file at every byte
        # and the reader must deliver a prefix of the written records —
        # no exception, no record it never saw.
        path = str(tmp_path / "run.wj2")
        build_journal(path, finishes=3)
        with open(path, "rb") as handle:
            blob = handle.read()
        full = read_journal(path)
        torn_path = str(tmp_path / "torn.wj2")
        previous_finishes = 0
        for cut in range(len(run_journal.MAGIC), len(blob) + 1):
            with open(torn_path, "wb") as handle:
                handle.write(blob[:cut])
            snapshot = read_journal(torn_path)
            got = [(f.index, f.label, f.status) for f in snapshot.finishes]
            want = [(f.index, f.label, f.status) for f in full.finishes]
            assert got == want[:len(got)]
            # Records only ever accumulate as the cut moves right.
            assert len(got) >= previous_finishes
            previous_finishes = len(got)
            assert snapshot.truncated_bytes == cut - snapshot.valid_length

    def test_trailing_garbage_is_dropped_not_fatal(self, tmp_path):
        path = str(tmp_path / "run.wj2")
        build_journal(path, finishes=2)
        with open(path, "ab") as handle:
            handle.write(b"\xff\xff\xff garbage from a crash")
        snapshot = read_journal(path)
        assert snapshot.torn
        assert len(snapshot.finishes) == 2

    def test_resume_truncates_the_torn_tail_physically(self, tmp_path):
        path = str(tmp_path / "run.wj2")
        build_journal(path, finishes=2)
        intact = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b"\x7f half a record")
        journal, snapshot = RunJournal.resume(path)
        assert snapshot.torn
        assert os.path.getsize(path) == intact
        # Appends after the splice must land on a record boundary and
        # keep the carried-over intern table valid.
        journal.finish(5, "trace-0", FAILED, error="late")
        journal.close()
        reread = read_journal(path)
        assert not reread.torn
        assert reread.finishes[-1].label == "trace-0"
        assert reread.finishes[-1].error == "late"


class TestConfigVerification:
    def test_matching_workload_accepted(self):
        config = batch_config(["a"], [trace_digest("t")], "serial")
        verify_config(config, ["a"], [trace_digest("t")])

    def test_missing_config_rejected(self):
        with pytest.raises(JournalError, match="config"):
            verify_config(None, ["a"], ["d"])

    def test_count_mismatch_rejected(self):
        config = batch_config(["a"], [trace_digest("t")], "serial")
        with pytest.raises(JournalError, match="submits 2"):
            verify_config(config, ["a", "b"],
                          [trace_digest("t"), trace_digest("u")])

    def test_label_mismatch_rejected(self):
        config = batch_config(["a"], [trace_digest("t")], "serial")
        with pytest.raises(JournalError, match="'b'"):
            verify_config(config, ["b"], [trace_digest("t")])

    def test_digest_mismatch_rejected(self):
        config = batch_config(["a"], [trace_digest("old")], "serial")
        with pytest.raises(JournalError, match="digest"):
            verify_config(config, ["a"], [trace_digest("new")])

    def test_mode_may_differ_between_runs(self, tmp_path):
        # A run crashed under a pool may be finished serially.
        path = str(tmp_path / "run.wj2")
        labels = ["a"]
        digests = [trace_digest("t")]
        RunJournal.create(path, batch_config(labels, digests, "pooled"),
                          fsync=False).close()
        journal, _ = RunJournal.resume(path, labels, digests)
        journal.close()


class TestExactlyOnce:
    def test_complete_journal_passes(self, tmp_path):
        path = str(tmp_path / "run.wj2")
        labels = build_journal(path, finishes=3)
        verdict = verify_exactly_once(path, expected_labels=labels)
        assert verdict["exactly_once"]
        assert verdict["traces"] == verdict["finished"] == 3
        assert verdict["missing"] == [] and verdict["duplicates"] == []

    def test_missing_finish_fails(self, tmp_path):
        path = str(tmp_path / "run.wj2")
        labels = ["a", "b"]
        digests = [trace_digest(t) for t in ("ta", "tb")]
        with RunJournal.create(path, batch_config(labels, digests, "serial"),
                               fsync=False) as journal:
            journal.finish(0, "a", REPLAYED)
        verdict = verify_exactly_once(path)
        assert not verdict["exactly_once"]
        assert verdict["missing"] == ["b"]

    def test_duplicate_finish_fails(self, tmp_path):
        path = str(tmp_path / "run.wj2")
        labels = ["a"]
        digests = [trace_digest("ta")]
        with RunJournal.create(path, batch_config(labels, digests, "serial"),
                               fsync=False) as journal:
            journal.finish(0, "a", REPLAYED)
            journal.finish(0, "a", FAILED)
        verdict = verify_exactly_once(path)
        assert not verdict["exactly_once"]
        assert verdict["duplicates"] == ["a"]

    def test_label_mismatch_fails_when_expected_given(self, tmp_path):
        path = str(tmp_path / "run.wj2")
        build_journal(path, finishes=2)
        verdict = verify_exactly_once(path, expected_labels=["x", "y"])
        assert not verdict["exactly_once"]
        assert verdict["labels_match"] is False


# -- property tests -----------------------------------------------------------

_label = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
    min_size=1, max_size=12)

_finish = st.tuples(
    st.integers(min_value=0, max_value=40),           # index
    _label,
    st.sampled_from((REPLAYED, FAILED, QUARANTINED)),
    st.integers(min_value=1, max_value=5),            # attempts
    st.none() | st.integers(min_value=0, max_value=7),  # worker_id
    st.booleans(),                                    # carries a report?
)


class TestJournalProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_finish, max_size=12))
    def test_arbitrary_finish_sequences_round_trip(self, finishes):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.wj2")
            config = batch_config([], [], "serial")
            with RunJournal.create(path, config, fsync=False) as journal:
                for index, label, status, attempts, worker, with_report \
                        in finishes:
                    journal.finish(
                        index, label, status, attempts=attempts,
                        worker_id=worker,
                        blob=small_blob() if with_report else None,
                        error=None if with_report else "boom",
                        error_class=None if with_report else "ReplayError")
            snapshot = read_journal(path)
            assert not snapshot.torn
            got = [(f.index, f.label, f.status, f.attempts, f.worker_id)
                   for f in snapshot.finishes]
            assert got == [(i, l, s, a, w)
                           for i, l, s, a, w, _ in finishes]
            for record, (_, _, _, _, _, with_report) in zip(
                    snapshot.finishes, finishes):
                if with_report:
                    assert record.blob == small_blob()
                else:
                    assert record.error == "boom"
                    assert record.error_class == "ReplayError"

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_finish, min_size=1, max_size=8),
           st.integers(min_value=0, max_value=10**6))
    def test_any_cut_point_is_a_prefix_read(self, finishes, seed):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.wj2")
            with RunJournal.create(path, batch_config([], [], "serial"),
                                   fsync=False) as journal:
                for index, label, status, attempts, worker, _ in finishes:
                    journal.finish(index, label, status, attempts=attempts,
                                   worker_id=worker)
            with open(path, "rb") as handle:
                blob = handle.read()
            cut = len(run_journal.MAGIC) \
                + seed % (len(blob) - len(run_journal.MAGIC) + 1)
            with open(path, "wb") as handle:
                handle.write(blob[:cut])
            snapshot = read_journal(path)
            want = [(i, l, s) for i, l, s, _, _, _ in finishes]
            got = [(f.index, f.label, f.status) for f in snapshot.finishes]
            assert got == want[:len(got)]


# -- journaled batches end-to-end ---------------------------------------------


class TestJournaledBatch:
    def _runner(self, journal=None, resume=False, build=None):
        return BatchRunner(build or factory, timing=TimingPolicy.no_wait(),
                           journal=journal, resume=resume)

    def test_journaled_run_passes_the_exactly_once_audit(self, tmp_path):
        path = str(tmp_path / "run.wj2")
        traces = [record_trace("one"), record_trace("two")]
        batch = self._runner(journal=path).run(traces, labels=["one", "two"])
        assert batch.complete
        verdict = verify_exactly_once(path, expected_labels=["one", "two"])
        assert verdict["exactly_once"], verdict

    def test_resume_of_complete_journal_executes_nothing(self, tmp_path):
        path = str(tmp_path / "run.wj2")
        traces = [record_trace("one"), record_trace("two")]
        labels = ["one", "two"]
        original = self._runner(journal=path).run(traces, labels=labels)

        built = []

        def spying_factory():
            browser = factory()
            built.append(browser)
            return browser

        resumed = self._runner(journal=path, resume=True,
                               build=spying_factory).run(traces, labels=labels)
        assert built == []
        assert resumed.complete
        assert resumed.resumed_count == 2
        # merge-agreement: the resumed report carries the same content.
        assert [run.report.to_dict() for run in resumed.runs] \
            == [run.report.to_dict() for run in original.runs]
        assert resumed.summary().startswith(
            original.summary().split(";")[0])

    def test_drained_run_resumes_only_the_remainder(self, tmp_path):
        path = str(tmp_path / "run.wj2")
        traces = [record_trace("t%d" % i) for i in range(3)]
        labels = ["t0", "t1", "t2"]

        calls = []

        def drain_after_first():
            calls.append(None)
            return len(calls) > 1

        batch = self._runner(journal=path).run(
            traces, labels=labels, drain=drain_after_first)
        assert batch.drained
        assert batch.trace_count < 3
        done_before = len(read_journal(path).finishes)
        assert 0 < done_before < 3

        built = []

        def spying_factory():
            browser = factory()
            built.append(browser)
            return browser

        resumed = self._runner(journal=path, resume=True,
                               build=spying_factory).run(traces, labels=labels)
        assert resumed.complete
        assert resumed.trace_count == 3
        assert resumed.resumed_count == done_before
        assert len(built) == 3 - done_before
        verdict = verify_exactly_once(path, expected_labels=labels)
        assert verdict["exactly_once"], verdict

    def test_resume_rejects_a_different_workload(self, tmp_path):
        path = str(tmp_path / "run.wj2")
        traces = [record_trace("one")]
        self._runner(journal=path).run(traces, labels=["one"])
        imposter = [record_trace("two")]
        with pytest.raises(JournalError, match="digest"):
            self._runner(journal=path, resume=True).run(imposter,
                                                        labels=["one"])

    def test_malformed_embedded_report_fails_resume_naming_the_trace(
            self, tmp_path):
        path = str(tmp_path / "run.wj2")
        traces = [record_trace("one"), record_trace("two")]
        labels = ["one", "two"]
        self._runner(journal=path).run(traces, labels=labels)
        snapshot = read_journal(path)
        # Rewrite trace 1's finish with a corrupt blob, keeping the
        # frame (length and CRC) valid so only decoding can notice.
        digests = [trace_digest(t.to_text()) for t in traces]
        with RunJournal.create(path, batch_config(labels, digests, "serial"),
                               fsync=False) as journal:
            journal.start([(0, "one"), (1, "two")])
            journal.finish(0, "one", REPLAYED,
                           blob=snapshot.finish_by_index()[0].blob)
            journal.finish(1, "two", REPLAYED, blob=b"WR3\x01\x02\xff\xfe")
        with pytest.raises(JournalError,
                           match="trace 1 \\('two'\\).*UTF-8"):
            self._runner(journal=path, resume=True).run(traces,
                                                        labels=labels)

    def test_resume_decodes_against_the_submitted_trace(self, tmp_path):
        path = str(tmp_path / "run.wj2")
        traces = [record_trace("one")]
        self._runner(journal=path).run(traces, labels=["one"])
        resumed = self._runner(journal=path, resume=True).run(
            traces, labels=["one"])
        (run,) = resumed.runs
        assert run.resumed and run.report.trace is traces[0]
        assert all(result.command is command for result, command
                   in zip(run.report.results, traces[0]))

    def test_resume_without_existing_journal_starts_fresh(self, tmp_path):
        path = str(tmp_path / "run.wj2")
        traces = [record_trace("solo")]
        batch = self._runner(journal=path, resume=True).run(traces,
                                                            labels=["solo"])
        assert batch.complete
        assert batch.resumed_count == 0
        assert verify_exactly_once(path)["exactly_once"]

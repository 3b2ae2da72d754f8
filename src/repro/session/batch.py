"""Batch replay: many traces across isolated browser instances.

A :class:`BatchRunner` replays a list of traces, each against a *fresh*
:class:`~repro.browser.window.BrowserWindow` built by the caller's
factory, so sessions cannot contaminate each other (cookies, page
errors, cache state). Per-trace reports are aggregated into a
:class:`BatchReport`, whose perf counters sum every session's
fast-path cache activity.

With ``workers=N`` (N > 1) the batch fans out across a
:class:`~repro.session.pool.WorkerPool` of N processes: the pool hands
each worker its next trace as it answers the last, and per-trace
reports and :mod:`repro.perf` counter deltas stream back and merge
parent-side. The default ``workers=1`` runs the batch in-process.

A batch is one flow. A pooled batch goes to the pool first; then one
serial loop runs, in-process, every trace that has no final outcome:
the whole of a serial batch, or whatever a tripped circuit breaker
handed back. Either way one function replays one trace,
:func:`~repro.session.pool.replay_trace`, and everything around a
replay lives once, in :class:`BatchRunner`: the admission gate (drain,
and a halt under ``FailurePolicy.halt``), the journal's status mapping
and WR3 encoding (:meth:`_RunHooks.finish`), report assembly, and the
trace writer.

With ``trace_dir`` set, every session is traced (in its worker or in
this process) and :func:`replay_trace` returns its telemetry slice.
One writer merges the slices: each trace's lands in
``<label>.trace.json`` and the whole timeline in ``batch.trace.json``,
every session's browser on its own pid track.
"""

import os
import traceback
from contextlib import nullcontext

from repro import telemetry
from repro.session import journal as run_journal
from repro.session import wire
from repro.session.observers import PerfCountersObserver
from repro.session.policies import FailurePolicy
from repro.session.pool import (
    PoolOutcome,
    WorkerPool,
    WorkerSpec,
    replay_trace,
)
from repro.session.report import RemoteError, ReplayReport


class TraceRun:
    """One trace's outcome within a batch."""

    def __init__(self, label, trace, report, resumed=False):
        self.label = label
        self.trace = trace
        self.report = report
        #: True when this run was replayed from a journal's finish
        #: record (``--resume``) rather than executed in this process.
        self.resumed = resumed

    def __repr__(self):
        return "TraceRun(%r, %s)" % (self.label, self.report.summary())


class BatchReport:
    """Aggregate outcome of a batch replay."""

    def __init__(self):
        self.runs = []
        #: {cache: {"hits", "misses", "hit_rate"}} across the batch.
        self.perf_counters = {}
        #: Quarantine diagnosis bundles for poison traces (each a dict:
        #: label, attempts, workers, stderr tail, chaos stamp, ...).
        self.quarantined = []
        #: True when a graceful drain was requested during the run:
        #: admission stopped there, and the journal (if any) is
        #: resumable.
        self.drained = False
        #: ``<label>.trace.json`` files written to the run's
        #: ``trace_dir``.
        self.trace_files = 0

    def add(self, run):
        self.runs.append(run)

    @property
    def trace_count(self):
        return len(self.runs)

    @property
    def complete_count(self):
        return sum(1 for run in self.runs if run.report.complete)

    @property
    def replayed_count(self):
        return sum(run.report.replayed_count for run in self.runs)

    @property
    def failed_count(self):
        return sum(run.report.failed_count for run in self.runs)

    @property
    def command_count(self):
        return sum(len(run.trace) for run in self.runs)

    @property
    def page_error_count(self):
        return sum(len(run.report.page_errors) for run in self.runs)

    @property
    def complete(self):
        """True when every trace in the batch replayed completely."""
        return self.runs != [] and self.complete_count == self.trace_count

    @property
    def resumed_count(self):
        """Traces replayed from the journal instead of executed."""
        return sum(1 for run in self.runs if run.resumed)

    def failures(self):
        return [run for run in self.runs if not run.report.complete]

    def summary(self):
        text = (
            "batch: %d/%d trace(s) complete; replayed %d/%d commands "
            "(%d failed); %d page error(s)"
            % (self.complete_count, self.trace_count, self.replayed_count,
               self.command_count, self.failed_count, self.page_error_count)
        )
        if self.resumed_count:
            text += "; %d resumed from journal" % self.resumed_count
        if self.quarantined:
            text += "; %d quarantined" % len(self.quarantined)
        if self.drained:
            text += "; drained (resumable)"
        return text

    def __repr__(self):
        return "BatchReport(%s)" % self.summary()


class _RunHooks:
    """Per-trace journaling and the admission gate for one ``run()``.

    ``positions`` maps each *executed* trace's position in the
    (possibly resume-filtered) sub-batch back to its original index in
    the submitted batch, so journal records always speak in submission
    indexes and a resumed run appends to the same address space.
    ``halt`` is True under ``FailurePolicy.halt``: a halted session
    then closes the gate.
    """

    def __init__(self, journal, positions, drain, halt):
        self.journal = journal
        self.positions = positions
        self.drain = drain
        self.halt = halt
        self.halted = False
        self.drain_seen = False

    def start(self, positions, labels):
        """Traces were admitted: one journal commit for all of them."""
        if self.journal is not None:
            self.journal.start([(self.positions[position], label)
                                for position, label in zip(positions,
                                                           labels)])

    def finish(self, outcome):
        """A trace reached its final outcome (a PoolOutcome).

        The one place a batch maps an outcome to its journal status. A
        worker's outcome carries the WR3 blob it shipped; a report made
        in this process is encoded here, once.
        """
        report = outcome.report
        if self.halt and report is not None and report.halted:
            self.halted = True
        if self.journal is None or outcome.cancelled:
            return
        error, error_class, blob = outcome.error, outcome.error_class, None
        if report is not None:
            status = run_journal.REPLAYED if report.complete \
                else run_journal.FAILED
            blob = (outcome.blob if outcome.blob is not None
                    else wire.encode_report(report))
            if report.halted:
                error = report.halt_reason
                if report.halt_error is not None:
                    error_class = report.halt_error.type_name
        elif outcome.quarantined is not None:
            status = run_journal.QUARANTINED
        else:
            status = run_journal.FAILED
        self.journal.finish(
            self.positions[outcome.index], outcome.label, status,
            attempts=outcome.attempts, worker_id=outcome.worker_id,
            blob=blob, error=error, error_class=error_class,
            diagnosis=outcome.quarantined)

    def drain_requested(self):
        """The admission gate, asked before each trace is admitted
        (by the serial loop or the pool): True once the drain flag is
        raised or a session halted under ``FailurePolicy.halt``. Only a
        real drain is journaled, once."""
        if not self.drain_seen and self.drain is not None and self.drain():
            self.drain_seen = True
            self.event("drain")
        return self.drain_seen or self.halted

    def event(self, kind, **payload):
        if self.journal is not None:
            self.journal.event(kind, **payload)


class BatchRunner:
    """Replays many traces, one isolated browser instance each.

    ``browser_factory()`` must return a fresh browser wired to a fresh
    application environment — the same contract WebErr's campaigns use.
    It may also be a :class:`~repro.session.pool.WorkerSpec` (or any
    factory reference the spec accepts): worker processes rebuild the
    factory on their side of the boundary, and the serial loop builds
    it in this process. Engine policies (timing, locator, failure,
    driver config) apply to every session in the batch.

    ``trace_timeout`` (seconds, pooled only) bounds any single trace:
    an over-deadline trace gets its worker killed and is re-queued once
    before being reported failed. It rides with each batch, so a
    borrowed ``pool`` enforces it too.

    ``journal`` (a file path) makes the run durable: every trace's
    start and final outcome is appended, fsync'd, to a WJ2 run journal
    (:mod:`repro.session.journal`), reports included as WR3 blobs. With
    ``resume=True`` and an existing journal, completed traces are
    replayed *from the journal* (marked ``resumed`` on their TraceRun)
    and only the remainder executes — the recovery path after a crash,
    a kill, or a graceful drain.
    """

    def __init__(self, browser_factory, driver_config=None, timing=None,
                 locator=None, failure=None, retry=None,
                 workers=1, trace_timeout=None, pool=None, tape=None,
                 trace_categories=None, journal=None, resume=False):
        self.browser_factory = browser_factory
        #: Category spec for traced runs (``trace_dir`` set): anything
        #: :func:`~repro.telemetry.tracer.resolve_categories` accepts,
        #: e.g. ``"production"``. None records every category. Applies
        #: serially and pooled alike.
        self.trace_categories = trace_categories
        self.driver_config = driver_config
        self.timing = timing
        self.locator = locator
        self.failure = failure
        self.retry = retry
        #: Optional :class:`~repro.net.transport.TapeConfig` applied to
        #: every session's network: record each trace to its own tape
        #: (``<label>.tape`` under the config's directory) or play every
        #: trace back hermetically, serially or pooled.
        self.tape = tape
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = int(workers)
        self.trace_timeout = trace_timeout
        #: A live :class:`~repro.session.pool.WorkerPool` to reuse
        #: (warm workers amortized across many batches); the runner
        #: will not close it. None builds an ephemeral pool per run.
        self.pool = pool
        if pool is not None:
            self.workers = max(self.workers, pool.workers)
        #: Run-journal path (WJ2); None disables journaling.
        self.journal = journal
        self.resume = bool(resume)
        if resume and journal is None:
            raise ValueError("resume=True needs a journal path")

    @property
    def mode(self):
        """The batch backend this runner would use."""
        return "pooled" if self.workers > 1 or self.pool is not None \
            else "serial"

    def run(self, traces, labels=None, trace_dir=None, drain=None):
        """Replay every trace on its own browser; returns a BatchReport.

        With ``trace_dir`` set, runs the batch under telemetry tracing
        and writes one Chrome trace file per trace plus the merged
        ``batch.trace.json`` timeline into that directory.

        ``drain`` is a zero-argument callable (e.g. a
        :class:`~repro.session.supervisor.GracefulDrain`): once it
        returns True, admission stops, in-flight traces finish, and the
        report comes back with ``drained=True`` — with a journal, the
        run is resumable from exactly that point. A session that halts
        under ``FailurePolicy.halt`` stops admission the same way, and
        the report ends at the first such trace in submission order.
        """
        traces = list(traces)
        if labels is None:
            labels = _dedupe_labels([trace.label or "trace-%d" % index
                                     for index, trace in enumerate(traces)])
        if len(labels) != len(traces):
            raise ValueError("need one label per trace")
        journal, finished = None, {}
        if self.journal is not None:
            journal, finished = self._open_journal(traces, labels)
        remaining = [index for index in range(len(traces))
                     if index not in finished]
        halt = self.failure is not None \
            and self.failure.on_failure == FailurePolicy.HALT
        hooks = _RunHooks(journal, remaining, drain, halt)
        outcomes = []
        try:
            if remaining:
                outcomes = self._execute(
                    [traces[i] for i in remaining],
                    [labels[i] for i in remaining], trace_dir is not None,
                    hooks)
            # A drain raised after the last admission still counts,
            # though no admission was left to ask the gate.
            hooks.drain_requested()
        finally:
            if journal is not None:
                journal.close()
        # Cancelled traces, and any the serial loop never admitted, stay
        # unfinished in the journal and re-run on resume.
        batch = self._assemble(traces, labels, finished,
                               {remaining[outcome.index]: outcome
                                for outcome in outcomes
                                if outcome.ok or outcome.error_class}, halt)
        batch.drained = hooks.drain_seen
        if trace_dir is not None:
            batch.trace_files = _write_traces(trace_dir, outcomes)
        return batch

    def _open_journal(self, traces, labels):
        """Create or resume the run journal.

        Returns ``(journal, finished)``: the open journal and the finish
        records of traces a resumed run already completed (by
        submission index). Each trace's digest comes from its text memo
        (:meth:`~repro.core.trace.WarrTrace.digest`), so a campaign
        replaying the same trace objects serializes and hashes each
        once, and the pool's task text is the same string.
        """
        digests = [trace.digest() for trace in traces]
        config = run_journal.batch_config(labels, digests, self.mode)
        if not (self.resume and os.path.exists(self.journal)):
            return run_journal.RunJournal.create(self.journal, config), {}
        journal, snapshot = run_journal.RunJournal.resume(
            self.journal, labels, digests, config=config)
        finished = {index: record for index, record
                    in snapshot.finish_by_index().items()
                    if index < len(traces)}
        return journal, finished

    def _assemble(self, traces, labels, finished, outcomes, halt):
        """The BatchReport, in submission order.

        ``finished`` holds journal finish records (resumed traces) and
        ``outcomes`` the final outcomes of traces executed now, both by
        submission index. A trace in neither was never admitted (halt or
        drain): it is absent from the report, unfinished in the journal,
        and re-run on resume. With ``halt``, the report ends at the
        first session executed now that halted; the pool may have
        finished traces past it, and their finishes stay journaled.
        Perf counters sum over the traces reported as executed.
        """
        batch = BatchReport()
        counters = []
        for index, (label, trace) in enumerate(zip(labels, traces)):
            outcome = outcomes.get(index)
            if index in finished:
                record = finished[index]
                run = self._run_from_record(index, label, trace, record)
                diagnosis = record.diagnosis
            elif outcome is not None:
                # No report: the worker died or the trace was killed on
                # timeout. halt_error's type_name tells deadline kills
                # (TimeoutError) from dead workers (WorkerCrashError).
                report = outcome.report or _failed_report(
                    trace, outcome.error or "worker failed",
                    outcome.error_class)
                run = TraceRun(label, trace, report)
                counters.append(report.perf_counters)
                diagnosis = outcome.quarantined
            else:
                continue
            batch.add(run)
            if diagnosis is not None:
                batch.quarantined.append(diagnosis)
            if halt and outcome is not None and outcome.ok \
                    and outcome.report.halted:
                break
        batch.perf_counters = PerfCountersObserver.merge(counters)
        return batch

    @staticmethod
    def _run_from_record(index, label, trace, record):
        """Reconstruct a TraceRun from a journal finish record.

        The record's blob is decoded here, against the trace whose
        digest resume has just verified.
        """
        if record.blob is None:
            report = _failed_report(
                trace, record.error or "failed in journaled run",
                record.error_class)
        else:
            try:
                report = wire.decode_report(record.blob, trace)
            except wire.WireError as exc:
                raise run_journal.JournalError(
                    "finish record of trace %d (%r) holds a malformed "
                    "report: %s" % (index, label, exc))
        return TraceRun(label, trace, report, resumed=True)

    def _engine_config(self):
        """The engine policies, as SessionEngine keyword arguments."""
        return {
            "driver_config": self.driver_config,
            "timing": self.timing,
            "locator": self.locator,
            "failure": self.failure,
            "retry": self.retry,
        }

    def _execute(self, traces, labels, traced, hooks):
        """Run the batch; returns its PoolOutcomes.

        A pooled batch goes to the pool first. Then the serial loop runs
        every outcome with no final state: the whole of a serial batch,
        or what a tripped breaker handed back (each of those traces'
        START is in the pool's admission commit and is journaled again).
        """
        if self.mode == "pooled":
            outcomes = self._run_pooled(traces, labels, traced, hooks)
        else:
            outcomes = [PoolOutcome(position, label)
                        for position, label in enumerate(labels)]
        rest = [outcome for outcome in outcomes if not outcome.final]
        if rest:
            self._run_serial(rest, traces, hooks, traced)
        return outcomes

    def _run_serial(self, outcomes, traces, hooks, traced):
        """Fill in ``outcomes`` in order, replaying ``traces[index]`` in
        this process; an outcome the admission gate stops stays empty.

        A traced loop records into the tracer a caller already
        installed, or else into its own. An ``Exception`` out of one
        replay is contained as a pool worker contains it: the trace's
        outcome carries the traceback and the exception's type name,
        and the loop goes on to the next trace.
        """
        factory = self.browser_factory
        if not isinstance(factory, WorkerSpec):
            factory = WorkerSpec(factory)
        factory = factory.make_factory()
        config = self._engine_config()
        if not traced:
            scope = nullcontext()
        elif telemetry.enabled():
            scope = nullcontext(telemetry.current())
        else:
            scope = telemetry.tracing(categories=self.trace_categories)
        with scope as tracer:
            for outcome in outcomes:
                if hooks.drain_requested():
                    break
                hooks.start((outcome.index,), (outcome.label,))
                try:
                    outcome.report, outcome.telemetry = replay_trace(
                        factory, config, traces[outcome.index],
                        label=outcome.label, tape=self.tape, tracer=tracer)
                except Exception as exc:
                    outcome.error = traceback.format_exc()
                    outcome.error_class = type(exc).__name__
                outcome.worker_id = None
                hooks.finish(outcome)

    def _run_pooled(self, traces, labels, traced, hooks):
        """Run the batch on the pool; returns its outcomes, some of them
        handed back if the breaker tripped."""
        pool = self.pool or WorkerPool(self.browser_factory, self.workers)
        # Journal every admission up front, in one commit, before any
        # dispatch: the pool schedules traces dynamically, so "started"
        # means "handed to the farm".
        hooks.start(range(len(labels)), labels)
        degraded = pool.stats["degraded"]
        try:
            # A borrowed pool keeps its workers warm for the caller's
            # next batch; its traces run under *this* runner's policies.
            outcomes, _ = pool.run(
                list(zip(labels, traces)),
                tracing=traced and (self.trace_categories or True),
                engine_config=self._engine_config(),
                trace_timeout=self.trace_timeout, tape=self.tape,
                on_outcome=hooks.finish, drain=hooks.drain_requested)
        finally:
            if pool is not self.pool:
                pool.close()
        if pool.stats["degraded"] > degraded:
            hooks.event("degraded", deaths=pool.supervisor.deaths)
        return outcomes


def _write_traces(trace_dir, outcomes):
    """Write every traced outcome's slice to ``<label>.trace.json`` and
    the merged timeline to ``batch.trace.json``; returns how many
    per-trace files were written.

    The one trace writer of a batch, serial or pooled. Slices merge in
    submission order; a worker's tracks get a ``[wN]`` suffix, while
    tracks recorded in this process keep their names.
    """
    os.makedirs(trace_dir, exist_ok=True)
    merger = telemetry.TraceMerger()
    used_stems = set()
    for outcome in outcomes:
        if outcome.telemetry is None:
            continue
        events, metadata, dropped = outcome.telemetry
        merger.dropped += dropped
        events, metadata = merger.add_session(outcome.worker_id, events,
                                              metadata)
        stem = _unique(_safe_name(outcome.label), used_stems)
        telemetry.write_trace_dict(
            os.path.join(trace_dir, "%s.trace.json" % stem),
            telemetry.to_trace_dict_raw(events, metadata=metadata))
    telemetry.write_trace_dict(os.path.join(trace_dir, "batch.trace.json"),
                               merger.trace_dict())
    return len(used_stems)


def _dedupe_labels(labels):
    """Suffix repeated labels (``x``, ``x-2``, ``x-3``) so every
    :class:`TraceRun` in a batch is unambiguously addressable."""
    seen = set()
    return [_unique(label, seen) for label in labels]


def _failed_report(trace, reason, error_class):
    """A halted report for a trace that produced none of its own."""
    report = ReplayReport(trace)
    report.halted = True
    report.halt_reason = reason
    report.halt_error = RemoteError(reason,
                                    type_name=error_class or "WorkerError")
    return report


def _unique(name, used):
    """``name``, or ``name-2``, ``name-3``, ... if taken; adds it to
    ``used``. Trace-file stems go through it too: repeated labels (the
    same trace run twice) must not overwrite each other's file."""
    unique = name
    suffix = 2
    while unique in used:
        unique = "%s-%d" % (name, suffix)
        suffix += 1
    used.add(unique)
    return unique


def _safe_name(label):
    """A filesystem-safe file stem for a trace label."""
    return "".join(c if c.isalnum() or c in "-._" else "_"
                   for c in str(label)) or "trace"

"""Batch replay: many traces across isolated browser instances.

A :class:`BatchRunner` replays a list of traces, each against a *fresh*
:class:`~repro.browser.window.BrowserWindow` built by the caller's
factory, so sessions cannot contaminate each other (cookies, page
errors, cache state). Per-trace reports are aggregated into a
:class:`BatchReport`, whose perf counters sum every session's
fast-path cache activity.

With ``trace_dir`` set, the whole batch runs under one telemetry
tracer: every session's browser gets its own pid track, each trace's
slice of the timeline is written to ``<label>.trace.json``, and the
full merged batch timeline lands in ``batch.trace.json``.

With ``workers=N`` (N > 1) the batch fans out across a
:class:`~repro.session.pool.WorkerPool` of N processes: traces are
pulled dynamically from a shared queue, per-trace reports and
:mod:`repro.perf` counter deltas stream back and merge parent-side,
and telemetry slices merge into one ``batch.trace.json`` timeline with
each worker's browsers on their own pid tracks. The default ``workers=1`` runs the batch in-process.

Either way one function replays one trace:
:func:`~repro.session.pool.replay_trace` is called by the serial loop
and by every pool worker. When the pool's circuit breaker trips, the
pool hands the traces it did not finish back, and the same serial loop
runs them in-process. Everything around a replay lives once, in
:class:`BatchRunner`: admission (halt and drain), the journal's status
mapping and WR3 encoding (:meth:`_RunHooks.finish`), and report
assembly.
"""

import os
from functools import partial

from repro import telemetry
from repro.session import journal as run_journal
from repro.session import wire
from repro.session.observers import PerfCountersObserver
from repro.session.policies import FailurePolicy
from repro.session.pool import PoolOutcome, WorkerPool, replay_trace
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
        #: True when a graceful drain stopped admission mid-run; the
        #: journal (if any) is resumable.
        self.drained = False

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
    """Per-trace journaling and drain threading for one ``run()`` call.

    ``positions`` maps each *executed* trace's position in the
    (possibly resume-filtered) sub-batch back to its original index in
    the submitted batch, so journal records always speak in submission
    indexes and a resumed run appends to the same address space.
    """

    def __init__(self, journal, positions, drain):
        self.journal = journal
        self.positions = positions
        self.drain = drain
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
        if self.journal is None or outcome.cancelled:
            return
        report = outcome.report
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
        """The admission gate; journals the first drain request."""
        if self.drain is None:
            return False
        if not self.drain():
            return False
        if not self.drain_seen:
            self.drain_seen = True
            if self.journal is not None:
                self.journal.event("drain")
        return True

    def event(self, kind, **payload):
        if self.journal is not None:
            self.journal.event(kind, **payload)


class BatchRunner:
    """Replays many traces, one isolated browser instance each.

    ``browser_factory()`` must return a fresh browser wired to a fresh
    application environment — the same contract WebErr's campaigns use.
    For ``workers > 1`` it may also be a
    :class:`~repro.session.pool.WorkerSpec` (or any picklable factory
    reference the spec accepts), since worker processes rebuild the
    factory on their side of the boundary. Engine policies (timing,
    locator, failure, driver config) apply to every session in the
    batch.

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
        run is resumable from exactly that point.
        """
        traces = list(traces)
        if labels is None:
            labels = _dedupe_labels([trace.label or "trace-%d" % index
                                     for index, trace in enumerate(traces)])
        if len(labels) != len(traces):
            raise ValueError("need one label per trace")
        journal, finished, texts = None, {}, None
        if self.journal is not None:
            journal, finished, texts = self._open_journal(traces, labels)
        remaining = [index for index in range(len(traces))
                     if index not in finished]
        hooks = _RunHooks(journal, remaining, drain)
        outcomes = []
        try:
            if remaining:
                outcomes = self._execute(
                    [traces[i] for i in remaining],
                    [labels[i] for i in remaining], trace_dir, hooks,
                    None if texts is None else [texts[i] for i in remaining])
        finally:
            if journal is not None:
                journal.close()
        # Cancelled traces, and any the serial loop never admitted, stay
        # unfinished in the journal and re-run on resume.
        batch = self._assemble(traces, labels, finished,
                               {remaining[outcome.index]: outcome
                                for outcome in outcomes
                                if outcome.ok or outcome.error_class})
        batch.drained = hooks.drain_seen
        return batch

    def _open_journal(self, traces, labels):
        """Create or resume the run journal.

        Returns ``(journal, finished, texts)``: the open journal, the
        finish records of traces a resumed run already completed (by
        submission index), and every trace's serialized text.
        """
        # Each trace is serialized once per run: its digest and the
        # pool's task text share the string. One trace object fanned
        # out across many labels (the common stress-batch shape)
        # serializes and hashes once, not once per label.
        memo = {}
        texts = []
        digests = []
        for trace in traces:
            known = memo.get(id(trace))
            if known is None:
                text = trace.to_text()
                known = memo[id(trace)] = (text,
                                           run_journal.trace_digest(text))
            texts.append(known[0])
            digests.append(known[1])
        config = run_journal.batch_config(labels, digests, self.mode)
        if not (self.resume and os.path.exists(self.journal)):
            return run_journal.RunJournal.create(self.journal, config), \
                {}, texts
        journal, snapshot = run_journal.RunJournal.resume(
            self.journal, labels, digests, config=config)
        finished = {index: record for index, record
                    in snapshot.finish_by_index().items()
                    if index < len(traces)}
        return journal, finished, texts

    def _assemble(self, traces, labels, finished, outcomes):
        """The BatchReport, in submission order.

        ``finished`` holds journal finish records (resumed traces) and
        ``outcomes`` the final outcomes of traces executed now, both by
        submission index. A trace in neither was never admitted (halt or
        drain): it is absent from the report, unfinished in the journal,
        and re-run on resume. Perf counters sum over executed traces.
        """
        batch = BatchReport()
        counters = []
        for index, (label, trace) in enumerate(zip(labels, traces)):
            if index in finished:
                record = finished[index]
                run = self._run_from_record(index, label, trace, record)
                diagnosis = record.diagnosis
            elif index in outcomes:
                outcome = outcomes[index]
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

    def _execute(self, traces, labels, trace_dir, hooks, texts=None):
        """Run the batch serially or pooled; returns its PoolOutcomes.

        ``texts`` (pooled only) are the traces' serialized texts when
        the caller already made them.
        """
        if self.mode == "pooled":
            return self._run_pooled(traces, labels, trace_dir, hooks, texts)
        outcomes = [PoolOutcome(position, label)
                    for position, label in enumerate(labels)]
        run = partial(self._run_serial, outcomes, traces, hooks,
                      self.browser_factory)
        if trace_dir is None:
            return run()
        os.makedirs(trace_dir, exist_ok=True)
        if telemetry.enabled():
            # A caller already installed a tracer (e.g. an outer
            # tracing() block): record into it rather than nesting.
            return run(telemetry.current(), trace_dir)
        with telemetry.tracing(categories=self.trace_categories) as tracer:
            run(tracer, trace_dir)
            telemetry.write_trace(
                os.path.join(trace_dir, "batch.trace.json"), tracer)
        return outcomes

    # -- serial (in-process) execution --------------------------------------

    def _run_serial(self, outcomes, traces, hooks, factory, tracer=None,
                    trace_dir=None):
        """Fill in ``outcomes`` in order, replaying ``traces[index]`` on
        browsers from ``factory``; an outcome never admitted (drain,
        halt) stays empty. Serial batches and the traces a tripped pool
        hands back both run here."""
        config = self._engine_config()
        used_stems = set()
        for outcome in outcomes:
            if hooks.drain_requested():
                # Graceful drain: stop admission; everything already
                # finished is journaled, the rest resumes later.
                break
            hooks.start((outcome.index,), (outcome.label,))
            report, mark = replay_trace(
                factory, config, traces[outcome.index], label=outcome.label,
                tape=self.tape, tracer=tracer)
            outcome.report = report
            outcome.worker_id = None
            hooks.finish(outcome)
            if trace_dir is not None:
                stem = _unique(_safe_name(outcome.label), used_stems)
                telemetry.write_trace(
                    os.path.join(trace_dir, "%s.trace.json" % stem),
                    tracer, events=tracer.events_since(mark))
            if report.halted and self.failure is not None \
                    and self.failure.on_failure == FailurePolicy.HALT:
                # FailurePolicy.halt is the batch-level abort: stop
                # dispatching the remaining traces. (stop/continue end
                # at session scope; the batch carries on.)
                break
        return outcomes

    # -- pooled (multiprocess) execution -------------------------------------

    def _run_pooled(self, traces, labels, trace_dir, hooks, texts=None):
        from repro.telemetry.merge import TraceMerger

        pool = self.pool
        owned = pool is None
        if owned:
            pool = WorkerPool(self.browser_factory, self.workers)
        tracing_on = trace_dir is not None
        if tracing_on:
            os.makedirs(trace_dir, exist_ok=True)
        # Journal every admission up front, in one commit, before any
        # dispatch: the pool schedules chunks dynamically, so "started"
        # means "handed to the farm".
        hooks.start(range(len(labels)), labels)
        degraded = pool.stats["degraded"]
        try:
            # A borrowed pool keeps its workers warm for the caller's
            # next batch; its chunks run under *this* runner's policies.
            outcomes, dropped = pool.run(
                list(zip(labels, traces)),
                tracing=(self.trace_categories or True) if tracing_on
                else False,
                engine_config=self._engine_config(),
                trace_timeout=self.trace_timeout, tape=self.tape,
                on_outcome=hooks.finish,
                drain=hooks.drain_requested if hooks.drain is not None
                else None, texts=texts)
        finally:
            if owned:
                pool.close()
        if pool.stats["degraded"] > degraded:
            hooks.event("degraded", deaths=pool.supervisor.deaths)
        # What a tripped breaker handed back runs inline; each trace's
        # START is in the admission commit and is journaled again here.
        handed_back = [outcome for outcome in outcomes
                       if not (outcome.ok or outcome.error_class
                               or outcome.cancelled)]
        if handed_back:
            self._run_serial(handed_back, traces, hooks,
                             pool.spec.make_factory())
        if tracing_on:
            merger = TraceMerger()
            merger.dropped += dropped
            used_stems = set()
            for outcome in outcomes:
                if outcome.events is None:
                    continue
                events, metadata = merger.add_session(
                    outcome.worker_id, outcome.events,
                    outcome.metadata or ())
                stem = _unique(_safe_name(outcome.label), used_stems)
                telemetry.write_trace_dict(
                    os.path.join(trace_dir, "%s.trace.json" % stem),
                    telemetry.to_trace_dict_raw(events, metadata=metadata))
            telemetry.write_trace_dict(
                os.path.join(trace_dir, "batch.trace.json"),
                merger.trace_dict())
        return outcomes


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

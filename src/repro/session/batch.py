"""Batch replay: many traces across isolated browser instances.

A :class:`BatchRunner` replays a list of traces, each against a *fresh*
:class:`~repro.browser.window.BrowserWindow` built by the caller's
factory, so sessions cannot contaminate each other (cookies, page
errors, cache state). Per-trace reports are aggregated into a
:class:`BatchReport`; a shared
:class:`~repro.session.observers.PerfCountersObserver` accumulates
fast-path cache activity across the whole batch.

With ``trace_dir`` set, the whole batch runs under one telemetry
tracer: every session's browser gets its own pid track, each trace's
slice of the timeline is written to ``<label>.trace.json``, and the
full merged batch timeline lands in ``batch.trace.json``.

With ``workers=N`` (N > 1) the batch fans out across a
:class:`~repro.session.pool.WorkerPool` of N processes: traces are
pulled dynamically from a shared queue, per-trace reports and
:mod:`repro.perf` counter deltas stream back and merge via
:meth:`BatchReport.merge`, and telemetry slices merge into one
``batch.trace.json`` timeline with each worker's browsers on their own
pid tracks. The default ``workers=1`` is exactly the serial in-process
path — same code, same determinism.
"""

import os
import time

from repro import telemetry
from repro.session import journal as run_journal
from repro.session import wire
from repro.session.supervisor import throttle_seconds
from repro.session.engine import SessionEngine
from repro.session.observers import PerfCountersObserver
from repro.session.policies import FailurePolicy
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

    @classmethod
    def merge(cls, reports):
        """Combine shard reports (e.g. one per pool worker) into one.

        Runs concatenate in the order given; perf counters sum through
        :meth:`~repro.session.observers.PerfCountersObserver.merge`, so
        hit rates are recomputed over the combined totals rather than
        averaged. Quarantine bundles concatenate; drain flags OR.
        """
        parts = list(reports)
        merged = cls()
        for report in parts:
            merged.runs.extend(report.runs)
            merged.quarantined.extend(report.quarantined)
            merged.drained = merged.drained or report.drained
        merged.perf_counters = PerfCountersObserver.merge(
            report.perf_counters for report in parts)
        return merged

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

    One instance is shared by whichever backend executes the batch.
    ``positions`` maps each *executed* trace's position in the
    (possibly resume-filtered) sub-batch back to its original index in
    the submitted batch, so journal records always speak in submission
    indexes and a resumed run appends to the same address space.
    """

    def __init__(self, journal=None, positions=None, drain=None):
        self.journal = journal
        self.positions = positions
        self.drain = drain
        self.drain_seen = False

    def index(self, position):
        return position if self.positions is None else self.positions[position]

    def on_start(self, positions, labels):
        """Traces were admitted: one journal commit for all of them."""
        if self.journal is not None:
            self.journal.start([(self.index(position), label)
                                for position, label in zip(positions,
                                                           labels)])

    def on_report(self, position, label, report):
        """A trace finished with a ReplayReport (serial/sharded path)."""
        if self.journal is None:
            return
        status = run_journal.REPLAYED if report.complete \
            else run_journal.FAILED
        error = report.halt_reason if report.halted else None
        error_class = (report.halt_error.type_name
                       if report.halted and report.halt_error is not None
                       else None)
        self.journal.finish(self.index(position), label, status,
                            blob=wire.encode_report(report), error=error,
                            error_class=error_class)

    def on_outcome(self, outcome):
        """A pooled trace reached its final outcome (PoolOutcome)."""
        if self.journal is None or outcome.cancelled:
            return
        if outcome.report is not None:
            status = run_journal.REPLAYED if outcome.report.complete \
                else run_journal.FAILED
        elif outcome.quarantined is not None:
            status = run_journal.QUARANTINED
        else:
            status = run_journal.FAILED
        self.journal.finish(
            self.index(outcome.index), outcome.label, status,
            attempts=outcome.attempts, worker_id=outcome.worker_id,
            blob=outcome.blob, error=outcome.error,
            error_class=outcome.error_class,
            diagnosis=outcome.quarantined)

    def drain_requested(self):
        """The backend's admission gate; journals the first request."""
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
    batch; ``observers`` are standing observers subscribed to every
    session's event stream — in-process only, so they are rejected when
    ``workers > 1`` (results merge parent-side instead).

    ``trace_timeout`` (seconds, ``workers > 1`` only) bounds any single
    trace: an over-deadline trace gets its worker killed and is
    re-queued once before being reported failed.

    ``journal`` (a file path) makes the run durable: every trace's
    start and final outcome is appended, fsync'd, to a WJ2 run journal
    (:mod:`repro.session.journal`), reports included as WR3 blobs. With
    ``resume=True`` and an existing journal, completed traces are
    replayed *from the journal* (marked ``resumed`` on their TraceRun)
    and only the remainder executes — the recovery path after a crash,
    a kill, or a graceful drain.
    """

    def __init__(self, browser_factory, driver_config=None, timing=None,
                 locator=None, failure=None, retry=None, observers=None,
                 workers=1, shards=1, trace_timeout=None, pool=None,
                 tape=None, trace_categories=None, journal=None,
                 resume=False):
        self.browser_factory = browser_factory
        #: Category spec for traced runs (``trace_dir`` set): anything
        #: :func:`~repro.telemetry.tracer.resolve_categories` accepts,
        #: e.g. ``"production"``. None records every category. Applies
        #: on all three backends (serial, sharded, pooled).
        self.trace_categories = trace_categories
        self.driver_config = driver_config
        self.timing = timing
        self.locator = locator
        self.failure = failure
        self.retry = retry
        self.observers = list(observers or [])
        #: Optional :class:`~repro.net.transport.TapeConfig` applied to
        #: every session's network: record each trace to its own tape
        #: (``<label>.tape`` under the config's directory) or play every
        #: trace back hermetically — on all three backends.
        self.tape = tape
        if workers < 1:
            raise ValueError("need at least one worker")
        if shards < 1:
            raise ValueError("need at least one shard")
        if workers > 1 and shards > 1:
            raise ValueError(
                "workers and shards are alternative scale-out backends: "
                "use shards=N for in-process interleaving (one core, zero "
                "pickling) or workers=N for a process pool (many cores)")
        self.workers = int(workers)
        self.shards = int(shards)
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
        if self.workers > 1 or self.pool is not None:
            return "pooled"
        return "sharded" if self.shards > 1 else "serial"

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
            labels = _dedupe_labels([self._default_label(trace, index)
                                     for index, trace in enumerate(traces)])
        if len(labels) != len(traces):
            raise ValueError("need one label per trace")
        if self.journal is None:
            hooks = _RunHooks(drain=drain)
            batch = self._execute(traces, labels, trace_dir, hooks)
            batch.drained = batch.drained or hooks.drain_seen
            return batch
        return self._run_journaled(traces, labels, trace_dir, drain)

    def _run_journaled(self, traces, labels, trace_dir, drain):
        """The durable path: journal every outcome; resume skips done."""
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
        finished = {}
        if self.resume and os.path.exists(self.journal):
            journal, snapshot = run_journal.RunJournal.resume(
                self.journal, labels, digests, config=config)
            finished = {index: record for index, record
                        in snapshot.finish_by_index().items()
                        if index < len(traces)}
        else:
            journal = run_journal.RunJournal.create(self.journal, config)
        remaining = [index for index in range(len(traces))
                     if index not in finished]
        hooks = _RunHooks(journal=journal, positions=remaining, drain=drain)
        try:
            if remaining:
                fresh = self._execute([traces[i] for i in remaining],
                                      [labels[i] for i in remaining],
                                      trace_dir, hooks,
                                      [texts[i] for i in remaining])
            else:
                fresh = BatchReport()
        finally:
            journal.close()
        # Reassemble in submission order: journal-replayed runs fill the
        # slots the backend never saw. Labels are already deduped, so
        # they address runs unambiguously.
        fresh_by_label = {run.label: run for run in fresh.runs}
        batch = BatchReport()
        batch.perf_counters = fresh.perf_counters
        batch.quarantined = list(fresh.quarantined)
        batch.drained = fresh.drained or hooks.drain_seen
        for index, (label, trace) in enumerate(zip(labels, traces)):
            if index in finished:
                run = self._run_from_record(index, label, trace,
                                            finished[index])
                batch.add(run)
                if finished[index].diagnosis is not None:
                    batch.quarantined.append(finished[index].diagnosis)
            elif label in fresh_by_label:
                batch.add(fresh_by_label[label])
            # else: never admitted (halt or drain) — absent from the
            # report, unfinished in the journal, re-run on resume.
        return batch

    @staticmethod
    def _run_from_record(index, label, trace, record):
        """Reconstruct a TraceRun from a journal finish record.

        The record's blob is decoded here, against the trace whose
        digest resume has just verified.
        """
        if record.blob is not None:
            try:
                report = wire.decode_report(record.blob, trace)
            except wire.WireError as exc:
                raise run_journal.JournalError(
                    "finish record of trace %d (%r) holds a malformed "
                    "report: %s" % (index, label, exc))
        else:
            report = ReplayReport(trace)
            report.halted = True
            report.halt_reason = (record.error
                                  or "failed in journaled run")
            report.halt_error = RemoteError(
                report.halt_reason,
                type_name=record.error_class or "WorkerError")
        return TraceRun(label, trace, report, resumed=True)

    def _execute(self, traces, labels, trace_dir, hooks, texts=None):
        """Dispatch to the serial/sharded/pooled backend.

        ``texts`` (pooled only) are the traces' serialized texts when
        the caller already made them.
        """
        if self.workers > 1 or self.pool is not None:
            return self._run_pooled(traces, labels, trace_dir, hooks, texts)
        execute = self._run_sharded if self.shards > 1 else self._run
        if trace_dir is None:
            return execute(traces, labels, tracer=None, trace_dir=None,
                           hooks=hooks)
        os.makedirs(trace_dir, exist_ok=True)
        if telemetry.enabled():
            # A caller already installed a tracer (e.g. an outer
            # tracing() block) — record into it rather than nesting.
            return execute(traces, labels, tracer=telemetry.current(),
                           trace_dir=trace_dir, hooks=hooks)
        with telemetry.tracing(categories=self.trace_categories) as tracer:
            batch = execute(traces, labels, tracer=tracer,
                            trace_dir=trace_dir, hooks=hooks)
            telemetry.write_trace(
                os.path.join(trace_dir, "batch.trace.json"), tracer)
        return batch

    # -- serial (in-process) execution --------------------------------------

    def _run(self, traces, labels, tracer, trace_dir, hooks=None):
        hooks = hooks if hooks is not None else _RunHooks()
        batch = BatchReport()
        perf_totals = PerfCountersObserver()
        used_stems = set()
        throttle = throttle_seconds()
        for position, (label, trace) in enumerate(zip(labels, traces)):
            if hooks.drain_requested():
                # Graceful drain: stop admission; everything already
                # finished is journaled, the rest resumes later.
                batch.drained = True
                break
            hooks.on_start((position,), (label,))
            if throttle:
                time.sleep(throttle)
            browser = self.browser_factory()
            tape_session = (self.tape.attach(browser.network, label)
                            if self.tape is not None else None)
            mark = None
            if tracer is not None:
                # Virtual timestamps come from the session's own clock.
                tracer.clock = browser.clock
                mark = tracer.mark()
            try:
                engine = SessionEngine(
                    browser,
                    driver_config=self.driver_config,
                    timing=self.timing,
                    locator=self.locator,
                    failure=self.failure,
                    retry=self.retry,
                    observers=self.observers + [perf_totals],
                )
                report = engine.run(trace)
            finally:
                # Reset even when the engine raises mid-batch: a stale
                # clock would stamp later events (or a later trace) with
                # a dead session's virtual time.
                if tracer is not None:
                    tracer.clock = None
                if tape_session is not None:
                    tape_session.finish()
            batch.add(TraceRun(label, trace, report))
            hooks.on_report(position, label, report)
            if tracer is not None and trace_dir is not None:
                stem = _unique_stem(label, used_stems)
                telemetry.write_trace(
                    os.path.join(trace_dir, "%s.trace.json" % stem),
                    tracer, events=tracer.events_since(mark))
            if report.halted and self._halts_batch():
                # FailurePolicy.halt is the batch-level abort: stop
                # dispatching the remaining traces. (stop/continue end
                # at session scope; the batch carries on.)
                break
        batch.perf_counters = perf_totals.summary()
        return batch

    def _halts_batch(self):
        """True when the runner's failure policy is ``halt``."""
        return (self.failure is not None
                and self.failure.on_failure == FailurePolicy.HALT)

    # -- sharded (in-process interleaved) execution ---------------------------

    def _run_sharded(self, traces, labels, tracer, trace_dir, hooks=None):
        from repro.session.shard import ShardedRunner

        runner = ShardedRunner(
            self.browser_factory, self.shards,
            driver_config=self.driver_config, timing=self.timing,
            locator=self.locator, failure=self.failure, retry=self.retry,
            observers=self.observers, tape=self.tape)
        write_trace = None
        if tracer is not None and trace_dir is not None:
            def write_trace(stem, events):
                telemetry.write_trace(
                    os.path.join(trace_dir, "%s.trace.json" % stem),
                    tracer, events=events)
        return runner.run(traces, labels, tracer=tracer,
                          trace_dir=trace_dir, write_trace=write_trace,
                          hooks=hooks)

    # -- pooled (multiprocess) execution -------------------------------------

    def _run_pooled(self, traces, labels, trace_dir, hooks=None, texts=None):
        from repro.session.pool import WorkerPool, WorkerSpec
        from repro.telemetry.merge import TraceMerger

        hooks = hooks if hooks is not None else _RunHooks()
        if self.observers:
            raise ValueError(
                "standing observers cannot follow sessions into worker "
                "processes; run with workers=1, or merge shard results "
                "parent-side (see PerfCountersObserver.merge)")
        engine_config = {
            "driver_config": self.driver_config,
            "timing": self.timing,
            "locator": self.locator,
            "failure": self.failure,
            "retry": self.retry,
        }
        pool = self.pool
        owned = pool is None
        if owned:
            spec = (self.browser_factory
                    if isinstance(self.browser_factory, WorkerSpec)
                    else WorkerSpec(self.browser_factory))
            pool = WorkerPool(
                spec, self.workers,
                driver_config=self.driver_config, timing=self.timing,
                locator=self.locator, failure=self.failure, retry=self.retry,
                trace_timeout=self.trace_timeout)
        tracing_on = trace_dir is not None
        if tracing_on:
            os.makedirs(trace_dir, exist_ok=True)
        # Journal every admission up front, in one commit, before any
        # dispatch: the pool schedules chunks dynamically, so "started"
        # means "handed to the farm".
        hooks.on_start(range(len(labels)), labels)
        try:
            # A borrowed pool keeps its workers warm for the caller's
            # next batch; its chunks run under *this* runner's policies.
            outcomes, dropped = pool.run(
                list(zip(labels, traces)),
                tracing=(self.trace_categories or True) if tracing_on
                else False,
                engine_config=engine_config, tape=self.tape,
                on_outcome=hooks.on_outcome,
                drain=hooks.drain_requested if hooks.drain is not None
                else None, texts=texts)
        finally:
            if owned:
                pool.close()
        if pool.stats.get("degraded"):
            hooks.event("degraded", deaths=pool.supervisor.deaths)
        merger = TraceMerger()
        merger.dropped += dropped
        used_stems = set()
        shards = []
        drained = False
        for outcome, label, trace in zip(outcomes, labels, traces):
            if outcome.cancelled:
                # Recalled by a graceful drain before it ran: no run,
                # no journal finish — it re-runs on resume.
                drained = True
                continue
            report = outcome.report
            if report is None:
                # Containment outcome: the worker died or the trace was
                # killed on timeout — report it failed, keep the batch.
                # halt_error's type_name discriminates deadline kills
                # (TimeoutError) from dead workers (WorkerCrashError).
                report = ReplayReport(trace)
                report.halted = True
                report.halt_reason = outcome.error or "worker failed"
                report.halt_error = RemoteError(
                    report.halt_reason,
                    type_name=outcome.error_class or "WorkerError")
            shard = BatchReport()
            shard.add(TraceRun(label, trace, report))
            shard.perf_counters = report.perf_counters
            if outcome.quarantined is not None:
                shard.quarantined.append(outcome.quarantined)
            shards.append(shard)
            if tracing_on and outcome.events is not None:
                events, metadata = merger.add_session(
                    outcome.worker_id, outcome.events,
                    outcome.metadata or ())
                stem = _unique_stem(label, used_stems)
                telemetry.write_trace_dict(
                    os.path.join(trace_dir, "%s.trace.json" % stem),
                    telemetry.to_trace_dict_raw(events, metadata=metadata))
        batch = BatchReport.merge(shards)
        batch.drained = drained
        if tracing_on:
            telemetry.write_trace_dict(
                os.path.join(trace_dir, "batch.trace.json"),
                merger.trace_dict())
        return batch

    @staticmethod
    def _default_label(trace, index):
        return trace.label or "trace-%d" % index


def _dedupe_labels(labels):
    """Suffix repeated labels (``x``, ``x-2``, ``x-3``) so every
    :class:`TraceRun` in a batch is unambiguously addressable."""
    seen = set()
    result = []
    for label in labels:
        unique = label
        if unique in seen:
            suffix = 2
            while "%s-%d" % (label, suffix) in seen:
                suffix += 1
            unique = "%s-%d" % (label, suffix)
        seen.add(unique)
        result.append(unique)
    return result


def _unique_stem(label, used_stems):
    """A filesystem stem for ``label``, deduped against ``used_stems``.

    Repeated labels (the same trace run twice) must not overwrite each
    other's per-session trace file.
    """
    stem = _safe_name(label)
    if stem in used_stems:
        suffix = 2
        while "%s-%d" % (stem, suffix) in used_stems:
            suffix += 1
        stem = "%s-%d" % (stem, suffix)
    used_stems.add(stem)
    return stem


def _safe_name(label):
    """A filesystem-safe file stem for a trace label."""
    return "".join(c if c.isalnum() or c in "-._" else "_"
                   for c in str(label)) or "trace"

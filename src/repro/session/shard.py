"""In-process sharded batch replay: N interleaved sessions, zero pickling.

A worker pool buys parallelism with real processes — spawn cost,
per-worker browser factories, result serialization. On a single core
that machinery is pure overhead, and the engine does not actually need
it to multiplex sessions: every session runs on its *own* browser with
its own virtual clock and discrete-event loop, so two sessions never
contend for real time. :class:`ShardedRunner` exploits that — it keeps
up to ``shards`` sessions open at once and round-robins one command at
a time across them, cooperatively, in one process. No pickling, no
queues, no spawn; the cost over serial execution is a scope switch per
command. Throughput on one core therefore tracks serial replay (the
"never worse than serial" floor the batch bench asserts), while
latency-to-first-result and fairness across traces behave like a pool.

Per-session accounting still works under interleaving:

- **perf counters** — each session carries a
  :class:`repro.perf.Scope`; the runner activates it around every call
  into the session, so counter attribution matches what a serial run
  would report even though the global counters interleave;
- **telemetry** — the tracer's virtual clock is repointed to the
  stepping session's browser before every step, and each step's slice
  of the ring buffer is banked per session, so per-session trace files
  come out coherent and the merged timeline keeps every browser on its
  own track.

The runner is driven through :class:`~repro.session.batch.BatchRunner`
(``BatchRunner(shards=N)`` / ``python -m repro batch --shards N``);
report and counter merging are identical to the serial path by
construction — the equivalence tests pin serial, sharded, and pooled
runs of one batch to equal results.
"""

import time
from collections import deque

from repro import perf
from repro.session.batch import BatchReport, TraceRun, _unique_stem
from repro.session.engine import SessionEngine
from repro.session.observers import PerfCountersObserver
from repro.session.policies import FailurePolicy
from repro.session.supervisor import throttle_seconds


class _Shard:
    """One in-flight session slot."""

    __slots__ = ("order", "label", "trace", "browser", "run", "commands",
                 "scope", "events", "tape_session")

    def __init__(self, order, label, trace):
        #: Submission index: the report lists runs in input order even
        #: though interleaved sessions finish out of order.
        self.order = order
        self.label = label
        self.trace = trace
        self.browser = None
        self.run = None
        self.commands = iter(trace)
        #: Private perf ledger, active only while this session executes.
        self.scope = perf.Scope()
        #: This session's slice of the telemetry buffer (tracing only).
        self.events = []
        #: The attached tape (record/playback runs), closed on finalize.
        self.tape_session = None


class ShardedRunner:
    """Interleaves up to ``shards`` sessions cooperatively in-process."""

    def __init__(self, browser_factory, shards, driver_config=None,
                 timing=None, locator=None, failure=None, retry=None,
                 observers=None, tape=None):
        if shards < 1:
            raise ValueError("need at least one shard")
        self.browser_factory = browser_factory
        self.shards = int(shards)
        self.driver_config = driver_config
        self.timing = timing
        self.locator = locator
        self.failure = failure
        self.retry = retry
        self.observers = list(observers or [])
        #: Optional TapeConfig; every admitted session gets its own
        #: attached tape (networks are per-browser, so interleaved
        #: sessions record/play back independently).
        self.tape = tape

    # -- the cooperative loop ------------------------------------------------

    def run(self, traces, labels, tracer=None, trace_dir=None,
            write_trace=None, hooks=None):
        """Replay the batch with up to ``shards`` interleaved sessions.

        ``tracer``/``trace_dir``/``write_trace`` mirror the serial batch
        path: with tracing on, each finished session's banked events are
        written to ``<label>.trace.json`` via ``write_trace(path,
        events)``. ``hooks`` (a batch ``_RunHooks``) journals each
        admission and finish and gates admission on a graceful drain —
        in-flight sessions still run to completion.
        """
        batch = BatchReport()
        perf_totals = PerfCountersObserver()
        throttle = throttle_seconds()
        pending = deque((order, label, trace) for order, (label, trace)
                        in enumerate(zip(labels, traces)))
        active = deque()
        finished = {}
        used_stems = set()
        halt_batch = False
        try:
            while pending or active:
                while (len(active) < self.shards and pending
                       and not halt_batch):
                    if hooks is not None and hooks.drain_requested():
                        batch.drained = True
                        halt_batch = True
                        break
                    order, label, trace = pending.popleft()
                    if hooks is not None:
                        hooks.on_start((order,), (label,))
                    if throttle:
                        time.sleep(throttle)
                    active.append(self._admit(order, label, trace,
                                              perf_totals=perf_totals,
                                              tracer=tracer))
                if not active:
                    # Halt with sessions left in the queue: admission is
                    # closed and the in-flight ones have drained.
                    break
                slot = active.popleft()
                if self._step(slot, tracer):
                    report = self._finalize(slot, tracer, trace_dir,
                                            used_stems, write_trace)
                    finished[slot.order] = TraceRun(slot.label, slot.trace,
                                                    report)
                    if hooks is not None:
                        hooks.on_report(slot.order, slot.label, report)
                    if report.halted and self._halts_batch():
                        # Halt stops *admission*; sessions already in
                        # flight drain to completion (matching the
                        # pool, where queued traces cannot be recalled
                        # from workers mid-chunk).
                        halt_batch = True
                else:
                    active.append(slot)
        finally:
            if tracer is not None:
                tracer.clock = None
        for order in sorted(finished):
            batch.add(finished[order])
        batch.perf_counters = perf_totals.summary()
        return batch

    def _halts_batch(self):
        return (self.failure is not None
                and self.failure.on_failure == FailurePolicy.HALT)

    # -- per-session transitions ---------------------------------------------

    def _admit(self, order, label, trace, perf_totals, tracer):
        """Open a new session slot (fresh browser, fresh engine)."""
        slot = _Shard(order, label, trace)
        slot.browser = self.browser_factory()
        if self.tape is not None:
            slot.tape_session = self.tape.attach(slot.browser.network,
                                                 slot.label)
        engine = SessionEngine(
            slot.browser,
            driver_config=self.driver_config,
            timing=self.timing,
            locator=self.locator,
            failure=self.failure,
            retry=self.retry,
            observers=self.observers + [perf_totals],
        )
        mark = self._enter(slot, tracer)
        try:
            slot.run = engine.start(trace, perf_scope=slot.scope)
        finally:
            self._leave(slot, tracer, mark)
        return slot

    def _step(self, slot, tracer):
        """Advance the session by one command; True when it is done."""
        run = slot.run
        if run.stopped:
            return True
        try:
            command = next(slot.commands)
        except StopIteration:
            return True
        mark = self._enter(slot, tracer)
        try:
            run.step(command)
        finally:
            self._leave(slot, tracer, mark)
        return run.stopped

    def _finalize(self, slot, tracer, trace_dir, used_stems, write_trace):
        """Close the session out and write its trace slice if tracing."""
        mark = self._enter(slot, tracer)
        try:
            report = slot.run.finish()
        finally:
            self._leave(slot, tracer, mark)
            if slot.tape_session is not None:
                slot.tape_session.finish()
        if tracer is not None and trace_dir is not None \
                and write_trace is not None:
            stem = _unique_stem(slot.label, used_stems)
            write_trace(stem, slot.events)
        return report

    # -- execution bracketing ------------------------------------------------

    def _enter(self, slot, tracer):
        """Activate the slot's perf scope and clock; returns restore info."""
        previous = perf.set_scope(slot.scope)
        mark = None
        if tracer is not None:
            tracer.clock = slot.browser.clock
            mark = tracer.mark()
        return (previous, mark)

    def _leave(self, slot, tracer, state):
        previous, mark = state
        perf.set_scope(previous)
        if tracer is not None:
            slot.events.extend(tracer.events_since(mark))
            tracer.clock = None

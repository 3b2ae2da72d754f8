"""Multiprocess batch replay: the supervised warm worker-pool backend.

Once single-session replay is fast, the next multiplier is running many
replays at once — every session in a batch is fully isolated by
construction (fresh browser per trace), so a batch is embarrassingly
parallel. The first-generation pool proved the containment story but
lost to serial replay on throughput: it spawned processes per batch
and shipped every report as a recursively-pickled dict. This pool
keeps the containment semantics and deletes the overhead:

- **persistent warm workers** — :meth:`WorkerPool.start` spawns the
  workers once; they build their browser factory on first use and then
  serve *batches* (``run()`` may be called repeatedly on a live pool,
  so spawn and import cost amortize across a whole campaign). The pool
  is a context manager; :meth:`close` retires the workers.
- **one channel pair per worker** — each worker reads its own task
  queue and writes its own result pipe, and both are discarded with
  it, so no lock is shared between processes: a worker killed while it
  waits for work cannot wedge any other. The parent's ``put`` never
  blocks (the queue's feeder thread writes), so a large task cannot
  deadlock against a large result.
- **the parent schedules** — it keeps the batch's pending traces and
  tops each worker up to :data:`ASSIGNED` traces, the one running and
  the next, so a worker never waits on the parent between traces. A
  worker's result sends it its next trace before the result is decoded
  or journaled.
- **one encoding per result** — workers encode each report straight
  into a WR3 blob (:mod:`repro.session.wire`: string-interned,
  varint-packed, no trace text, one byte per command the trace already
  holds); the pipe carries that blob, the run journal stores it
  verbatim, and the parent decodes it once, against its own trace
  object, as it arrives. A task carries the trace's memoized
  :meth:`~repro.core.trace.WarrTrace.to_text` and workers cache parsed
  traces, so a campaign serializes each trace once and parses it once
  per worker.
  Telemetry slices (tracing runs only) ride alongside as raw
  packed ring-buffer records plus the worker's string-intern tables
  (:meth:`~repro.telemetry.packed.PackedRingBuffer.wire_slice`).
- **blocking result drain** — the parent sleeps in
  ``multiprocessing.connection.wait`` on every result pipe plus every
  worker's death sentinel; an idle parent burns no CPU and still wakes
  instantly for results *and* crashes. Only live deadlines (per-trace
  timeout, respawn backoff) force a polling cadence.

Containment and supervision (see :mod:`repro.session.supervisor`):

- a worker answers its traces in order, and its ``send`` returns
  before it takes the next one, so once a dead worker's pipe is read to
  its end, the oldest trace it has not answered is the one it was
  running. A worker that dies (segfault, ``os._exit``, OOM kill, an
  injected ``worker`` chaos kill) or overruns the per-trace deadline
  is charged that trace alone; the rest of its assignment returns to
  the front of the pending list untouched;
- a charged trace is re-queued **once**, at the back; a second
  timeout/crash (necessarily on a different worker: a charge kills
  its worker) quarantines it with a diagnosis bundle (attempt history,
  commands completed at death, the worker's stderr tail, the active
  chaos ``(profile, seed)`` stamp) instead of burning workers forever
  — poison traces are data, not retries. "Commands completed" is a
  shared-memory slot per worker, bumped after each step by the
  ``on_step`` callback the worker hands :func:`replay_trace`; counting
  builds no session event;
- worker kills escalate ``terminate() → join(KILL_GRACE) → kill()``,
  so a SIGTERM-masking or stopped worker cannot wedge the reaper;
- respawns back off exponentially, and repeated deaths with no
  progress trip a circuit breaker: the pool stops its workers and
  hands the unfinished traces back (warning + ``stats["degraded"]``)
  to the batch runner's serial loop — the batch still finishes;
- ``run(..., drain=gate)`` is the batch's admission gate, asked before
  every trace goes out: once it answers True, workers are no longer
  topped up, pending traces are cancelled, assigned traces finish, and
  cancelled outcomes are reported as such so a journal-backed batch
  can resume them later.

Every session, in a worker or in the parent's serial loop, runs
through :func:`replay_trace`. The parent's
:class:`~repro.session.batch.BatchRunner` assembles the outcomes into
one :class:`~repro.session.batch.BatchReport`; counter deltas sum
through :meth:`~repro.session.observers.PerfCountersObserver.merge`,
and its one trace writer merges every telemetry slice through
:class:`~repro.telemetry.merge.TraceMerger`.
"""

import collections
import functools
import importlib
import multiprocessing
import os
import pickle
import shutil
import tempfile
import time
import traceback
import warnings
from multiprocessing.connection import wait as _connection_wait

from repro import chaos
from repro.session import wire
from repro.session.supervisor import (
    WorkerSupervisor,
    tail_text,
    throttle_seconds,
)

#: Parent-side polling cadence (seconds) while a per-trace deadline is
#: armed.
POLL_INTERVAL = 0.05
#: How long close() waits for workers to retire, and how long a
#: SIGKILLed process may take to be reaped (seconds).
DRAIN_TIMEOUT = 10.0
#: SIGTERM → SIGKILL escalation grace (seconds).
KILL_GRACE = 1.0
#: Traces assigned to a worker at once: the one it runs and the next.
ASSIGNED = 2


def resolve_factory(reference):
    """Resolve a factory reference to a callable.

    Accepts a callable (returned unchanged) or a ``"module:attribute"``
    path.
    """
    if callable(reference):
        return reference
    if not isinstance(reference, str):
        raise TypeError("factory reference must be a callable or str, "
                        "got %r" % (reference,))
    module_name, colon, attribute = reference.partition(":")
    if not colon:
        raise ValueError("unknown factory %r: not a 'module:attr' path"
                         % reference)
    module = importlib.import_module(module_name)
    try:
        target = getattr(module, attribute)
    except AttributeError:
        raise ValueError("module %r has no attribute %r"
                         % (module_name, attribute))
    if not callable(target):
        raise TypeError("factory reference %r resolves to a non-callable "
                        "%r" % (reference, target))
    return target


class WorkerSpec:
    """A picklable recipe for a worker's browser factory.

    ``factory`` is a callable (a module-level function — lambdas and
    closures cannot be pickled) or a string reference resolvable by
    :func:`resolve_factory`. With ``factory_args``/``factory_kwargs``
    the resolved callable is treated as a *builder*: it is invoked once
    per worker with those arguments and must return the per-session
    browser factory. Without them, the resolved callable *is* the
    factory.
    """

    def __init__(self, factory, factory_args=(), factory_kwargs=None):
        self.factory = factory
        self.factory_args = tuple(factory_args)
        self.factory_kwargs = dict(factory_kwargs or {})

    def make_factory(self):
        """Resolve and (if a builder) apply the recipe; in-process too."""
        target = resolve_factory(self.factory)
        if self.factory_args or self.factory_kwargs:
            return target(*self.factory_args, **self.factory_kwargs)
        return target

    def validate(self):
        """Fail fast in the parent: resolvable reference, picklable spec."""
        if isinstance(self.factory, str):
            resolve_factory(self.factory)
        try:
            pickle.dumps(self)
        except Exception as error:
            raise ValueError(
                "WorkerSpec is not picklable (%s); worker processes need a "
                "module-level factory function or a string reference, not "
                "a lambda or closure" % error)
        return self

    def __repr__(self):
        return "WorkerSpec(%r)" % (self.factory,)


class PoolOutcome:
    """One trace's result as it came back over its worker's pipe."""

    __slots__ = ("index", "label", "report", "blob", "telemetry", "error",
                 "error_class", "worker_id", "attempts", "quarantined",
                 "cancelled")

    def __init__(self, index, label):
        self.index = index
        self.label = label
        #: The :class:`ReplayReport`, built on the submitted trace
        #: object (decoded from the worker's blob when pooled), or None
        #: on worker failure.
        self.report = None
        #: The worker's WR3 blob while ``on_outcome`` journals it;
        #: dropped as soon as that hook returns. None for a report
        #: made in this process (by the serial loop).
        self.blob = None
        #: The session's telemetry slice from :func:`replay_trace`
        #: (tracing runs only).
        self.telemetry = None
        #: Worker-side traceback / containment reason when the trace
        #: never produced a report.
        self.error = None
        #: Discriminates *how* the trace failed: ``"TimeoutError"`` for a
        #: per-trace deadline kill, ``"WorkerCrashError"`` for a dead
        #: worker process, or the worker-side exception class name.
        self.error_class = None
        self.worker_id = None
        self.attempts = 1
        #: Quarantine diagnosis bundle (dict) when the trace killed two
        #: different workers; None otherwise.
        self.quarantined = None
        #: True when a graceful drain cancelled the trace before it ran.
        self.cancelled = False

    @property
    def ok(self):
        return self.report is not None

    @property
    def final(self):
        """False while the trace still has to run: never admitted, or
        handed back by a tripped breaker."""
        return self.ok or self.error_class is not None or self.cancelled

    def __repr__(self):
        state = ("ok" if self.ok else
                 "cancelled" if self.cancelled else
                 "quarantined" if self.quarantined else "failed")
        return "PoolOutcome(%d, %r, %s)" % (self.index, self.label, state)


# -- worker side --------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _parse_trace(text):
    """The parsed trace for ``text``, cached per worker.

    Campaigns replay the same traces batch after batch on a warm pool;
    the cache parses each text once per worker. Sharing a parsed trace
    between replays is safe because replay never mutates a trace.
    """
    from repro.core.trace import WarrTrace

    return WarrTrace.from_text(text)


def replay_trace(factory, engine_config, trace, label=None, tape=None,
                 tracer=None, on_step=None):
    """Replay one trace on a fresh browser from ``factory``.

    The one per-trace path of every batch: the serial loop and the
    pool worker call it. Returns ``(report, telemetry)``: with a
    ``tracer``, ``telemetry`` is the session's slice, ``(wire_slice,
    metadata, dropped)`` (the packed events, the track-naming metadata
    event dicts, and the events the ring buffer lost meanwhile), which
    :class:`~repro.telemetry.merge.TraceMerger` reads; None without.
    ``engine_config`` holds :class:`SessionEngine` keyword arguments;
    None means its defaults. ``on_step`` goes to
    :meth:`SessionEngine.run`. Exceptions propagate.
    """
    from repro.session.engine import SessionEngine

    throttle = throttle_seconds()
    if throttle:
        time.sleep(throttle)
    browser = factory()
    # Tape modes cross the process boundary as a picklable TapeConfig;
    # each session attaches it to its own browser's network (playback
    # is what makes pooled batch replay hermetic: no app-server state).
    tape_session = (tape.attach(browser.network, label)
                    if tape is not None else None)
    if tracer is not None:
        # Virtual timestamps come from this session's own clock.
        tracer.clock = browser.clock
        mark, dropped = tracer.mark(), tracer.buffer.dropped
    try:
        engine = SessionEngine(browser, **(engine_config or {}))
        report = engine.run(trace, on_step=on_step)
    finally:
        # Reset even when the engine raises: a stale clock would stamp
        # later events with a dead session's virtual time.
        if tracer is not None:
            tracer.clock = None
        if tape_session is not None:
            tape_session.finish()
    if tracer is None:
        return report, None
    return report, (tracer.wire_slice(mark),
                    [event.to_dict()
                     for event in tracer.registry.metadata_events],
                    tracer.buffer.dropped - dropped)


def _farm_kill_stream(worker_id):
    """The worker's private chaos stream for farm-level kills.

    Returns ``(rng, rate)`` — or ``(None, 0)`` when no injector with a
    live ``worker`` layer is installed. Workers inherit the parent's
    injector under ``fork``, so ``chaos.active(profile, seed)`` around
    a pooled batch turns chaos on the farm itself; the stream is
    derived from ``(seed, worker_id)`` so each worker's kill schedule
    is deterministic and distinct.
    """
    injector = chaos.current()
    if injector is None:
        return None, 0.0
    rate = getattr(injector.profile, "worker_kill_rate", 0.0)
    if rate <= 0.0:
        return None, 0.0
    from repro.chaos.injector import _stable_child_seed
    from repro.util.rng import SeededRandom

    return SeededRandom(_stable_child_seed(
        injector.seed, "chaos.worker.%d" % worker_id)), rate


def _worker_main(slot, worker_id, spec, tasks, results, progress,
                 stderr_path):
    """Worker loop: replay each trace from ``tasks`` until the sentinel.

    The worker persists across batches: the browser factory is built
    once (first task) and reused, and parsed traces are cached by text.
    A task carries its batch's pickled ``(tracing, engine_config,
    tape)``, loaded once per batch; a traced batch gets a fresh tracer.
    Every result is one ``send`` of a WR3 blob plus the session's
    telemetry slice, complete before the next task is taken.
    ``stderr_path`` captures fd 2 (tracebacks, native aborts) for
    post-mortem diagnosis.
    """
    from repro import telemetry
    from repro.telemetry.tracer import Tracer

    try:
        fd = os.open(stderr_path, os.O_CREAT | os.O_WRONLY | os.O_TRUNC,
                     0o600)
        os.dup2(fd, 2)
        os.close(fd)
    except OSError:
        pass
    kill_rng, kill_rate = _farm_kill_stream(worker_id)
    tracer = None
    factory = None
    config_batch = None

    def count_step():
        # The dying worker cannot tell the parent how far it got; its
        # shared progress slot can, so a quarantine diagnosis carries
        # an exact "N commands completed" even after a SIGKILL.
        progress[slot] += 1

    while True:
        task = tasks.get()
        if task is None:
            break
        batch_id, label, trace_text, config = task
        if batch_id != config_batch:
            config_batch = batch_id
            tracing, engine_config, tape = pickle.loads(config)
            # A fork inherits the parent's installed tracer (if any); the
            # worker records into its own private buffer instead. The
            # chaos injector is deliberately *kept*: chaos.active around
            # a pooled batch means chaos inside the workers too
            # (including the farm's worker layer). ``tracing`` is False,
            # True (all categories) or a category spec.
            telemetry.uninstall()
            tracer = (telemetry.install(Tracer(
                categories=None if tracing is True else tracing))
                if tracing else None)
        progress[slot] = 0
        # Farm chaos: a live ``worker`` layer may kill this process
        # between traces, exactly like an OOM kill would — containment
        # and the journal must absorb it.
        if kill_rng is not None and kill_rng.random() < kill_rate:
            os._exit(137)
        try:
            if factory is None:
                factory = spec.make_factory()
            report, trace_slice = replay_trace(
                factory, engine_config, _parse_trace(trace_text),
                label=label, tape=tape, tracer=tracer, on_step=count_step)
            message = ("result", batch_id, wire.encode_report(report),
                       trace_slice)
        except BaseException as exc:
            message = ("error", batch_id, traceback.format_exc(),
                       type(exc).__name__)
        results.send(message)


def _messages(results):
    """Yield each message waiting in a result pipe, until it is empty
    or at EOF (its worker has exited)."""
    try:
        while results.poll():
            yield results.recv()
    except (EOFError, OSError):
        return


def _stop_process(process):
    """Escalating kill: ``terminate → join(grace) → kill``.

    A worker that masks SIGTERM (or is stopped, or wedged in a
    signal-immune state) gets SIGKILL after ``KILL_GRACE`` — the
    reaper must never block on a process's cooperation.
    """
    if process.is_alive():
        process.terminate()
        process.join(KILL_GRACE)
        if process.is_alive():
            process.kill()
            process.join(DRAIN_TIMEOUT)


# -- parent side --------------------------------------------------------------


class _WorkerHandle:
    """Parent-side view of one worker: its process, its channels, and
    the traces it holds."""

    __slots__ = ("slot", "worker_id", "process", "tasks", "results",
                 "stderr_path", "assigned", "since")

    def __init__(self, slot, worker_id, process, tasks, results,
                 stderr_path):
        self.slot = slot
        self.worker_id = worker_id
        self.process = process
        self.tasks = tasks
        self.results = results
        self.stderr_path = stderr_path
        #: Task indexes sent and not yet answered, oldest (the one
        #: running) first.
        self.assigned = collections.deque()
        #: When the oldest assigned trace started (monotonic), or None.
        self.since = None

    def close(self):
        """Release both channels; the worker is gone."""
        self.tasks.close()
        self.tasks.cancel_join_thread()
        self.results.close()


class _BatchState:
    """Book-keeping and dispatch parameters for one ``run()`` call."""

    __slots__ = ("batch_id", "tasks", "config", "trace_timeout",
                 "on_outcome", "drain", "outcomes", "done", "pending",
                 "failed_on")

    def __init__(self, batch_id, tasks, tracing=False,
                 engine_config=None, trace_timeout=None, tape=None,
                 on_outcome=None, drain=None):
        self.batch_id = batch_id
        #: ``(label, trace)`` pairs, in order.
        self.tasks = tasks
        #: The policies every task carries, pickled once (which also
        #: fails fast in the parent on an unpicklable one).
        self.config = pickle.dumps((tracing or False, engine_config, tape))
        #: Per-trace deadline (seconds) for this batch; None = none.
        self.trace_timeout = trace_timeout
        self.on_outcome = on_outcome
        #: The admission gate (``run``'s ``drain``), or None.
        self.drain = drain
        self.outcomes = [PoolOutcome(index, label)
                         for index, (label, _) in enumerate(tasks)]
        self.done = [False] * len(tasks)
        #: Task indexes no worker holds, in the order they go out.
        self.pending = collections.deque(range(len(tasks)))
        #: index -> (worker_id, error_class, reason) of the first
        #: containment failure, for each trace given its second try.
        self.failed_on = {}

    @property
    def complete(self):
        return all(done or outcome.cancelled
                   for done, outcome in zip(self.done, self.outcomes))

    def finish(self, outcome):
        """Mark ``outcome`` final and pass it on."""
        self.done[outcome.index] = True
        if self.on_outcome is not None:
            self.on_outcome(outcome)

    def admitting(self):
        """Ask the admission gate before a trace goes out; once it
        closes, cancel every pending trace (the ones workers hold
        finish: drain means *finish* in-flight work)."""
        if self.drain is None or not self.drain():
            return True
        for index in self.pending:
            self.outcomes[index].cancelled = True
        self.pending.clear()
        return False


class WorkerPool:
    """Replays traces across N persistent, supervised worker processes.

    ``spec`` describes the browser factory. The pool owns the processes;
    each batch brings its own policies to :meth:`run`. Workers spawn
    lazily on the first :meth:`run` (or eagerly via :meth:`start`) and
    persist until :meth:`close` — use the pool as a context manager, or
    let a :class:`~repro.session.batch.BatchRunner` own an ephemeral
    one. Respawn backoff and the degradation breaker are the module
    constants of :mod:`repro.session.supervisor`.
    """

    def __init__(self, spec, workers):
        if workers < 1:
            raise ValueError("need at least one worker")
        if not isinstance(spec, WorkerSpec):
            spec = WorkerSpec(spec)
        self.spec = spec.validate()
        self.workers = int(workers)
        self._supervisor = WorkerSupervisor()
        self._context = _default_context()
        self._started = False
        self._closed = False
        self._handles = {}          # slot -> _WorkerHandle
        self._next_worker_id = 0
        self._next_batch_id = 0
        self._progress = None       # shared: commands finished per slot
        self._stderr_dir = None
        #: Observability: parent wakeups during result collection (the
        #: no-busy-wait regression test pins this down), plus the
        #: supervision ledger — respawns, quarantines, breaker
        #: degradations, and results abandoned at close().
        self.stats = {"wakeups": 0, "batches": 0, "abandoned": 0,
                      "respawns": 0, "quarantined": 0, "degraded": 0}

    @property
    def supervisor(self):
        """The pool's death/respawn ledger (read-mostly for callers)."""
        return self._supervisor

    # -- lifecycle ----------------------------------------------------------

    def start(self):
        """Spawn the worker processes (idempotent); returns self."""
        if self._closed:
            raise RuntimeError("pool is closed")
        if self._started:
            return self
        # Lock-free: only the worker writes its slot while it lives;
        # the parent resets it before spawn and reads it after death.
        self._progress = self._context.Array("i", [0] * self.workers,
                                             lock=False)
        self._stderr_dir = tempfile.mkdtemp(prefix="repro-pool-")
        for slot in range(self.workers):
            self._spawn(slot)
        self._started = True
        return self

    def _spawn(self, slot):
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        self._progress[slot] = 0
        stderr_path = os.path.join(self._stderr_dir,
                                   "worker-%d.stderr" % worker_id)
        tasks = self._context.Queue()
        results, sender = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_worker_main,
            args=(slot, worker_id, self.spec, tasks, sender,
                  self._progress, stderr_path),
            daemon=True)
        process.start()
        # The worker now holds the only write end, so its death reads
        # as EOF (and workers forked later cannot inherit this end).
        sender.close()
        self._handles[slot] = _WorkerHandle(slot, worker_id, process, tasks,
                                            results, stderr_path)

    def _replenish(self):
        """Refill slots whose worker died while the pool was idle (or
        was reaped at the very end of the previous batch), and replace
        a worker still holding traces of a batch that raised."""
        for slot in range(self.workers):
            handle = self._handles.get(slot)
            if handle is not None and (handle.assigned
                                       or not handle.process.is_alive()):
                _stop_process(handle.process)
                handle.close()
                del self._handles[slot]
                handle = None
            if handle is None and slot not in self._supervisor.pending_slots():
                self._spawn(slot)

    def close(self):
        """Retire the workers and release their channels (idempotent).

        Each live worker gets the shutdown sentinel behind whatever it
        holds. Results it sends before it exits were computed but never
        collected (a batch abandoned mid-drain); they are counted in
        ``stats["abandoned"]`` rather than silently discarded.
        """
        if not self._started or self._closed:
            self._closed = True
            return
        self._closed = True
        handles = list(self._handles.values())
        self._handles = {}
        for handle in handles:
            if handle.process.is_alive():
                handle.tasks.put(None)
        deadline = time.monotonic() + DRAIN_TIMEOUT
        # A worker's pipe reads EOF once it has exited.
        unfinished = {handle.results for handle in handles}
        while unfinished and time.monotonic() < deadline:
            for results in _connection_wait(
                    list(unfinished), deadline - time.monotonic()):
                try:
                    results.recv()
                    self.stats["abandoned"] += 1
                except (EOFError, OSError):
                    unfinished.discard(results)
        for handle in handles:
            # Past the deadline, a worker that has not exited is killed
            # and whatever it sent is counted.
            _stop_process(handle.process)
            for _ in _messages(handle.results):
                self.stats["abandoned"] += 1
            handle.close()
        if self._stderr_dir is not None:
            shutil.rmtree(self._stderr_dir, ignore_errors=True)
            self._stderr_dir = None

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc_value, tb):
        self.close()
        return False

    # -- batch execution -----------------------------------------------------

    def run(self, tasks, tracing=False, engine_config=None,
            trace_timeout=None, tape=None, on_outcome=None, drain=None):
        """Replay every ``(label, trace)`` task; returns
        ``(outcomes, dropped_events)`` with outcomes in input order.

        An outcome that is not :attr:`~PoolOutcome.final` was *handed
        back*: the circuit breaker tripped before the trace finished,
        and the caller must run it (``BatchRunner``'s serial loop does).
        It keeps its ``attempts``.

        A trace goes out as its memoized ``to_text()``. Each outcome's
        report is decoded against the task's own trace object as its
        result arrives.

        May be called repeatedly on a live pool — workers, their
        imported modules, and their browser factories stay warm between
        calls. Each batch carries its own policies: ``engine_config``
        (:class:`~repro.session.engine.SessionEngine` keyword arguments,
        shipped with each trace; None means the engine's defaults),
        ``trace_timeout`` (seconds: an over-deadline trace gets its
        worker killed and is re-queued once), and ``tape`` (a
        :class:`~repro.net.transport.TapeConfig`) puts every trace in
        this batch on a tape mode. ``tracing`` is False (off),
        True (every category), or a category spec for each worker's
        tracer. ``on_outcome`` is called once per task the moment its
        outcome is final (the crash-safe journaling hook). ``drain`` is
        the admission gate, a zero-argument flag asked before each trace
        goes out: once it returns True, pending traces are cancelled,
        the traces workers hold finish, and ``run`` returns. It is not
        polled: a flag raised while the parent waits is seen at the
        next result, which the traces workers hold send anyway.
        """
        batch = _BatchState(self._next_batch_id, list(tasks), tracing,
                            engine_config, trace_timeout, tape, on_outcome,
                            drain)
        self._next_batch_id += 1
        if not batch.tasks:
            return batch.outcomes, 0
        self.start()
        # Each batch starts with a closed breaker: a trip in an earlier
        # batch must not condemn workers that are healthy now.
        self._supervisor.rearm()
        self._replenish()
        self.stats["batches"] += 1
        while not batch.complete:
            self._spawn_due()
            self._top_up(batch)
            if batch.complete:
                break  # the gate closed with nothing in flight
            self._collect(batch)
            self._reap(batch)
            if self._supervisor.tripped:
                # Workers died repeatedly with no completed trace in
                # between: respawning further would burn processes for
                # nothing. Stop them and hand the rest back (see above).
                warnings.warn(
                    "worker pool degraded to in-process execution after "
                    "%d consecutive worker deaths"
                    % self._supervisor.consecutive_deaths, RuntimeWarning)
                self.stats["degraded"] += 1
                for handle in self._handles.values():
                    self._retire(batch, handle)
                self._handles = {}
                break
        return batch.outcomes, sum(outcome.telemetry[2]
                                   for outcome in batch.outcomes
                                   if outcome.telemetry is not None)

    def _top_up(self, batch):
        """Hand out pending traces breadth-first: every worker gets one
        before any gets a second."""
        for depth in range(1, ASSIGNED + 1):
            for handle in self._handles.values():
                self._assign(batch, handle, depth)

    def _assign(self, batch, handle, depth=ASSIGNED):
        """Send pending traces to ``handle`` until it holds ``depth``,
        while the admission gate stays open."""
        while batch.pending and len(handle.assigned) < depth \
                and batch.admitting():
            index = batch.pending.popleft()
            if not handle.assigned:
                handle.since = time.monotonic()
            handle.assigned.append(index)
            label, trace = batch.tasks[index]
            handle.tasks.put((batch.batch_id, label, trace.to_text(),
                              batch.config))

    # -- event handling -----------------------------------------------------

    def _spawn_due(self):
        """Spawn slots whose respawn backoff has elapsed."""
        for slot in self._supervisor.due_slots():
            if slot not in self._handles:
                self.stats["respawns"] += 1
                self._spawn(slot)

    def _collect(self, batch):
        """Sleep until a result arrives or a worker dies; take every
        result that has arrived.

        Blocks indefinitely when it safely can: each result pipe wakes
        us for every message and each worker's sentinel wakes us the
        instant that process exits, so no polling cadence is needed.
        Live deadlines force one: a per-trace timeout (a silent overrun
        posts to neither channel) or a pending respawn backoff.
        """
        candidates = []
        if batch.trace_timeout is not None:
            candidates.append(POLL_INTERVAL)
        due = self._supervisor.next_due_in()
        if due is not None:
            candidates.append(max(0.005, min(due, POLL_INTERVAL)))
        timeout = min(candidates) if candidates else None
        # Every handle's sentinel, dead or alive: a worker that died
        # after _reap's liveness check but before this wait would
        # otherwise be silently excluded. A dead sentinel is
        # permanently ready, so the wait returns at once and the next
        # _reap buries the body.
        by_pipe = {handle.results: handle
                   for handle in self._handles.values()}
        ready = _connection_wait(
            list(by_pipe) + [handle.process.sentinel
                             for handle in self._handles.values()], timeout)
        self.stats["wakeups"] += 1
        for results in ready:
            handle = by_pipe.get(results)
            if handle is not None:
                for message in _messages(results):
                    self._receive(batch, handle, message)

    def _receive(self, batch, handle, message, top_up=True):
        """Take one result from ``handle``'s worker.

        A worker answers its traces in the order it got them, so the
        message answers the oldest. With ``top_up`` the worker is sent
        its next trace before this result is decoded or journaled.
        """
        index = handle.assigned.popleft()
        handle.since = time.monotonic() if handle.assigned else None
        if top_up:
            self._assign(batch, handle)
        if message[1] != batch.batch_id:
            # A straggler from an earlier batch; _replenish replaces a
            # worker still holding one, so none is expected.
            return
        outcome = batch.outcomes[index]
        outcome.worker_id = handle.worker_id
        if message[0] == "result":
            outcome.blob = message[2]
            outcome.report = wire.decode_report(outcome.blob,
                                                batch.tasks[index][1])
            outcome.telemetry = message[3]
        else:
            outcome.error = message[2]
            outcome.error_class = message[3] or "WorkerError"
        self._supervisor.record_completion()
        batch.finish(outcome)
        outcome.blob = None

    def _retire(self, batch, handle):
        """Stop ``handle``'s worker and take every result it sent."""
        _stop_process(handle.process)
        for message in _messages(handle.results):
            self._receive(batch, handle, message, top_up=False)
        handle.close()

    def _reap(self, batch):
        """Contain dead and over-deadline workers."""
        now = time.monotonic()
        trace_timeout = batch.trace_timeout
        for slot, handle in list(self._handles.items()):
            if not handle.process.is_alive():
                casualty = ("WorkerCrashError",
                            "worker process died (exit code %s)"
                            % handle.process.exitcode)
            elif trace_timeout is not None and handle.since is not None \
                    and now - handle.since > trace_timeout:
                # Kill the stuck worker; its trace gets one more chance.
                casualty = ("TimeoutError",
                            "trace exceeded the %.3gs per-trace timeout"
                            % trace_timeout)
            else:
                continue
            del self._handles[slot]
            self._bury(batch, handle, *casualty)
            if not batch.complete:
                self._supervisor.record_death(slot, now)

    def _bury(self, batch, handle, error_class, reason):
        """Charge a dead or over-deadline worker its in-flight trace.

        What is still unanswered once the worker's results are taken
        never finished: the oldest was running and is charged, the rest
        go back to the front of the pending list uncharged.
        """
        self._retire(batch, handle)
        if not handle.assigned:
            return
        index = handle.assigned.popleft()
        batch.pending.extendleft(reversed(handle.assigned))
        outcome = batch.outcomes[index]
        outcome.worker_id = handle.worker_id
        first = batch.failed_on.get(index)
        if first is None:
            batch.failed_on[index] = (handle.worker_id, error_class, reason)
            outcome.attempts += 1
            batch.pending.append(index)
            return
        # A second containment failure, on another worker (each one
        # kills its worker): this trace is poison. Quarantine it with a
        # diagnosis bundle instead of charging the pool for it again.
        outcome.quarantined = self._diagnose(handle, outcome, first,
                                             error_class, reason)
        self.stats["quarantined"] += 1
        outcome.error = reason
        outcome.error_class = error_class
        batch.finish(outcome)

    def _diagnose(self, handle, outcome, first, error_class, reason):
        """The quarantine diagnosis bundle for a poison trace."""
        injector = chaos.current()
        return {
            "label": outcome.label,
            "index": outcome.index,
            "attempts": outcome.attempts,
            "workers": [first[0], handle.worker_id],
            "error_class": error_class,
            "reason": reason,
            "first_failure": {"worker": first[0], "error_class": first[1],
                              "reason": first[2]},
            #: The last checkpoint: commands the final attempt finished
            #: before its worker died (mirrored live via shared memory).
            "commands_completed": int(self._progress[handle.slot]),
            "stderr_tail": tail_text(handle.stderr_path),
            "chaos": ({"profile": injector.profile.name,
                       "seed": injector.seed}
                      if injector is not None else None),
        }


def _default_context():
    """Prefer ``fork`` (cheap, inherits the parent's imports); fall back
    to the platform default where fork is unavailable."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()

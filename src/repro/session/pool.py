"""Multiprocess batch replay: the supervised warm worker-pool backend.

Once single-session replay is fast, the next multiplier is running many
replays at once — every session in a batch is fully isolated by
construction (fresh browser per trace), so a batch is embarrassingly
parallel. The first-generation pool proved the containment story but
lost to serial replay on throughput: it spawned processes per batch,
paid one queue round-trip per trace, and shipped every report as a
recursively-pickled dict. This pool keeps the containment semantics and
deletes the overhead:

- **persistent warm workers** — :meth:`WorkerPool.start` spawns the
  workers once; they build their browser factory on first use and then
  serve *batches* (``run()`` may be called repeatedly on a live pool,
  so spawn and import cost amortize across a whole campaign). The pool
  is a context manager; :meth:`close` retires the workers.
- **chunked work-stealing** — tasks are enqueued as chunks (a head of
  large chunks, then a tail of size-1 chunks for load balance), so a
  worker pays one queue round-trip per chunk, not per trace, while the
  single-trace tail keeps the finish line even.
- **one encoding per result** — workers encode each report straight
  into a WR3 blob (:mod:`repro.session.wire`: string-interned,
  varint-packed, no trace text, one byte per command the trace already
  holds); the queue carries that blob, the run journal stores it
  verbatim, and the parent decodes it once, against its own trace
  object, as it arrives. Workers keep a bounded memo of parsed traces,
  so a campaign replaying the same traces parses each once per worker.
  Telemetry slices (tracing runs only) ride alongside as raw
  packed ring-buffer records plus the worker's string-intern tables
  (:meth:`~repro.telemetry.packed.PackedRingBuffer.wire_slice`).
- **blocking result drain** — the parent sleeps in
  ``multiprocessing.connection.wait`` on the result pipe plus every
  worker's death sentinel; an idle parent burns no CPU and still wakes
  instantly for results *and* crashes. Only live deadlines (per-trace
  timeout, heartbeat watch, respawn backoff, drain) force a polling
  cadence.

Containment and supervision (see :mod:`repro.session.supervisor`):

- a worker that dies mid-trace (segfault, ``os._exit``, OOM kill, an
  injected ``worker`` chaos kill) fails only its in-flight trace; the
  rest of its chunk re-queues untouched as singles;
- a trace that times out or loses its worker is re-queued **once**; a
  second timeout/crash on a *different* worker quarantines it with a
  diagnosis bundle (attempt history, commands completed at death, the
  worker's stderr tail, the active chaos ``(profile, seed)`` stamp)
  instead of burning workers forever — poison traces are data, not
  retries. "Commands completed" is a shared-memory slot per worker,
  bumped after each step by the ``on_step`` callback the worker hands
  :func:`replay_trace`; counting builds no session event;
- worker kills escalate ``terminate() → join(KILL_GRACE) → kill()``,
  so a SIGTERM-masking worker cannot wedge the reaper;
- respawns back off exponentially, and repeated deaths with no
  progress trip a circuit breaker: the pool stops its workers and
  hands the unfinished traces back (warning + ``stats["degraded"]``)
  to the batch runner's serial loop — the batch still finishes;
- with ``heartbeat=N`` each worker posts liveness beats over the
  result pipe; a worker silent for ``HANG_BEATS`` beats (SIGSTOP,
  wedged C call) is detected and contained even when no per-trace
  deadline is set;
- ``run(..., drain=flag)`` supports graceful drain: queued chunks are
  recalled, in-flight traces finish, and cancelled outcomes are
  reported as such so a journal-backed batch can resume them later.

Every session, in a worker or in the parent's serial loop, runs
through :func:`replay_trace`. The parent's
:class:`~repro.session.batch.BatchRunner` assembles the outcomes into
one :class:`~repro.session.batch.BatchReport`; counter deltas sum
through :meth:`~repro.session.observers.PerfCountersObserver.merge`
(observer *instances* never cross processes), and telemetry slices
merge through :class:`~repro.telemetry.merge.TraceMerger`.
"""

import importlib
import multiprocessing
import os
import pickle
import queue as queue_module
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
    start_heartbeat,
    tail_text,
    throttle_seconds,
)

#: Error classes eligible for quarantine: the trace took its worker
#: down (or past a deadline) twice — a worker-side Python exception is
#: deterministic app behavior, not poison.
QUARANTINE_CLASSES = ("TimeoutError", "WorkerCrashError", "WorkerHangError")

#: Parent-side polling cadence (seconds) while a deadline, heartbeat
#: watch, or drain flag is armed; also close()'s retirement poll.
POLL_INTERVAL = 0.05
#: How long close() waits for workers to retire, and how long a
#: SIGKILLed process may take to be reaped (seconds).
DRAIN_TIMEOUT = 10.0
#: SIGTERM → SIGKILL escalation grace (seconds).
KILL_GRACE = 1.0
#: Heartbeats a worker may miss before it counts as hung.
HANG_BEATS = 6


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
    """One trace's result as it came back over the result queue."""

    __slots__ = ("index", "label", "report", "blob", "events", "metadata",
                 "error", "error_class", "worker_id", "attempts",
                 "quarantined", "cancelled")

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
        #: Telemetry event dicts for this session (tracing runs only).
        self.events = None
        #: The worker registry's track-naming metadata event dicts.
        self.metadata = None
        #: Worker-side traceback / containment reason when the trace
        #: never produced a report.
        self.error = None
        #: Discriminates *how* the trace failed: ``"TimeoutError"`` for a
        #: per-trace deadline kill, ``"WorkerCrashError"`` for a dead
        #: worker process, ``"WorkerHangError"`` for a lost heartbeat,
        #: or the worker-side exception class name.
        self.error_class = None
        self.worker_id = None
        self.attempts = 1
        #: Quarantine diagnosis bundle (dict) when the trace killed two
        #: different workers; None otherwise.
        self.quarantined = None
        #: True when a graceful drain recalled the trace before it ran.
        self.cancelled = False

    @property
    def ok(self):
        return self.report is not None

    def __repr__(self):
        state = ("ok" if self.ok else
                 "cancelled" if self.cancelled else
                 "quarantined" if self.quarantined else "failed")
        return "PoolOutcome(%d, %r, %s)" % (self.index, self.label, state)


def plan_chunks(count, workers):
    """Split task indexes ``0..count-1`` into dispatch chunks.

    The head of the batch goes out in large chunks (one queue round-trip
    amortized over many traces); the last ~``2 * workers`` traces go out
    as size-1 chunks so the batch's finish line stays level — a worker
    stuck behind a big final chunk would otherwise idle the rest of the
    pool.
    """
    if count <= 0:
        return []
    workers = max(1, workers)
    tail = min(count, workers * 2)
    head = count - tail
    # Aim for ~2 head chunks per worker so dynamic stealing can still
    # rebalance, without one round-trip per trace.
    chunk_size = max(1, -(-head // (workers * 2)))
    chunks = []
    position = 0
    while position < head:
        chunks.append(list(range(position, min(position + chunk_size, head))))
        position = min(position + chunk_size, head)
    for index in range(head, count):
        chunks.append([index])
    return chunks


# -- worker side --------------------------------------------------------------


class _TraceMemo:
    """Parsed traces keyed by their exact text, for one worker.

    Campaigns replay the same traces batch after batch on a warm pool;
    the memo parses each text once per worker. It holds at most
    :attr:`LIMIT` traces and is cleared outright when full. Sharing a
    parsed trace between replays is safe because replay never mutates
    a trace.
    """

    LIMIT = 256

    def __init__(self):
        self._traces = {}

    def __len__(self):
        return len(self._traces)

    def parse(self, text):
        trace = self._traces.get(text)
        if trace is None:
            from repro.core.trace import WarrTrace

            if len(self._traces) >= self.LIMIT:
                self._traces.clear()
            trace = self._traces[text] = WarrTrace.from_text(text)
        return trace


def replay_trace(factory, engine_config, trace, label=None, tape=None,
                 tracer=None, observers=None, on_step=None):
    """Replay one trace on a fresh browser from ``factory``.

    The one per-trace path of every batch: the serial loop and the
    pool worker call it. Returns
    ``(report, mark)``, where ``mark`` is the tracer position before
    the session (None without ``tracer``) so the caller can slice the
    session's events out of the buffer. ``engine_config`` holds
    :class:`SessionEngine` keyword arguments; None means its defaults.
    ``on_step`` goes to :meth:`SessionEngine.run`. Exceptions propagate.
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
    mark = None
    if tracer is not None:
        # Virtual timestamps come from this session's own clock.
        tracer.clock = browser.clock
        mark = tracer.mark()
    try:
        engine = SessionEngine(browser, observers=observers,
                               **(engine_config or {}))
        report = engine.run(trace, on_step=on_step)
    finally:
        # Reset even when the engine raises: a stale clock would stamp
        # later events with a dead session's virtual time.
        if tracer is not None:
            tracer.clock = None
        if tape_session is not None:
            tape_session.finish()
    return report, mark


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


def _worker_main(slot, worker_id, spec, task_queue, result_queue, current,
                 chunk_current, progress, heartbeat=None, stderr_path=None):
    """Worker loop: serve chunks until the shutdown sentinel.

    The worker persists across batches: the browser factory is built
    once (first task) and reused, parsed traces are memoized by text,
    and a tracer is installed/uninstalled as batches toggle tracing.
    Every result ships as one WR3 blob plus the tracer's drop-count
    delta. ``stderr_path`` captures
    fd 2 (tracebacks, native aborts) for post-mortem diagnosis;
    ``heartbeat`` starts the liveness beat thread.
    """
    from repro import telemetry
    from repro.telemetry.tracer import Tracer, resolve_categories

    if stderr_path is not None:
        try:
            fd = os.open(stderr_path,
                         os.O_CREAT | os.O_WRONLY | os.O_TRUNC, 0o600)
            os.dup2(fd, 2)
            os.close(fd)
        except OSError:
            pass
    # A fork inherits the parent's installed tracer (if any); the worker
    # records into its own private buffer instead. The chaos injector
    # is deliberately *kept*: chaos.active around a pooled batch means
    # chaos inside the workers too (including the farm's worker layer).
    telemetry.uninstall()
    beat_stop = None
    if heartbeat:
        beat_stop = start_heartbeat(result_queue, worker_id, heartbeat)
    kill_rng, kill_rate = _farm_kill_stream(worker_id)
    tracer = None
    tracer_cats = None
    factory = None
    traces = _TraceMemo()
    dropped_sent = 0

    def count_step():
        # The dying worker cannot tell the parent how far it got; its
        # shared progress slot can, so a quarantine diagnosis carries
        # an exact "N commands completed" even after a SIGKILL.
        progress[slot] += 1

    while True:
        task = task_queue.get()
        if task is None:
            break
        batch_id, chunk_id, tracing, engine_config, tape, items = task
        chunk_current[slot] = chunk_id
        # ``tracing`` is False, True (all categories) or a category
        # spec; a batch with a different spec gets a fresh tracer.
        cats = (None if tracing is True or not tracing
                else resolve_categories(tracing))
        if tracer is not None and (not tracing or cats != tracer_cats):
            telemetry.uninstall()
            tracer = None
            dropped_sent = 0
        if tracing and tracer is None:
            tracer = Tracer(categories=cats)
            tracer_cats = cats
            telemetry.install(tracer)
        for index, label, trace_text in items:
            # Shared-memory in-flight marker: written *before* any user
            # code runs so the parent can attribute a crash even when
            # the dying process never flushes a message.
            current[slot] = index
            progress[slot] = 0
            # Farm chaos: a live ``worker`` layer may kill this process
            # mid-chunk, exactly like an OOM kill would — containment
            # and the journal must absorb it.
            if kill_rng is not None and kill_rng.random() < kill_rate:
                # Flush results already handed to the queue's feeder
                # thread before dying: the simulated kill means "this
                # process dies between traces", not "the pipe eats
                # finished work in transit".
                result_queue.close()
                result_queue.join_thread()
                os._exit(137)
            try:
                if factory is None:
                    factory = spec.make_factory()
                report, mark = replay_trace(
                    factory, engine_config, traces.parse(trace_text),
                    label=label, tape=tape, tracer=tracer,
                    on_step=count_step)
                events = metadata = None
                dropped = 0
                if tracer is not None:
                    # Packed records + intern tables, not per-event
                    # dicts: the parent-side TraceMerger decodes and
                    # remaps the slice.
                    events = tracer.wire_slice(mark)
                    metadata = [event.to_dict() for event
                                in tracer.registry.metadata_events]
                    dropped = tracer.buffer.dropped - dropped_sent
                    dropped_sent = tracer.buffer.dropped
                message = ("result", batch_id, worker_id, index,
                           wire.encode_report(report), events, metadata,
                           dropped)
            except BaseException as exc:
                message = ("error", batch_id, worker_id, index,
                           traceback.format_exc(), type(exc).__name__)
            result_queue.put(message)
            current[slot] = -1
        chunk_current[slot] = -1
    if beat_stop is not None:
        beat_stop.set()
    result_queue.put(("bye", -1, worker_id))


# -- parent side --------------------------------------------------------------


class _WorkerHandle:
    """Parent-side view of one worker slot."""

    __slots__ = ("slot", "worker_id", "process", "inflight_index",
                 "inflight_since", "last_beat", "stderr_path", "chunks_seen")

    def __init__(self, slot, worker_id, process, stderr_path=None):
        self.slot = slot
        self.worker_id = worker_id
        self.process = process
        self.inflight_index = -1
        self.inflight_since = None
        #: Last proof of life (spawn, heartbeat, or any message).
        self.last_beat = time.monotonic()
        self.stderr_path = stderr_path
        #: Every chunk id this worker was observed holding — the
        #: casualty sweep requeues unfinished work from *all* of them,
        #: since a result enqueued just before death may never have
        #: made it out of the dying process's outbox.
        self.chunks_seen = set()


class _BatchState:
    """Book-keeping and dispatch parameters for one ``run()`` call."""

    __slots__ = ("batch_id", "tasks", "texts", "outcomes", "done",
                 "dropped", "chunks", "failed_on", "tracing",
                 "engine_config", "trace_timeout", "tape", "on_outcome")

    def __init__(self, batch_id, tasks, texts=None, tracing=False,
                 engine_config=None, trace_timeout=None, tape=None,
                 on_outcome=None):
        self.batch_id = batch_id
        #: ``(label, trace)`` pairs and each trace's text, in order.
        self.tasks = tasks
        self.texts = (texts if texts is not None
                      else [trace.to_text() for _, trace in tasks])
        self.tracing = tracing or False
        self.engine_config = engine_config
        #: Per-trace deadline (seconds) for this batch; None = none.
        self.trace_timeout = trace_timeout
        self.tape = tape
        self.on_outcome = on_outcome
        self.outcomes = [PoolOutcome(index, label)
                         for index, (label, _) in enumerate(tasks)]
        self.done = [False] * len(tasks)
        self.dropped = 0
        self.chunks = {}        # chunk_id -> [task indexes]
        #: index -> (worker_id, error_class, reason) of the first
        #: containment failure, for each trace given its second try —
        #: the quarantine decision needs to know whether the second
        #: failure hit a *different* worker.
        self.failed_on = {}

    @property
    def complete(self):
        return all(done or outcome.cancelled
                   for done, outcome in zip(self.done, self.outcomes))

    def finish(self, outcome):
        """Mark ``outcome`` final (un-cancelled) and pass it on."""
        outcome.cancelled = False
        self.done[outcome.index] = True
        if self.on_outcome is not None:
            self.on_outcome(outcome)


class WorkerPool:
    """Replays traces across N persistent, supervised worker processes.

    ``spec`` describes the browser factory. The pool owns the processes;
    each batch brings its own policies to :meth:`run`. Workers spawn
    lazily on the first :meth:`run` (or eagerly via :meth:`start`) and
    persist until :meth:`close` — use the pool as a context manager, or
    let a :class:`~repro.session.batch.BatchRunner` own an ephemeral
    one.

    ``heartbeat`` (seconds) turns on worker liveness beats; a worker
    silent for ``HANG_BEATS`` beats is contained as hung. Respawn
    backoff and the degradation breaker are the module constants of
    :mod:`repro.session.supervisor`.
    """

    def __init__(self, spec, workers, heartbeat=None):
        if workers < 1:
            raise ValueError("need at least one worker")
        if not isinstance(spec, WorkerSpec):
            spec = WorkerSpec(spec)
        self.spec = spec.validate()
        self.workers = int(workers)
        self.heartbeat = heartbeat
        self.hang_timeout = heartbeat * HANG_BEATS if heartbeat else None
        self._supervisor = WorkerSupervisor()
        self._context = _default_context()
        self._started = False
        self._closed = False
        self._handles = {}          # slot -> _WorkerHandle
        self._next_worker_id = 0
        self._next_batch_id = 0
        self._next_chunk_id = 0
        self._task_queue = None
        self._result_queue = None
        self._current = None        # shared: in-flight task index per slot
        self._chunk_current = None  # shared: in-flight chunk id per slot
        self._progress = None       # shared: commands finished per slot
        self._stderr_dir = None
        #: Observability: parent wakeups during result collection (the
        #: no-busy-wait regression test pins this down), plus the
        #: supervision ledger — respawns, heartbeat hangs, quarantines,
        #: breaker degradations, and results abandoned at close().
        self.stats = {"wakeups": 0, "batches": 0, "abandoned": 0,
                      "respawns": 0, "hangs": 0, "quarantined": 0,
                      "degraded": 0}

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
        ctx = self._context
        self._task_queue = ctx.Queue()
        self._result_queue = ctx.Queue()
        self._current = ctx.Array("i", [-1] * self.workers)
        self._chunk_current = ctx.Array("i", [-1] * self.workers)
        # Lock-free: only the worker writes its slot while it lives;
        # the parent resets it before spawn and reads it after death.
        self._progress = ctx.Array("i", [0] * self.workers, lock=False)
        self._stderr_dir = tempfile.mkdtemp(prefix="repro-pool-")
        for slot in range(self.workers):
            self._spawn(slot)
        self._started = True
        return self

    def _spawn(self, slot):
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        self._current[slot] = -1
        self._chunk_current[slot] = -1
        self._progress[slot] = 0
        stderr_path = (os.path.join(self._stderr_dir,
                                    "worker-%d.stderr" % worker_id)
                       if self._stderr_dir else None)
        process = self._context.Process(
            target=_worker_main,
            args=(slot, worker_id, self.spec, self._task_queue,
                  self._result_queue, self._current, self._chunk_current,
                  self._progress, self.heartbeat, stderr_path),
            daemon=True)
        process.start()
        self._handles[slot] = _WorkerHandle(slot, worker_id, process,
                                            stderr_path)

    def _replenish(self):
        """Refill slots whose worker died while the pool was idle (or
        was reaped at the very end of the previous batch)."""
        for slot in range(self.workers):
            handle = self._handles.get(slot)
            if handle is None or not handle.process.is_alive():
                if handle is not None:
                    handle.process.join(0)
                if slot not in self._supervisor.pending_slots():
                    self._spawn(slot)

    def _stop_process(self, process):
        """Escalating kill: ``terminate → join(grace) → kill``.

        A worker that masks SIGTERM (or is wedged in a signal-immune
        state) gets SIGKILL after ``KILL_GRACE`` — the reaper must
        never block on a process's cooperation.
        """
        process.terminate()
        process.join(KILL_GRACE)
        if process.is_alive():
            process.kill()
            process.join(DRAIN_TIMEOUT)

    def close(self):
        """Retire the workers and release the queues (idempotent).

        Results that were already computed but never collected (a
        batch abandoned mid-drain) are counted in
        ``stats["abandoned"]`` rather than silently discarded.
        """
        if not self._started or self._closed:
            self._closed = True
            return
        self._closed = True
        live = [h for h in self._handles.values() if h.process.is_alive()]
        for _ in live:
            self._task_queue.put(None)
        deadline = time.monotonic() + DRAIN_TIMEOUT
        pending = {h.worker_id for h in live}
        while pending and time.monotonic() < deadline:
            try:
                message = self._result_queue.get(timeout=POLL_INTERVAL)
            except queue_module.Empty:
                pending = {wid for wid in pending
                           if any(h.worker_id == wid and h.process.is_alive()
                                  for h in self._handles.values())}
                continue
            if message[0] == "bye":
                pending.discard(message[2])
            elif message[0] in ("result", "error"):
                self.stats["abandoned"] += 1
        for handle in self._handles.values():
            handle.process.join(max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                self._stop_process(handle.process)
        for q in (self._task_queue, self._result_queue):
            try:
                while True:
                    message = q.get_nowait()
                    if q is self._result_queue \
                            and message and message[0] in ("result", "error"):
                        self.stats["abandoned"] += 1
            except (queue_module.Empty, OSError):
                pass
            q.close()
            q.cancel_join_thread()
        self._handles = {}
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
            trace_timeout=None, tape=None, on_outcome=None, drain=None,
            texts=None):
        """Replay every ``(label, trace)`` task; returns
        ``(outcomes, dropped_events)`` with outcomes in input order.

        An outcome with no report, no ``error_class`` and no
        ``cancelled`` flag was *handed back*: the circuit breaker
        tripped before the trace finished, and the caller must run it
        (``BatchRunner``'s serial loop does). It keeps its ``attempts``.

        Each outcome's report is decoded against the task's own trace
        object as its result arrives. ``texts`` supplies each trace's
        serialized text when the caller already holds it (the journaled
        batch runner digests the same strings); otherwise the pool
        serializes each trace once.

        May be called repeatedly on a live pool — workers, their
        imported modules, and their browser factories stay warm between
        calls. Each batch carries its own policies: ``engine_config``
        (:class:`~repro.session.engine.SessionEngine` keyword arguments,
        shipped with each chunk; None means the engine's defaults),
        ``trace_timeout`` (seconds: an over-deadline trace gets its
        worker killed and is re-queued once), and ``tape`` (a
        :class:`~repro.net.transport.TapeConfig`) puts every trace in
        this batch on a tape mode. ``tracing`` is False (off),
        True (every category), or a category spec for each worker's
        tracer. ``on_outcome`` is called once per task the moment its
        outcome is final (the crash-safe journaling hook). ``drain`` is
        a zero-argument flag: the first True recalls every queued chunk
        (cancelled outcomes), finishes what is in flight, and returns.
        """
        batch = _BatchState(self._next_batch_id, list(tasks), texts,
                            tracing, engine_config, trace_timeout, tape,
                            on_outcome)
        self._next_batch_id += 1
        if not batch.tasks:
            return batch.outcomes, 0
        pickle.dumps((engine_config, tape))  # fail fast in the parent
        self.start()
        # Each batch starts with a closed breaker: a trip in an earlier
        # batch must not condemn workers that are healthy now.
        self._supervisor.rearm()
        self._replenish()
        self.stats["batches"] += 1
        for indexes in plan_chunks(len(batch.tasks), self.workers):
            self._dispatch(batch, indexes)
        draining = False
        while not batch.complete:
            if drain is not None and not draining and drain():
                draining = True
                # Queued-but-unstarted traces become ``cancelled``
                # outcomes; in-flight ones finish (drain means *finish*
                # in-flight work). The small steal race — a worker
                # grabbing a chunk while we drain — is benign: its
                # results arrive normally and un-cancel the trace.
                for index in self._recall(batch):
                    batch.outcomes[index].cancelled = True
                continue  # re-check completion before sleeping
            self._spawn_due()
            self._wait_for_activity(batch, drain)
            self._pump(batch)
            self._reap(batch)
            if self._supervisor.tripped:
                # Workers died repeatedly with no completed trace in
                # between: respawning further would burn processes for
                # nothing. Stop them and hand the rest back (see above).
                self._pump(batch)  # collect stragglers first
                warnings.warn(
                    "worker pool degraded to in-process execution after "
                    "%d consecutive worker deaths"
                    % self._supervisor.consecutive_deaths, RuntimeWarning)
                self.stats["degraded"] += 1
                for handle in self._handles.values():
                    if handle.process.is_alive():
                        self._stop_process(handle.process)
                self._handles = {}
                # Purge queued chunks so a future batch never sees
                # stale work; what they held is handed back.
                self._recall(batch)
                break
        return batch.outcomes, batch.dropped

    def _dispatch(self, batch, indexes):
        """Enqueue one chunk of task indexes."""
        chunk_id = self._next_chunk_id
        self._next_chunk_id += 1
        batch.chunks[chunk_id] = list(indexes)
        items = [(index, batch.tasks[index][0], batch.texts[index])
                 for index in indexes]
        self._task_queue.put((batch.batch_id, chunk_id, batch.tracing,
                              batch.engine_config, batch.tape, items))

    def _recall(self, batch):
        """Take back every chunk still sitting in the task queue.

        Returns the indexes of this batch's recalled traces that are not
        done; stale chunks from a past batch are dropped. A chunk a
        worker already pulled keeps running.
        """
        recalled = []
        while True:
            try:
                task = self._task_queue.get(timeout=0.05)
            except (queue_module.Empty, OSError):
                return recalled
            batch_id, _, _, _, _, items = task
            if batch_id == batch.batch_id:
                recalled.extend(index for index, _, _ in items
                                if not batch.done[index])

    # -- event handling -----------------------------------------------------

    def _spawn_due(self):
        """Spawn slots whose respawn backoff has elapsed."""
        for slot in self._supervisor.due_slots():
            if slot not in self._handles:
                self.stats["respawns"] += 1
                self._spawn(slot)

    def _wait_for_activity(self, batch, drain=None):
        """Sleep until a result arrives or a worker dies.

        Blocks indefinitely when it safely can: the result pipe wakes
        us for every message and each worker's sentinel wakes us the
        instant that process exits, so no polling cadence is needed.
        Live deadlines force one: a per-trace timeout or heartbeat
        watch (silent overruns post to neither channel), a pending
        respawn backoff, or an armed drain flag (a signal handler sets
        a flag; it does not write to the pipe).
        """
        candidates = []
        if batch.trace_timeout is not None or self.hang_timeout is not None \
                or drain is not None:
            candidates.append(POLL_INTERVAL)
        due = self._supervisor.next_due_in()
        if due is not None:
            candidates.append(max(0.005, min(due, POLL_INTERVAL)))
        timeout = min(candidates) if candidates else None
        # Every handle's sentinel, dead or alive: a worker that died
        # after _reap's liveness check but before this wait would
        # otherwise be silently excluded — and with no deadline armed
        # the parent would block forever on a pipe nobody writes to. A
        # dead sentinel is permanently ready, so the wait returns at
        # once and the next _reap buries the body.
        sentinels = [h.process.sentinel for h in self._handles.values()]
        _connection_wait([self._result_queue._reader] + sentinels, timeout)
        self.stats["wakeups"] += 1

    def _note_beat(self, worker_id):
        for handle in self._handles.values():
            if handle.worker_id == worker_id:
                handle.last_beat = time.monotonic()
                return

    def _pump(self, batch):
        """Drain every queued result message without blocking."""
        while True:
            try:
                message = self._result_queue.get_nowait()
            except queue_module.Empty:
                return
            kind, batch_id = message[0], message[1]
            if kind == "heartbeat":
                self._note_beat(message[2])
                continue
            if kind == "bye":
                continue  # close() raced a worker retirement
            if batch_id != batch.batch_id:
                continue  # stale: a re-queued duplicate from a past batch
            worker_id, index = message[2], message[3]
            self._note_beat(worker_id)
            if batch.done[index]:
                continue  # the re-queued attempt already won
            outcome = batch.outcomes[index]
            outcome.worker_id = worker_id
            if kind == "result":
                outcome.blob = message[4]
                outcome.report = wire.decode_report(
                    outcome.blob, batch.tasks[index][1])
                outcome.events = message[5]
                outcome.metadata = message[6]
                batch.dropped += message[7]
            else:
                outcome.error = message[4]
                outcome.error_class = message[5] or "WorkerError"
            self._supervisor.record_completion()
            # A drain may have recalled this trace while its chunk was
            # being stolen; the real result wins over the cancellation.
            batch.finish(outcome)
            outcome.blob = None

    def _reap(self, batch):
        """Contain dead, hung, and over-deadline workers; keep pool full."""
        now = time.monotonic()
        trace_timeout = batch.trace_timeout
        for slot, handle in list(self._handles.items()):
            chunk = self._chunk_current[slot]
            if chunk >= 0:
                handle.chunks_seen.add(chunk)
            inflight = self._current[slot]
            if inflight != handle.inflight_index:
                handle.inflight_index = inflight
                handle.inflight_since = now if inflight >= 0 else None
            alive = handle.process.is_alive()
            if alive and handle.inflight_since is not None \
                    and trace_timeout is not None \
                    and now - handle.inflight_since > trace_timeout:
                # Kill the stuck worker; its trace gets one more chance.
                casualty = ("TimeoutError",
                            "trace exceeded the %.3gs per-trace timeout"
                            % trace_timeout)
            elif alive and self.hang_timeout is not None \
                    and now - handle.last_beat > self.hang_timeout:
                # Distinct from the per-trace deadline: the *process*
                # went silent (SIGSTOP, wedged syscall) — the trace may
                # not even have started.
                self.stats["hangs"] += 1
                casualty = ("WorkerHangError", "worker heartbeat lost for "
                            "%.3gs" % self.hang_timeout)
            elif not alive:
                casualty = ("WorkerCrashError",
                            "worker process died (exit code %s)"
                            % handle.process.exitcode)
            else:
                continue
            if alive:
                self._stop_process(handle.process)
            self._handle_casualty(handle, batch, *casualty)
            del self._handles[slot]
            if not batch.complete:
                self._supervisor.record_death(slot, now)

    def _handle_casualty(self, handle, batch, error_class, reason):
        # The worker is dead by now, so its shared-memory slots are the
        # authoritative record of what it had in flight (a result put
        # just before death may still land; _pump wins that race because
        # completed outcomes are never overwritten here).
        index = self._current[handle.slot]
        chunk_id = self._chunk_current[handle.slot]
        # Chunk-mates the dead worker never started (or whose results
        # died in its outbox) go back on the queue as singles — they
        # were not running, so they are not charged an attempt. The
        # sweep covers every chunk the worker was seen holding, not
        # just the last: a result enqueued right before death may be
        # stuck in the dead process's outbox even though the worker
        # had already moved on to the next chunk. (A late duplicate is
        # benign: completed outcomes are never overwritten.)
        handle.chunks_seen.add(chunk_id)
        survivors = {mate
                     for seen in handle.chunks_seen
                     for mate in batch.chunks.get(seen, ())
                     if mate != index and not batch.done[mate]
                     and not batch.outcomes[mate].cancelled}
        for mate in sorted(survivors):
            self._dispatch(batch, [mate])
        if index < 0 or batch.done[index]:
            return
        outcome = batch.outcomes[index]
        outcome.worker_id = handle.worker_id
        if index not in batch.failed_on:
            batch.failed_on[index] = (handle.worker_id, error_class, reason)
            outcome.attempts += 1
            self._dispatch(batch, [index])
            return
        first = batch.failed_on[index]
        if first[0] != handle.worker_id \
                and error_class in QUARANTINE_CLASSES \
                and first[1] in QUARANTINE_CLASSES:
            # Two containment failures on two different workers: this
            # trace is poison. Quarantine it with a diagnosis bundle
            # instead of charging the pool for it ever again.
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
            "stderr_tail": (tail_text(handle.stderr_path)
                            if handle.stderr_path else ""),
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

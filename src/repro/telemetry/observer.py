"""Tracing the session pipeline: a SessionObserver emitting spans.

The engine narrates every replay on its structured event stream
(:mod:`repro.session.events`); :class:`TracingObserver` turns that
narration into spans on the control process's *session pipeline* track:

- a ``session`` span covering the whole run (category ``session``),
- one complete (``X``) ``command`` event per command, emitted once from
  the ``command-finished`` event, which carries the command's start —
  so the per-command narrative costs a single hook and a single record
  — containing
- a ``locate`` span (command-started → located/relaxed; when location
  fails into the coordinate fallback or the command is a frame switch,
  the locate span absorbs the act) and an ``act`` span (located →
  acted) — plus the engine's ``session.schedule`` span — all under the
  finer ``session.phase`` category, so a production category set keeps
  the per-command narrative without the inner-phase events,

plus instants for navigation, failures, and halts (category
``session``), per-error ``page.error`` instants (category
``session.error``; production replaces them with one ``page.errors``
count — see :attr:`TracingObserver.ERROR_CAT`), and per-cache counter
samples from the session's perf delta (category ``perf``). The
observer is attached to every run by
:class:`~repro.session.engine.SessionRun`. It reports the kinds it
handles per installed tracer (:meth:`TracingObserver.handled_kinds`),
none while tracing is off, and the run's event stream keys its handler
lists on that tracer, so with tracing off no event reaches it at all.

This is a hot per-event path with tracing on, so the dispatch table is
*compiled per installed tracer*: kinds whose whole category is
filtered out (locate/act phases and the command-started event that
opens them, perf deltas) are dropped from the table, so the engine
does not even build those events; a command's args
are stashed as one deferred encoder tuple (see
:func:`_command_args`) and a page error as its bound ``__str__``, so
those dicts and strings are only built if the trace is actually
exported.
"""

from functools import partial
from time import perf_counter as _perf_counter

from repro.session.events import SessionEvent, SessionObserver
from repro.telemetry.tracks import COUNTERS_TRACK, SESSION_TRACK


def _command_args(finished):
    """Export-time encoder for one command event's args.

    The observer stashes ``(_command_args, finished_event)`` — the
    event it was already handed — per command; the actual dict
    (command-line rendering, due time, status) is only built if the
    event reaches an export.
    """
    command = finished.command
    return {"line": command.to_line(), "action": command.action,
            "due_vt_ms": finished.data.get("due"),
            "status": finished.result.status}


#: Command records buffered before a batch pack (see :func:`_drain`).
_BATCH = 32


def _drain(fast, pending):
    """Pack the pending command records into the ring back to back.

    A lone ring write from inside the replay loop runs against cold
    tracer state — the command's own DOM and engine work has evicted
    the buffer, the struct packer, and the record page from cache by
    the time the next command finishes — and measures at several times
    its instruction count. Batching loads that state once per
    ``_BATCH`` commands; the per-command hot path is two tuples and a
    ``list.append``. ``fast`` is the observer's compiled
    :meth:`~repro.telemetry.packed.PackedRingBuffer.append_completes`.
    """
    fast(pending)
    del pending[:]


class TracingObserver(SessionObserver):
    """Emits session-pipeline spans for one run's event stream."""

    CAT = "session"
    #: The inner locate/act phase spans; disabled by the production
    #: category set while the command events stay on.
    PHASE_CAT = "session.phase"
    #: Per-error ``page.error`` instants. The engine flushes page
    #: errors in one burst when the session settles, so these carry no
    #: timing information and every error is already recorded verbatim
    #: in the replay report — the production category set drops them
    #: and gets a single ``page.errors`` count instant instead.
    ERROR_CAT = "session.error"

    def __init__(self):
        #: Names of currently open B spans, innermost last.
        self._open = []
        #: The tracer the compiled dispatch table below was built for;
        #: rebuilt whenever a different tracer is installed.
        self._for = None
        self._errors = True
        #: Compiled for ``_for``; empty until a tracer is bound.
        self._table = {}
        #: Compiled per-command fast path (see ``_rebind``), or None.
        self._fast = None
        #: Finished commands awaiting their batched ring pack.
        self._pending = []

    def handled_kinds(self, tracer):
        """The kinds this observer handles under ``tracer``.

        Those of its dispatch table compiled for that tracer, and none
        while tracing is off: the event stream keys its handler lists
        on the installed tracer and asks here, so events of any other
        kind never reach :meth:`on_event` (and, when nothing else
        handles them, are never built).
        """
        if tracer is None:
            return ()
        if tracer is not self._for:
            self._rebind(tracer)
        return self._table

    def on_event(self, event):
        handler = self._table.get(event.kind)
        if handler is not None:
            handler(self, event, self._for)

    def _rebind(self, tracer):
        """Compile the dispatch table for this tracer's category set.

        Kinds that could only ever emit into a filtered-out category
        are removed outright, so the engine does not build their
        (frequent) events at all. When the ``session`` category records
        unsampled, the command record additionally bypasses the
        tracer's generic emit methods and is batched for :func:`_drain`
        (``self._fast``); a sampled ``session`` category falls back to
        the generic path, which keeps identical semantics at a couple
        hundred ns more per command.
        """
        if self._pending and self._fast is not None:
            # Records batched for a previously installed tracer flush
            # into that tracer's buffer before this one takes over.
            _drain(self._fast, self._pending)
        self._for = tracer
        self._errors = tracer.wants(self.ERROR_CAT)
        table = dict(self._TABLE)
        if not tracer.wants(self.PHASE_CAT):
            del table[SessionEvent.COMMAND_STARTED]
            del table[SessionEvent.LOCATED]
            del table[SessionEvent.RELAXED]
            del table[SessionEvent.ACTED]
        if not tracer.wants("perf"):
            del table[SessionEvent.PERF_DELTA]
        if not self._errors:
            del table[SessionEvent.PAGE_ERROR]
        self._table = table
        self._fast = None
        state = tracer._cat_state.get(self.CAT)
        if state is None:
            state = tracer._resolve_cat(self.CAT)
        if state is not False and state[0] is None:
            self._fast = partial(tracer.buffer.append_completes, "command",
                                 state[1], *SESSION_TRACK, tracer._origin)

    # -- span plumbing ------------------------------------------------------

    def _begin(self, tracer, name, args=None, cat=CAT):
        tracer.begin(name, track=SESSION_TRACK, cat=cat, args=args)
        self._open.append(name)

    def _end(self, tracer, args=None):
        name = self._open.pop()
        cat = self.PHASE_CAT if name in ("locate", "act") else self.CAT
        tracer.end(name, track=SESSION_TRACK, cat=cat, args=args)

    def _close_phases(self, tracer, args=None):
        """Close any open locate/act span (back down to the command)."""
        while self._open and self._open[-1] in ("locate", "act"):
            self._end(tracer, args=args)
            args = None

    # -- event hooks --------------------------------------------------------

    def _on_session_started(self, event, tracer):
        trace = event.data["trace"]
        self._open = []
        if self._pending:
            # Leftovers from an aborted run drain before this run's
            # events so batch slicing (mark/events_since) stays honest.
            _drain(self._fast, self._pending)
        self._begin(tracer, "session", args={
            "label": trace.label or "",
            "start_url": trace.start_url,
            "commands": len(trace),
        })

    def _on_navigated(self, event, tracer):
        tracer.instant("navigated", track=SESSION_TRACK, cat=self.CAT,
                       args={"url": event.data["url"]})

    def _on_command_started(self, event, tracer):
        self._begin(tracer, "locate", cat=self.PHASE_CAT)

    def _on_located(self, event, tracer):
        self._phase_to_act(event, tracer)

    def _on_relaxed(self, event, tracer):
        self._phase_to_act(event, tracer)

    def _phase_to_act(self, event, tracer):
        if self._open and self._open[-1] == "locate":
            self._end(tracer, args={"detail": event.detail or "exact"})
        self._begin(tracer, "act", cat=self.PHASE_CAT)

    def _on_acted(self, event, tracer):
        self._close_phases(tracer,
                           args={"detail": event.detail} if event.detail
                           else None)

    def _on_failed(self, event, tracer):
        self._close_phases(tracer)
        tracer.instant("command.failed", track=SESSION_TRACK, cat=self.CAT,
                       args={"error": str(event.error)})

    def _on_command_finished(self, event, tracer):
        # Everything args-shaped is deferred: the event object itself
        # is stashed and only encoded (command line rendered, due time
        # and status read) if the command event reaches an export. The
        # timestamps too: raw perf_counter readings (the engine's, from
        # before the command started, and this one), converted to trace
        # time at the batched pack or on the generic path's emit.
        open_ = self._open
        if open_ and open_[-1] in ("locate", "act"):
            self._close_phases(tracer)
        start = event.data["started_at"]
        args = (_command_args, event)
        fast = self._fast
        if fast is None:
            tracer.complete("command", tracer.to_us(start),
                            track=SESSION_TRACK, cat=self.CAT, args=args)
            return
        clock = tracer.clock
        pending = self._pending
        pending.append((start, _perf_counter(),
                        clock.now() if clock is not None else None, args))
        if len(pending) >= _BATCH:
            _drain(fast, pending)

    def _on_halted(self, event, tracer):
        if self._pending:
            _drain(self._fast, self._pending)
        tracer.instant("session.halted", track=SESSION_TRACK,
                       cat=self.CAT, args={"reason": event.detail})

    def _on_page_error(self, event, tracer):
        # Deferred like to_line: formatting the error message is paid
        # at export, not in the replay loop (a chatty page can emit
        # hundreds of these).
        tracer.instant("page.error", track=SESSION_TRACK, cat=self.ERROR_CAT,
                       args={"error": event.data["error"].__str__})

    def _on_perf_delta(self, event, tracer):
        for name, counts in sorted(event.data["counters"].items()):
            tracer.counter("session.cache.%s" % name,
                           {"hits": counts["hits"],
                            "misses": counts["misses"]},
                           track=COUNTERS_TRACK, cat="perf")

    def _on_session_finished(self, event, tracer):
        if self._pending:
            _drain(self._fast, self._pending)
        if not self._errors:
            # Per-error instants are filtered out: surface the count so
            # a production trace still flags that the page misbehaved
            # (the report carries the error details).
            errors = len(event.data["report"].page_errors)
            if errors:
                tracer.instant("page.errors", track=SESSION_TRACK,
                               cat=self.CAT, args={"count": errors})
        while self._open:
            self._end(tracer)

    #: event.kind -> handler; the full table. ``_rebind`` compiles the
    #: per-tracer working copy actually consulted on the hot path.
    _TABLE = {
        SessionEvent.SESSION_STARTED: _on_session_started,
        SessionEvent.NAVIGATED: _on_navigated,
        SessionEvent.COMMAND_STARTED: _on_command_started,
        SessionEvent.LOCATED: _on_located,
        SessionEvent.RELAXED: _on_relaxed,
        SessionEvent.ACTED: _on_acted,
        SessionEvent.FAILED: _on_failed,
        SessionEvent.COMMAND_FINISHED: _on_command_finished,
        SessionEvent.HALTED: _on_halted,
        SessionEvent.PAGE_ERROR: _on_page_error,
        SessionEvent.PERF_DELTA: _on_perf_delta,
        SessionEvent.SESSION_FINISHED: _on_session_finished,
    }

"""Tracing the session pipeline: spans narrated by the session run.

:class:`~repro.session.engine.SessionRun` calls a
:class:`TracingNarrator` through plain methods at each step of a
replay, and :meth:`~repro.session.engine.SessionEngine.execute` calls
its phase methods inside a command. A run holds one narrator per
installed tracer and none while tracing is off, so an untraced replay
pays one ``is None`` test per hook point. This module is the one that
knows the span layout, on the control process's *session pipeline*
track:

- a ``session`` span covering the whole run (category ``session``),
- one complete (``X``) ``command`` event per command, written once when
  the command finishes with the start the run read before it, so the
  per-command narrative costs a single call and a single record —
  containing
- a ``locate`` span (command start → located/relaxed; when location
  fails into the coordinate fallback or the command is a frame switch,
  the locate span absorbs the act) and an ``act`` span (located →
  acted) — plus the engine's ``session.schedule`` span — all under the
  finer ``session.phase`` category, so a production category set keeps
  the per-command narrative without the inner-phase events,

plus instants for navigation, failures, and halts (category
``session``), per-error ``page.error`` instants (category
``session.error``; production replaces them with one ``page.errors``
count — see :attr:`TracingNarrator.ERROR_CAT`), and per-cache counter
samples from the session's perf delta (category ``perf``).

The run makes phase calls only while the tracer records
``session.phase`` (:attr:`TracingNarrator.phases`), so under the
production set a command costs the one record below. A command's args
are stashed as one deferred encoder tuple (see :func:`_command_args`)
and a page error as its bound ``__str__``, so those dicts and strings
are only built if the trace is actually exported.
"""

from functools import partial
from time import perf_counter as _perf_counter

from repro.telemetry.tracks import COUNTERS_TRACK, SESSION_TRACK


def _command_args(command, due, result):
    """Export-time encoder for one command event's args.

    The narrator stashes ``(_command_args, command, due, result)`` per
    command; the actual dict (command-line rendering, due time,
    status) is only built if the event reaches an export.
    """
    return {"line": command.to_line(), "action": command.action,
            "due_vt_ms": due, "status": result.status}


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
    ``list.append``. ``fast`` is the narrator's compiled
    :meth:`~repro.telemetry.packed.PackedRingBuffer.append_completes`.
    """
    fast(pending)
    del pending[:]


class TracingNarrator:
    """Writes one run's session-pipeline spans into one tracer."""

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

    def __init__(self, tracer):
        self.tracer = tracer
        #: Whether the tracer records the phase spans; the run makes
        #: no phase call (and traces no schedule span) otherwise.
        self.phases = tracer.wants(self.PHASE_CAT)
        self._errors = tracer.wants(self.ERROR_CAT)
        self._perf = tracer.wants("perf")
        #: Names of currently open B spans, innermost last.
        self._open = []
        #: Finished commands awaiting their batched ring pack.
        self._pending = []
        #: When the ``session`` category records unsampled, command
        #: records bypass the tracer's generic emit methods and are
        #: batched for :func:`_drain`; a sampled ``session`` category
        #: takes the generic path, which keeps identical semantics at a
        #: couple hundred ns more per command.
        self._fast = None
        state = tracer._cat_state.get(self.CAT)
        if state is None:
            state = tracer._resolve_cat(self.CAT)
        if state is not False and state[0] is None:
            self._fast = partial(tracer.buffer.append_completes, "command",
                                 state[1], *SESSION_TRACK, tracer._origin)

    def flush(self):
        """Pack the batched command records into the tracer's buffer."""
        if self._pending:
            _drain(self._fast, self._pending)

    # -- span plumbing ------------------------------------------------------

    def _begin(self, name, args=None, cat=CAT):
        self.tracer.begin(name, track=SESSION_TRACK, cat=cat, args=args)
        self._open.append(name)

    def _end(self, args=None):
        name = self._open.pop()
        cat = self.PHASE_CAT if name in ("locate", "act") else self.CAT
        self.tracer.end(name, track=SESSION_TRACK, cat=cat, args=args)

    def _close_phases(self, args=None):
        """Close any open locate/act span (back down to the command)."""
        while self._open and self._open[-1] in ("locate", "act"):
            self._end(args=args)
            args = None

    # -- the session ----------------------------------------------------------

    def session_started(self, trace):
        self._begin("session", args={
            "label": trace.label or "",
            "start_url": trace.start_url,
            "commands": len(trace),
        })

    def navigated(self, url):
        self.tracer.instant("navigated", track=SESSION_TRACK, cat=self.CAT,
                            args={"url": url})

    def halted(self, reason):
        self.flush()
        self.tracer.instant("session.halted", track=SESSION_TRACK,
                            cat=self.CAT, args={"reason": reason})

    def session_finished(self, report):
        """Page errors, perf counters, then close the run's spans."""
        tracer = self.tracer
        if self._errors:
            # Deferred like to_line: formatting the error message is
            # paid at export, not in the replay loop (a chatty page can
            # raise hundreds of these).
            for error in report.page_errors:
                tracer.instant("page.error", track=SESSION_TRACK,
                               cat=self.ERROR_CAT,
                               args={"error": error.__str__})
        if self._perf:
            for name, counts in sorted(report.perf_counters.items()):
                tracer.counter("session.cache.%s" % name,
                               {"hits": counts["hits"],
                                "misses": counts["misses"]},
                               track=COUNTERS_TRACK, cat="perf")
        self.flush()
        if not self._errors and report.page_errors:
            # Per-error instants are filtered out: surface the count so
            # a production trace still flags that the page misbehaved
            # (the report carries the error details).
            tracer.instant("page.errors", track=SESSION_TRACK,
                           cat=self.CAT,
                           args={"count": len(report.page_errors)})
        while self._open:
            self._end()

    # -- one command ----------------------------------------------------------

    def locating(self):
        """Phase: the command starts locating its target."""
        self._begin("locate", cat=self.PHASE_CAT)

    def located(self, detail):
        """Phase: the target was found (exactly or relaxed)."""
        if self._open and self._open[-1] == "locate":
            self._end(args={"detail": detail or "exact"})
        self._begin("act", cat=self.PHASE_CAT)

    def acted(self, detail=""):
        """Phase: the action was performed."""
        self._close_phases(args={"detail": detail} if detail else None)

    def failed(self, error):
        self._close_phases()
        self.tracer.instant("command.failed", track=SESSION_TRACK,
                            cat=self.CAT, args={"error": str(error)})

    def command_finished(self, command, due, result, started_at):
        """The command's one record; ``started_at`` is a perf_counter
        reading from before it started.

        Everything args-shaped is deferred: the command, due time and
        result are stashed and only encoded if the command event
        reaches an export. The timestamps too: raw perf_counter
        readings, converted to trace time at the batched pack or on the
        generic path's emit.
        """
        if self.phases:
            self._close_phases()
        args = (_command_args, command, due, result)
        tracer = self.tracer
        fast = self._fast
        if fast is None:
            tracer.complete("command", tracer.to_us(started_at),
                            track=SESSION_TRACK, cat=self.CAT, args=args)
            return
        clock = tracer.clock
        pending = self._pending
        pending.append((started_at, _perf_counter(),
                        clock.now() if clock is not None else None, args))
        if len(pending) >= _BATCH:
            _drain(fast, pending)

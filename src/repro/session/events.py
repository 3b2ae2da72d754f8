"""The session event stream.

The :class:`~repro.session.engine.SessionEngine` narrates every replay
as a stream of structured :class:`SessionEvent` objects — command
started, element located (or relaxed), action performed, failure,
page error, perf delta — and observers subscribe to the stream instead
of scraping engine state after the fact. The perf counters, tracing,
WebErr's oracle, and AUsER's snapshotter are all observers of this
stream. The replay report is not: the session run writes it, so a
replay that nothing observes builds no event per command.
"""


class SessionEvent:
    """One structured observation emitted by the engine pipeline."""

    SESSION_STARTED = "session-started"
    NAVIGATED = "navigated"
    COMMAND_STARTED = "command-started"
    LOCATED = "located"
    RELAXED = "relaxed"
    ACTED = "acted"
    COMMAND_FINISHED = "command-finished"
    FAILED = "failed"
    RETRYING = "retrying"
    RECOVERING = "recovering"
    RECOVERED = "recovered"
    HALTED = "halted"
    PAGE_ERROR = "page-error"
    PERF_DELTA = "perf-delta"
    SESSION_FINISHED = "session-finished"

    def __init__(self, kind, command=None, result=None, detail="",
                 error=None, data=None):
        self.kind = kind
        self.command = command
        self.result = result
        self.detail = detail
        self.error = error
        #: Kind-specific payload (trace, browser, driver, counters, ...).
        self.data = data if data is not None else {}

    def __repr__(self):
        target = ""
        if self.command is not None:
            target = ", %r" % self.command.to_line()
        return "SessionEvent(%s%s)" % (self.kind, target)


def _hook_name(kind):
    """The ``on_*`` hook name for an event kind."""
    return "on_" + kind.replace("-", "_")


#: Hook names of the engine's kinds, built once instead of per event.
_HOOK_NAMES = {
    kind: _hook_name(kind)
    for name, kind in vars(SessionEvent).items()
    if name.isupper() and isinstance(kind, str)
}


class SessionObserver:
    """Base observer: dispatches events to per-kind ``on_*`` hooks.

    Subclasses override any of the hooks below (or :meth:`on_event`
    for a catch-all). Unhandled kinds are ignored, so observers stay
    forward-compatible when the engine grows new event kinds.
    """

    def on_event(self, event):
        kind = event.kind
        handler = getattr(self, _HOOK_NAMES.get(kind) or _hook_name(kind), None)
        if handler is not None:
            handler(event)

    # Per-kind hooks (no-ops by default).
    def on_session_started(self, event):
        pass

    def on_navigated(self, event):
        pass

    def on_command_started(self, event):
        pass

    def on_located(self, event):
        pass

    def on_relaxed(self, event):
        pass

    def on_acted(self, event):
        pass

    def on_command_finished(self, event):
        pass

    def on_failed(self, event):
        pass

    def on_retrying(self, event):
        pass

    def on_recovering(self, event):
        pass

    def on_recovered(self, event):
        pass

    def on_halted(self, event):
        pass

    def on_page_error(self, event):
        pass

    def on_perf_delta(self, event):
        pass

    def on_session_finished(self, event):
        pass


_NO_HOOK = object()


def _handler_for(observer, kind, tracer=None):
    """The callable ``observer`` needs for ``kind`` events, or None.

    An observer with a ``handled_kinds(tracer)`` method (the telemetry
    :class:`~repro.telemetry.observer.TracingObserver`) names the kinds
    it handles under the installed ``tracer`` and gets those through
    its ``on_event``. A :class:`SessionObserver` that keeps the base
    ``on_event`` is reached through its per-kind hook directly, and
    skipped where that hook is still the inherited no-op. Observers
    overriding ``on_event``, and duck-typed ones, get every event
    through it.
    """
    handled_kinds = getattr(observer, "handled_kinds", None)
    if handled_kinds is not None:
        return observer.on_event if kind in handled_kinds(tracer) else None
    if not isinstance(observer, SessionObserver) \
            or type(observer).on_event is not SessionObserver.on_event:
        return observer.on_event
    name = _hook_name(kind)
    hook = getattr(observer, name, None)
    if hook is None or (getattr(hook, "__func__", None)
                        is SessionObserver.__dict__.get(name, _NO_HOOK)):
        return None
    return hook


class _HandlerTable(dict):
    """kind -> handlers, each list built on the first lookup of its kind.

    Holds the stream's observer list itself (``subscribe`` appends to
    it) and the tracer the lists were built for.
    """

    __slots__ = ("observers", "tracer")

    def __init__(self, observers):
        super().__init__()
        self.observers = observers
        self.tracer = None

    def __missing__(self, kind):
        tracer = self.tracer
        handlers = []
        for observer in self.observers:
            handler = _handler_for(observer, kind, tracer)
            if handler is not None:
                handlers.append(handler)
        self[kind] = handlers
        return handlers


class EventStream:
    """Broadcasts events to subscribed observers, in subscription order.

    ``handlers[kind]`` is the list of callables an event of that kind
    reaches, built on first use of each kind; ``emit`` runs it, so an
    event costs one call per observer that actually handles its kind.
    Emitters on the hot path read the list first and build the event
    only when it is non-empty: an event nothing handles is never
    constructed. The table is dropped on :meth:`subscribe` and whenever
    :meth:`retune` sees a different tracer, since the tracing observer
    handles a tracer-dependent set of kinds (none without a tracer).
    """

    def __init__(self, observers=None):
        self.observers = list(observers or [])
        self.handlers = _HandlerTable(self.observers)

    def subscribe(self, observer):
        self.observers.append(observer)
        self.handlers.clear()
        return observer

    def retune(self, tracer):
        """Key the handler lists on ``tracer`` (the installed one)."""
        handlers = self.handlers
        if tracer is not handlers.tracer:
            handlers.tracer = tracer
            handlers.clear()

    def emit(self, event):
        for handler in self.handlers[event.kind]:
            handler(event)
        return event

    def __repr__(self):
        return "EventStream(%d observers)" % len(self.observers)

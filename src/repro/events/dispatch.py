"""DOM event dispatch: capture → target → bubble.

Handler exceptions do not abort dispatch (as in real browsers, where an
uncaught handler exception is reported to the console and the remaining
listeners still run). They are funneled to ``on_error``; the engine
passes its console collector, and tools like WebErr's oracle read the
console to detect page-script failures such as the Google Sites
``JSReferenceError``.

When tracing is enabled (:mod:`repro.telemetry`), each dispatch emits a
span on the dispatching renderer's track with per-phase child spans, so
slow handlers show up attributed to their propagation phase. Traced and
untraced dispatch share one body; with tracing off the spans cost a
None test between phases.

Untraced dispatch of a type no node of the target's document has ever
listened for (see ``Document._listened_types``) returns at once: no
handler could run, so walking the propagation path would observe
nothing. Detached targets without an owning document, traced dispatch
and a disabled fast path (:func:`repro.perf.fast_path`) take the full
walk. :func:`observed_types` is that condition. Callers that synthesize
a keystroke's events resolve it once per keystroke and do not even
build an event that could reach nobody: the event handler's recorded
keystrokes and the driver's replayed ones.
"""

from repro import perf, telemetry
from repro.events.event import CAPTURING_PHASE, AT_TARGET, BUBBLING_PHASE
from repro.util.errors import ScriptError


def _propagation_path(target):
    """Nodes from the root down to (excluding) the target."""
    path = []
    node = target.parent
    while node is not None:
        path.append(node)
        node = node.parent
    path.reverse()
    return path


def dispatch_event(target, event, on_error=None, track=None):
    """Dispatch ``event`` to ``target`` through the DOM tree.

    Returns ``True`` if the default action should proceed (i.e. the event
    was not ``prevent_default()``-ed), matching ``dispatchEvent``.
    ``track`` anchors trace spans (the engine passes itself).

    One body serves traced and untraced dispatch. The guard reads
    ``telemetry._dispatch_tracer`` — pre-resolved at tracer install time
    to None unless the tracer records the ``dispatch`` category — so
    untraced dispatch pays one attribute load for it and a None test
    between phases.

    The propagation path is computed once, when dispatch starts: a
    handler that detaches the target does not shorten it. Each node's
    listener list for the event's type and phase is read when
    propagation reaches that node, so a listener added to a later node
    runs in this dispatch, and is copied before its handlers run, so a
    handler added or removed by a handler of the same list takes effect
    from the next dispatch.
    """
    tracer = telemetry._dispatch_tracer
    event.target = target
    if tracer is None:
        observed = observed_types(target)
        if observed is not None and event.type not in observed:
            return not event.default_prevented
    else:
        start = tracer.now_us()
    ancestors = _propagation_path(target)
    capture_key = (event.type, True)
    bubble_key = (event.type, False)
    if tracer is not None:
        phase_start = tracer.now_us()

    # Capture: root → parent of the target, capture listeners only.
    # Nodes without any listeners cannot observe the event or stop its
    # propagation, so every phase skips them outright.
    event.event_phase = CAPTURING_PHASE
    for node in ancestors:
        if event.propagation_stopped:
            break
        listeners = node._listeners
        if listeners:
            handlers = listeners.get(capture_key)
            if handlers:
                _invoke(node, handlers, event, on_error)
    if tracer is not None:
        tracer.complete("dispatch.capture", phase_start, track=track,
                        cat="dispatch")
        phase_start = tracer.now_us()

    # Target: capture listeners first, then bubble listeners.
    listeners = target._listeners
    if listeners and not event.propagation_stopped:
        event.event_phase = AT_TARGET
        handlers = listeners.get(capture_key)
        if handlers:
            _invoke(target, handlers, event, on_error)
        if not event.propagation_stopped:
            handlers = listeners.get(bubble_key)
            if handlers:
                _invoke(target, handlers, event, on_error)
    if tracer is not None:
        tracer.complete("dispatch.target", phase_start, track=track,
                        cat="dispatch")
        phase_start = tracer.now_us()

    # Bubble: parent of the target → root, bubble listeners only.
    if event.bubbles and not event.propagation_stopped:
        event.event_phase = BUBBLING_PHASE
        for node in reversed(ancestors):
            if event.propagation_stopped:
                break
            listeners = node._listeners
            if listeners:
                handlers = listeners.get(bubble_key)
                if handlers:
                    _invoke(node, handlers, event, on_error)

    event.event_phase = None
    event.current_target = None
    proceed = not event.default_prevented
    if tracer is not None:
        tracer.complete("dispatch.bubble", phase_start, track=track,
                        cat="dispatch")
        tracer.complete("dispatch %s" % event.type, start, track=track,
                        cat="dispatch",
                        args={"type": event.type, "depth": len(ancestors),
                              "default_prevented": not proceed})
    return proceed


def observed_types(target):
    """The event types dispatching at ``target`` can run anything for.

    None when every type counts as observable: the target has no owning
    document, a tracer records dispatches, or the fast path is off.
    Otherwise the owning document's own ``_listened_types`` set, not a
    copy, so a caller synthesizing several events can resolve this once
    and test each type against the live set: a listener a handler adds
    in between is seen.
    """
    document = target.owner_document
    if (document is None or telemetry._dispatch_tracer is not None
            or not perf._enabled):
        return None
    return document._listened_types


def _invoke(node, handlers, event, on_error):
    """Run a non-empty listener list of ``node`` on ``event``, over a
    copy of it."""
    for handler in handlers[:]:
        event.current_target = node
        try:
            handler(event)
        except ScriptError as error:
            _report(error, on_error)
        except Exception as error:  # page-script bug surfaces as ScriptError
            _report(
                ScriptError("unhandled error in %r handler: %s" % (event.type, error),
                            cause=error),
                on_error,
            )


def _report(error, on_error):
    if on_error is None:
        raise error
    on_error(error)

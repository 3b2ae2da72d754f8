"""DOM event dispatch: capture → target → bubble.

Handler exceptions do not abort dispatch (as in real browsers, where an
uncaught handler exception is reported to the console and the remaining
listeners still run). They are funneled to ``on_error``; the engine
passes its console collector, and tools like WebErr's oracle read the
console to detect page-script failures such as the Google Sites
``JSReferenceError``.

When tracing is enabled (:mod:`repro.telemetry`), each dispatch emits a
span on the dispatching renderer's track with per-phase child spans, so
slow handlers show up attributed to their propagation phase. With
tracing off the only cost is one guard check per dispatch.

Untraced dispatch of a type no node of the target's document has ever
listened for (see ``Document._listened_types``) returns at once: no
handler could run, so walking the propagation path would observe
nothing. Detached targets without an owning document, traced dispatch
and a disabled fast path (:func:`repro.perf.fast_path`) take the full
walk. :func:`observed_types` is that condition, and :func:`observable`
asks it for one type. Callers that synthesize events ask first and do
not even build an event that could reach nobody: the event handler's
keystrokes per event, the driver's once per keystroke.
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

    The guard reads ``telemetry._dispatch_tracer`` — pre-resolved at
    tracer install time to None unless the tracer records the
    ``dispatch`` category — so this hottest guard site costs one
    attribute load whether tracing is off or filtered.
    """
    tracer = telemetry._dispatch_tracer
    if tracer is None:
        return _dispatch(target, event, on_error)
    return _dispatch_traced(tracer, target, event, on_error, track)


def observable(target, event_type):
    """Whether dispatching ``event_type`` at ``target`` can run anything.

    False only when the target's document is set and no node of it has
    ever listened for the type, no tracer records dispatches, and the
    fast path is on: then no handler runs, nothing is traced, and the
    dispatch would return "not prevented" untouched. Callers that skip
    building such an event treat it as not prevented.
    """
    observed = observed_types(target)
    return observed is None or event_type in observed


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


def _dispatch(target, event, on_error):
    event.target = target
    observed = observed_types(target)
    if observed is not None and event.type not in observed:
        return not event.default_prevented
    ancestors = _propagation_path(target)
    _capture_phase(ancestors, event, on_error)
    _target_phase(target, event, on_error)
    _bubble_phase(ancestors, event, on_error)
    event.event_phase = None
    event.current_target = None
    return not event.default_prevented


def _dispatch_traced(tracer, target, event, on_error, track):
    start = tracer.now_us()
    event.target = target
    ancestors = _propagation_path(target)

    phase_start = tracer.now_us()
    _capture_phase(ancestors, event, on_error)
    tracer.complete("dispatch.capture", phase_start, track=track,
                    cat="dispatch")
    phase_start = tracer.now_us()
    _target_phase(target, event, on_error)
    tracer.complete("dispatch.target", phase_start, track=track,
                    cat="dispatch")
    phase_start = tracer.now_us()
    _bubble_phase(ancestors, event, on_error)
    tracer.complete("dispatch.bubble", phase_start, track=track,
                    cat="dispatch")

    event.event_phase = None
    event.current_target = None
    proceed = not event.default_prevented
    tracer.complete("dispatch %s" % event.type, start, track=track,
                    cat="dispatch",
                    args={"type": event.type, "depth": len(ancestors),
                          "default_prevented": not proceed})
    return proceed


# Nodes without any listeners cannot observe the event or stop its
# propagation, so phases skip them outright — most of a deep path is
# silent, and the per-node invoke machinery is the dispatch hot path.

def _capture_phase(ancestors, event, on_error):
    """Capture phase: root → parent of target, capture listeners only."""
    event.event_phase = CAPTURING_PHASE
    for node in ancestors:
        if event.propagation_stopped:
            break
        if node._listeners:
            _invoke(node, event, capture=True, on_error=on_error)


def _target_phase(target, event, on_error):
    """Target phase: capture listeners first, then bubble listeners."""
    if not event.propagation_stopped and target._listeners:
        event.event_phase = AT_TARGET
        _invoke(target, event, capture=True, on_error=on_error)
        if not event.propagation_stopped:
            _invoke(target, event, capture=False, on_error=on_error)


def _bubble_phase(ancestors, event, on_error):
    """Bubble phase: parent of target → root, bubble listeners only."""
    if event.bubbles and not event.propagation_stopped:
        event.event_phase = BUBBLING_PHASE
        for node in reversed(ancestors):
            if event.propagation_stopped:
                break
            if node._listeners:
                _invoke(node, event, capture=False, on_error=on_error)


def _invoke(node, event, capture, on_error):
    for handler in node.listeners_for(event.type, capture):
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

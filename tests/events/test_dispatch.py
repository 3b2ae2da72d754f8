"""Capture/target/bubble dispatch semantics."""

import pytest

from repro import perf
from repro.dom.parser import parse_html
from repro.events.dispatch import dispatch_event
from repro.events.event import Event
from repro.util.errors import JSReferenceError, ScriptError


@pytest.fixture
def tree():
    doc = parse_html('<div id="outer"><p id="mid"><span id="inner">x</span></p></div>')
    return (doc, doc.get_element_by_id("outer"), doc.get_element_by_id("mid"),
            doc.get_element_by_id("inner"))


def test_full_phase_order(tree):
    doc, outer, mid, inner = tree
    order = []
    outer.add_event_listener("click", lambda e: order.append("outer-capture"),
                             capture=True)
    mid.add_event_listener("click", lambda e: order.append("mid-capture"),
                           capture=True)
    inner.add_event_listener("click", lambda e: order.append("target"))
    mid.add_event_listener("click", lambda e: order.append("mid-bubble"))
    outer.add_event_listener("click", lambda e: order.append("outer-bubble"))
    dispatch_event(inner, Event("click"))
    assert order == ["outer-capture", "mid-capture", "target",
                     "mid-bubble", "outer-bubble"]


def test_target_runs_capture_listeners_first(tree):
    _, _, _, inner = tree
    order = []
    inner.add_event_listener("click", lambda e: order.append("bubble"))
    inner.add_event_listener("click", lambda e: order.append("capture"),
                             capture=True)
    dispatch_event(inner, Event("click"))
    assert order == ["capture", "bubble"]


def test_non_bubbling_event_skips_ancestors(tree):
    _, outer, _, inner = tree
    called = []
    outer.add_event_listener("focus", lambda e: called.append("outer"))
    inner.add_event_listener("focus", lambda e: called.append("inner"))
    dispatch_event(inner, Event("focus", bubbles=False))
    assert called == ["inner"]


def test_stop_propagation_in_capture_blocks_target(tree):
    _, outer, _, inner = tree
    called = []
    outer.add_event_listener("click", lambda e: e.stop_propagation(),
                             capture=True)
    inner.add_event_listener("click", lambda e: called.append("target"))
    dispatch_event(inner, Event("click"))
    assert called == []


def test_stop_propagation_at_target_blocks_bubble(tree):
    _, outer, _, inner = tree
    called = []

    def stop(event):
        event.stop_propagation()
        called.append("target")

    inner.add_event_listener("click", stop)
    outer.add_event_listener("click", lambda e: called.append("outer"))
    dispatch_event(inner, Event("click"))
    assert called == ["target"]


def test_return_value_reflects_prevent_default(tree):
    _, _, _, inner = tree
    inner.add_event_listener("click", lambda e: e.prevent_default())
    assert dispatch_event(inner, Event("click")) is False
    assert dispatch_event(inner, Event("dblclick")) is True


def test_event_fields_set_during_dispatch(tree):
    _, outer, _, inner = tree
    seen = {}

    def capture_handler(event):
        seen["current"] = event.current_target
        seen["target"] = event.target

    outer.add_event_listener("click", capture_handler, capture=True)
    dispatch_event(inner, Event("click"))
    assert seen["current"] is outer
    assert seen["target"] is inner


def test_handler_error_goes_to_on_error_and_dispatch_continues(tree):
    _, outer, _, inner = tree
    errors = []
    called = []

    def broken(event):
        raise JSReferenceError("editorState is not defined")

    inner.add_event_listener("click", broken)
    outer.add_event_listener("click", lambda e: called.append("outer"))
    dispatch_event(inner, Event("click"), on_error=errors.append)
    assert len(errors) == 1
    assert isinstance(errors[0], JSReferenceError)
    assert called == ["outer"]


def test_handler_error_raises_without_on_error(tree):
    _, _, _, inner = tree
    inner.add_event_listener("click",
                             lambda e: (_ for _ in ()).throw(ValueError("x")))
    with pytest.raises(ScriptError):
        dispatch_event(inner, Event("click"))


def test_non_script_exception_is_wrapped(tree):
    _, _, _, inner = tree
    errors = []

    def broken(event):
        raise KeyError("missing")

    inner.add_event_listener("click", broken)
    dispatch_event(inner, Event("click"), on_error=errors.append)
    assert isinstance(errors[0], ScriptError)
    assert isinstance(errors[0].cause, KeyError)


def test_multiple_handlers_same_node_run_in_order(tree):
    _, _, _, inner = tree
    order = []
    inner.add_event_listener("click", lambda e: order.append(1))
    inner.add_event_listener("click", lambda e: order.append(2))
    dispatch_event(inner, Event("click"))
    assert order == [1, 2]


# -- semantics pinned across the fast path -----------------------------------
# Each runs with the fast path on and off (the unspecialised oracle).

fast_and_oracle = pytest.mark.parametrize(
    "fast", [True, False], ids=["fast", "oracle"])


@fast_and_oracle
def test_target_handler_adds_ancestor_bubble_listener_that_runs(tree, fast):
    _, outer, _, inner = tree
    order = []

    def at_target(event):
        order.append("target")
        outer.add_event_listener("click", lambda e: order.append("outer"))

    inner.add_event_listener("click", at_target)
    assert not outer._listeners
    with perf.fast_path(fast):
        dispatch_event(inner, Event("click"))
    assert order == ["target", "outer"]


@fast_and_oracle
def test_removed_later_handler_still_runs_this_dispatch(tree, fast):
    _, _, _, inner = tree
    order = []

    def later(event):
        order.append("later")

    def first(event):
        order.append("first")
        inner.remove_event_listener("click", later)

    inner.add_event_listener("click", first)
    inner.add_event_listener("click", later)
    with perf.fast_path(fast):
        dispatch_event(inner, Event("click"))
        assert order == ["first", "later"]
        dispatch_event(inner, Event("click"))
    assert order == ["first", "later", "first"]


@fast_and_oracle
def test_detaching_the_target_keeps_the_bubble_path(tree, fast):
    _, outer, mid, inner = tree
    order = []

    def detach(event):
        order.append("target")
        inner.remove()

    inner.add_event_listener("click", detach)
    mid.add_event_listener("click", lambda e: order.append("mid"))
    outer.add_event_listener("click", lambda e: order.append("outer"))
    with perf.fast_path(fast):
        dispatch_event(inner, Event("click"))
    assert inner.parent is None
    assert order == ["target", "mid", "outer"]


@fast_and_oracle
def test_listeners_for_returns_a_copy(tree, fast):
    _, _, _, inner = tree

    def handler(event):
        pass

    inner.add_event_listener("click", handler)
    with perf.fast_path(fast):
        handlers = inner.listeners_for("click", False)
        handlers.append(print)
        assert inner.listeners_for("click", False) == [handler]
        assert inner.listeners_for("click", True) == []

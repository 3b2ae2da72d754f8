"""The per-document listened-type index and the dispatch skip it drives.

Dispatch skips the propagation walk for event types no node of the
target's document has ever listened for. The oracle is the full walk:
with the fast path off (``perf.fast_path(False)``) every dispatch walks,
so both must call the same handlers in the same order and return the
same value, however listeners and subtrees moved before the dispatch.
"""

from hypothesis import given, settings, strategies as st

from repro import perf
from repro.dom.node import Document, Element
from repro.events import dispatch as dispatch_module
from repro.events.dispatch import dispatch_event
from repro.events.event import Event
from repro.util.errors import DomError

TYPES = ("click", "keydown", "keypress", "input")
#: Pool layout: two documents, then elements made three ways (owned by
#: either document while detached, or unowned until adopted).
N_DOCS = 2
N_ELEMENTS = 7
N_NODES = N_DOCS + N_ELEMENTS


def _pool():
    first, second = Document("a"), Document("b")
    nodes = [first, second]
    for index in range(N_ELEMENTS):
        maker = index % 3
        if maker == 0:
            nodes.append(Element("div"))
        else:
            nodes.append((first, second)[maker - 1].create_element("div"))
    return nodes


_element = st.integers(N_DOCS, N_NODES - 1)
_any_node = st.integers(0, N_NODES - 1)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), _any_node, _element),
        st.tuples(st.just("remove"), _element),
        st.tuples(st.just("listen"), _any_node, st.sampled_from(TYPES),
                  st.booleans(), st.sampled_from(("log", "stop", "prevent"))),
        st.tuples(st.just("unlisten"), _any_node, st.integers(0, 40)),
    ),
    max_size=30,
)


def _build(ops):
    """Apply ``ops`` to a fresh pool; returns (nodes, call log)."""
    nodes = _pool()
    log = []
    added = []

    def make_handler(label, behaviour):
        def handler(event):
            log.append((label, event.event_phase, event.current_target))
            if behaviour == "stop":
                event.stop_propagation()
            elif behaviour == "prevent":
                event.prevent_default()
        return handler

    for op in ops:
        if op[0] == "append":
            try:
                nodes[op[1]].append_child(nodes[op[2]])
            except DomError:
                pass
        elif op[0] == "remove":
            nodes[op[1]].remove()
        elif op[0] == "listen":
            _, index, event_type, capture, behaviour = op
            handler = make_handler(len(added), behaviour)
            nodes[index].add_event_listener(event_type, handler, capture)
            added.append((nodes[index], event_type, handler, capture))
        elif added:
            node, event_type, handler, capture = added[op[1] % len(added)]
            node.remove_event_listener(event_type, handler, capture)
    return nodes, log


def _observe(log, target, event_type, bubbles, fast):
    del log[:]
    event = Event(event_type, bubbles=bubbles)
    with perf.fast_path(fast):
        proceed = dispatch_event(target, event, on_error=lambda error: None)
    assert event.target is target
    return proceed, list(log)


@settings(max_examples=150, deadline=None)
@given(_ops)
def test_skip_matches_full_walk(ops):
    nodes, log = _build(ops)
    for target in nodes:
        for event_type in TYPES:
            for bubbles in (True, False):
                fast = _observe(log, target, event_type, bubbles, True)
                full = _observe(log, target, event_type, bubbles, False)
                assert fast == full


class TestSkip:
    def test_unlistened_type_builds_no_path(self, monkeypatch):
        doc = Document()
        outer = doc.append_child(doc.create_element("div"))
        inner = outer.append_child(doc.create_element("span"))
        outer.add_event_listener("keypress", lambda event: None)
        walks = []
        real = dispatch_module._propagation_path
        monkeypatch.setattr(dispatch_module, "_propagation_path",
                            lambda target: walks.append(target) or real(target))
        assert dispatch_event(inner, Event("keydown")) is True
        assert walks == []
        dispatch_event(inner, Event("keypress"))
        assert walks == [inner]
        with perf.fast_path(False):
            dispatch_event(inner, Event("keydown"))
        assert walks == [inner, inner]

    def test_detached_target_takes_full_walk(self):
        parent = Element("div")
        child = parent.append_child(Element("span"))
        seen = []
        parent.add_event_listener("click", seen.append)
        assert child.owner_document is None
        dispatch_event(child, Event("click"))
        assert len(seen) == 1

    def test_listener_on_document_is_indexed(self):
        doc = Document()
        target = doc.append_child(doc.create_element("div"))
        seen = []
        doc.add_event_listener("input", seen.append, capture=True)
        dispatch_event(target, Event("input"))
        assert len(seen) == 1

    def test_adoption_carries_listened_types(self):
        first, second = Document(), Document()
        subtree = Element("div")
        leaf = subtree.append_child(Element("span"))
        seen = []
        leaf.add_event_listener("keyup", seen.append)
        first.append_child(subtree)
        assert "keyup" in first._listened_types
        second.append_child(subtree)
        assert "keyup" in second._listened_types
        dispatch_event(leaf, Event("keyup"))
        assert len(seen) == 1

    def test_types_survive_listener_removal(self):
        doc = Document()
        node = doc.append_child(doc.create_element("div"))
        handler = lambda event: None  # noqa: E731
        node.add_event_listener("click", handler)
        node.remove_event_listener("click", handler)
        assert "click" in doc._listened_types


class TestRemoveEventListener:
    def test_add_then_remove_leaves_no_entry(self):
        node = Element("div")
        handler = lambda event: None  # noqa: E731
        node.add_event_listener("click", handler, capture=True)
        node.remove_event_listener("click", handler, capture=True)
        assert node._listeners == {}

    def test_remaining_handlers_keep_their_entry(self):
        node = Element("div")
        first = lambda event: None  # noqa: E731
        second = lambda event: None  # noqa: E731
        node.add_event_listener("click", first)
        node.add_event_listener("click", second)
        node.remove_event_listener("click", first)
        assert node.listeners_for("click", False) == [second]

    def test_removing_an_absent_handler_adds_no_entry(self):
        node = Element("div")
        node.remove_event_listener("click", lambda event: None)
        assert node._listeners == {}

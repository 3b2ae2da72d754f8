"""DOM node tree manipulation, attributes, and text content."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import perf
from repro.dom.node import Comment, Document, Element, Text
from repro.dom.parser import parse_html
from repro.dom.serialize import serialize
from repro.util.errors import DomError


@pytest.fixture
def doc():
    return Document(url="http://test/")


class TestTreeStructure:
    def test_append_child_sets_parent(self, doc):
        parent = doc.create_element("div")
        child = doc.create_element("span")
        parent.append_child(child)
        assert child.parent is parent
        assert parent.children == [child]

    def test_append_adopts_owner_document(self, doc):
        parent = doc.create_element("div")
        doc.append_child(parent)
        child = Element("span")
        grandchild = Text("hi")
        child.append_child(grandchild)
        parent.append_child(child)
        assert child.owner_document is doc
        assert grandchild.owner_document is doc

    def test_insert_before(self, doc):
        parent = doc.create_element("ul")
        first = doc.create_element("li")
        second = doc.create_element("li")
        parent.append_child(second)
        parent.insert_before(first, second)
        assert parent.children == [first, second]

    def test_insert_before_unknown_reference_fails(self, doc):
        parent = doc.create_element("div")
        stranger = doc.create_element("p")
        with pytest.raises(DomError):
            parent.insert_before(doc.create_element("span"), stranger)

    def test_reinserting_moves_node(self, doc):
        a = doc.create_element("div")
        b = doc.create_element("div")
        child = doc.create_element("span")
        a.append_child(child)
        b.append_child(child)
        assert a.children == []
        assert child.parent is b

    def test_cannot_be_own_child(self, doc):
        node = doc.create_element("div")
        with pytest.raises(DomError):
            node.append_child(node)

    def test_cannot_insert_ancestor(self, doc):
        outer = doc.create_element("div")
        inner = doc.create_element("div")
        outer.append_child(inner)
        with pytest.raises(DomError):
            inner.append_child(outer)

    def test_remove_child(self, doc):
        parent = doc.create_element("div")
        child = doc.create_element("span")
        parent.append_child(child)
        parent.remove_child(child)
        assert parent.children == []
        assert child.parent is None

    def test_remove_child_not_present_fails(self, doc):
        with pytest.raises(DomError):
            doc.create_element("div").remove_child(doc.create_element("p"))

    def test_replace_child(self, doc):
        parent = doc.create_element("div")
        old = doc.create_element("span")
        new = doc.create_element("b")
        parent.append_child(old)
        parent.replace_child(new, old)
        assert parent.children == [new]
        assert old.parent is None

    def test_remove_self(self, doc):
        parent = doc.create_element("div")
        child = doc.create_element("span")
        parent.append_child(child)
        child.remove()
        assert parent.children == []

    def test_remove_detached_is_noop(self, doc):
        doc.create_element("div").remove()  # no exception

    def test_contains(self, doc):
        outer = doc.create_element("div")
        inner = doc.create_element("span")
        outer.append_child(inner)
        assert outer.contains(inner)
        assert outer.contains(outer)
        assert not inner.contains(outer)

    def test_void_elements_refuse_children(self, doc):
        br = doc.create_element("br")
        with pytest.raises(DomError):
            br.append_child(doc.create_element("span"))

    def test_text_nodes_refuse_children(self):
        with pytest.raises(DomError):
            Text("x").append_child(Text("y"))

    def test_comment_nodes_refuse_children(self):
        with pytest.raises(DomError):
            Comment("x").append_child(Text("y"))


class TestTraversal:
    def test_descendants_preorder(self, doc):
        root = doc.create_element("div")
        a = doc.create_element("a")
        b = doc.create_element("b")
        inner = doc.create_element("i")
        root.append_child(a)
        a.append_child(inner)
        root.append_child(b)
        assert list(root.descendants()) == [a, inner, b]

    def test_ancestors(self, doc):
        outer = doc.create_element("div")
        mid = doc.create_element("p")
        leaf = doc.create_element("span")
        doc.append_child(outer)
        outer.append_child(mid)
        mid.append_child(leaf)
        assert list(leaf.ancestors()) == [mid, outer, doc]

    def test_root(self, doc):
        el = doc.create_element("div")
        doc.append_child(el)
        assert el.root() is doc

    def test_index_in_parent(self, doc):
        parent = doc.create_element("div")
        first = doc.create_element("a")
        second = doc.create_element("b")
        parent.append_child(first)
        parent.append_child(second)
        assert first.index_in_parent() == 0
        assert second.index_in_parent() == 1
        assert parent.index_in_parent() == -1

    def test_child_elements_skips_text(self, doc):
        parent = doc.create_element("div")
        parent.append_child(Text("hello"))
        el = doc.create_element("span")
        parent.append_child(el)
        assert parent.child_elements() == [el]


class TestTextContent:
    def test_concatenates_descendant_text(self, doc):
        root = doc.create_element("div")
        root.append_child(Text("Hello "))
        child = doc.create_element("b")
        child.append_child(Text("world"))
        root.append_child(child)
        assert root.text_content == "Hello world"

    def test_setter_replaces_children(self, doc):
        root = doc.create_element("div")
        root.append_child(doc.create_element("span"))
        root.text_content = "fresh"
        assert len(root.children) == 1
        assert isinstance(root.children[0], Text)
        assert root.text_content == "fresh"

    def test_setting_empty_clears(self, doc):
        root = doc.create_element("div")
        root.text_content = "x"
        root.text_content = ""
        assert root.children == []


class TestElementAttributes:
    def test_get_set_remove(self, doc):
        el = doc.create_element("div")
        el.set_attribute("data-x", "1")
        assert el.get_attribute("data-x") == "1"
        assert el.has_attribute("data-x")
        el.remove_attribute("data-x")
        assert el.get_attribute("data-x") is None

    def test_set_stringifies(self, doc):
        el = doc.create_element("div")
        el.set_attribute("count", 5)
        assert el.get_attribute("count") == "5"

    def test_id_property(self, doc):
        el = doc.create_element("div")
        assert el.id is None
        el.id = "main"
        assert el.get_attribute("id") == "main"

    def test_classes(self, doc):
        el = doc.create_element("div", {"class": "a b  c"})
        assert el.classes == ["a", "b", "c"]
        assert doc.create_element("div").classes == []

    def test_tag_is_lowercased(self):
        assert Element("DIV").tag == "div"


class TestFormValue:
    def test_value_reflects_attribute_until_written(self, doc):
        el = doc.create_element("input", {"value": "initial"})
        assert el.value == "initial"
        el.value = "typed"
        assert el.value == "typed"
        assert el.get_attribute("value") == "initial"

    def test_value_defaults_empty(self, doc):
        assert doc.create_element("input").value == ""

    def test_supports_value(self, doc):
        assert doc.create_element("input").supports_value()
        assert doc.create_element("textarea").supports_value()
        assert not doc.create_element("div").supports_value()


class TestContentEditable:
    def test_direct_flag(self, doc):
        el = doc.create_element("div", {"contenteditable": ""})
        assert el.is_content_editable

    def test_inherited_from_ancestor(self, doc):
        outer = doc.create_element("div", {"contenteditable": "true"})
        inner = doc.create_element("span")
        outer.append_child(inner)
        assert inner.is_content_editable

    def test_false_value_disables(self, doc):
        outer = doc.create_element("div", {"contenteditable": "true"})
        inner = doc.create_element("span", {"contenteditable": "false"})
        outer.append_child(inner)
        assert not inner.is_content_editable

    def test_default_is_not_editable(self, doc):
        assert not doc.create_element("div").is_content_editable


class TestFocusable:
    @pytest.mark.parametrize("tag", ["input", "textarea", "select", "button", "a"])
    def test_form_controls_focusable(self, doc, tag):
        assert doc.create_element(tag).is_focusable()

    def test_div_not_focusable(self, doc):
        assert not doc.create_element("div").is_focusable()

    def test_contenteditable_focusable(self, doc):
        assert doc.create_element("div", {"contenteditable": ""}).is_focusable()

    def test_tabindex_focusable(self, doc):
        assert doc.create_element("div", {"tabindex": "0"}).is_focusable()


class TestDocument:
    def test_get_element_by_id(self, doc):
        root = doc.create_element("div")
        target = doc.create_element("span", {"id": "x"})
        doc.append_child(root)
        root.append_child(target)
        assert doc.get_element_by_id("x") is target
        assert doc.get_element_by_id("missing") is None

    def test_get_elements_by_tag(self, doc):
        root = doc.create_element("div")
        doc.append_child(root)
        items = [doc.create_element("li") for _ in range(3)]
        for item in items:
            root.append_child(item)
        assert doc.get_elements_by_tag("LI") == items

    def test_listeners_storage(self, doc):
        el = doc.create_element("div")
        handler = lambda event: None
        el.add_event_listener("click", handler)
        assert el.listeners_for("click", capture=False) == [handler]
        assert el.has_listener("click")
        el.remove_event_listener("click", handler)
        assert not el.has_listener("click")

    def test_remove_unknown_listener_is_noop(self, doc):
        doc.create_element("div").remove_event_listener("click", lambda e: None)

    def test_capture_and_bubble_are_separate(self, doc):
        el = doc.create_element("div")
        handler = lambda event: None
        el.add_event_listener("click", handler, capture=True)
        assert el.listeners_for("click", capture=True) == [handler]
        assert el.listeners_for("click", capture=False) == []


# -- typing edits: the in-place primitives against the replace-all spec ------

_EDIT_TARGETS = {
    "empty div": '<div id="t" contenteditable="true"></div>',
    "div with text": '<div id="t" contenteditable="true">draft</div>',
    "div with markup": '<div id="t" contenteditable="true">a<b>b</b></div>',
    "div with a comment": '<div id="t" contenteditable="true"><!--c--></div>',
    "input": '<input id="t" type="text">',
}

_edits = st.lists(st.one_of(
    st.tuples(st.just("append"), st.text(min_size=1, max_size=3)),
    st.tuples(st.just("backspace"), st.none()),
    st.tuples(st.just("enter"), st.none()),
), max_size=25)


def _apply(element, edit, in_place):
    """One keystroke's DOM edit; returns the DomError type it raised."""
    kind, text = edit
    try:
        if kind == "enter":
            element.append_child(element.owner_document.create_element("br"))
        elif kind == "append":
            if in_place:
                element.append_text(text)
            else:
                element.text_content = element.text_content + text
        elif in_place:
            element.delete_last_character()
        else:
            element.text_content = element.text_content[:-1]
    except DomError as error:
        return type(error)
    return None


def _state(document, element):
    return (serialize(document), element.text_content,
            document.text_generation, document.structure_generation)


class TestTypingPrimitives:
    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(_EDIT_TARGETS)), _edits)
    def test_in_place_edits_match_the_replace_all_spec(self, target, edits):
        html = "<html><body>%s</body></html>" % _EDIT_TARGETS[target]
        with perf.fast_path(True):
            fast_doc, spec_doc = parse_html(html), parse_html(html)
            fast = fast_doc.get_element_by_id("t")
            spec = spec_doc.get_element_by_id("t")
            for edit in edits:
                fast_before = _state(fast_doc, fast)
                spec_before = _state(spec_doc, spec)
                assert _apply(fast, edit, True) == _apply(spec, edit, False)
                fast_after = _state(fast_doc, fast)
                spec_after = _state(spec_doc, spec)
                # Same tree and text as the spec, after every edit.
                assert fast_after[:2] == spec_after[:2]
                # A changed text shows in text_generation, as it does
                # under the spec; an edit that changes nothing there
                # changes nothing here either.
                text_moved = spec_after[2] > spec_before[2]
                assert (fast_after[2] > fast_before[2]) == text_moved
                # Element structure moves exactly as under the spec.
                assert (fast_after[3] - fast_before[3]
                        == spec_after[3] - spec_before[3])

    def test_append_rewrites_the_only_text_node_in_place(self, doc):
        div = doc.create_element("div")
        doc.append_child(div)
        div.append_text("ab")
        text = div.children[0]
        generation = doc.text_generation
        div.append_text("c")
        div.delete_last_character()
        div.append_text("d")
        assert div.children == [text]
        assert text.data == "abd"
        assert doc.text_generation == generation + 3

    def test_deleting_the_last_character_removes_the_text_node(self, doc):
        div = doc.create_element("div")
        doc.append_child(div)
        div.append_text("a")
        div.delete_last_character()
        assert div.children == []

    def test_disabled_fast_path_takes_the_replace_all_setter(self, doc):
        div = doc.create_element("div")
        doc.append_child(div)
        div.append_text("ab")
        text = div.children[0]
        with perf.fast_path(False):
            div.append_text("c")
        assert div.children[0] is not text
        assert div.text_content == "abc"

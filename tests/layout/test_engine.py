"""Layout engine: geometry, hit testing, drag offsets."""

import pytest

from repro.dom.node import Element
from repro.dom.parser import parse_html
from repro.layout.box import Rect
from repro.layout.engine import LayoutEngine, layout_document


def lay(html, width=1024):
    doc = parse_html(html)
    return doc, LayoutEngine(doc, viewport_width=width).relayout()


class TestRect:
    def test_contains_inclusive_top_left(self):
        rect = Rect(10, 10, 20, 20)
        assert rect.contains(10, 10)
        assert not rect.contains(30, 30)
        assert rect.contains(29, 29)

    def test_center(self):
        assert Rect(0, 0, 10, 20).center == (5, 10)

    def test_translated(self):
        moved = Rect(1, 2, 3, 4).translated(10, 20)
        assert (moved.x, moved.y) == (11, 22)
        assert (moved.width, moved.height) == (3, 4)


class TestBlocks:
    def test_blocks_stack_vertically(self):
        doc, engine = lay("<div id='a'>x</div><div id='b'>y</div>")
        a = engine.box_for(doc.get_element_by_id("a")).rect
        b = engine.box_for(doc.get_element_by_id("b")).rect
        assert b.y >= a.bottom

    def test_every_rendered_element_has_a_box(self):
        doc, engine = lay("<div><p><span>x</span></p><ul><li>i</li></ul></div>")
        for element in doc.body.descendants():
            if getattr(element, "tag", None) in ("div", "p", "span", "ul", "li"):
                assert engine.box_for(element) is not None

    def test_head_has_no_box(self):
        doc, engine = lay("<head><title>T</title></head><body><p>x</p></body>")
        assert engine.box_for(doc.head) is None

    def test_nested_block_inside_parent(self):
        doc, engine = lay("<div id='out'><div id='in'>x</div></div>")
        outer = engine.box_for(doc.get_element_by_id("out")).rect
        inner = engine.box_for(doc.get_element_by_id("in")).rect
        assert inner.x >= outer.x
        assert inner.y >= outer.y
        assert inner.right <= outer.right


class TestInline:
    def test_inline_elements_flow_horizontally(self):
        doc, engine = lay("<div><span id='a'>aa</span><span id='b'>bb</span></div>")
        a = engine.box_for(doc.get_element_by_id("a")).rect
        b = engine.box_for(doc.get_element_by_id("b")).rect
        assert b.x > a.x
        assert a.y == b.y

    def test_text_width_scales_with_length(self):
        doc, engine = lay("<div><span id='s'>sh</span>"
                          "<span id='l'>much longer text</span></div>")
        short = engine.box_for(doc.get_element_by_id("s")).rect
        long_ = engine.box_for(doc.get_element_by_id("l")).rect
        assert long_.width > short.width

    def test_input_gets_fixed_size(self):
        doc, engine = lay("<div><input type='text' id='i'></div>")
        rect = engine.box_for(doc.get_element_by_id("i")).rect
        assert rect.width > 0 and rect.height > 0

    def test_checkbox_is_small(self):
        doc, engine = lay("<div><input type='checkbox' id='c'>"
                          "<input type='text' id='t'></div>")
        checkbox = engine.box_for(doc.get_element_by_id("c")).rect
        text = engine.box_for(doc.get_element_by_id("t")).rect
        assert checkbox.width < text.width


class TestTables:
    def test_cells_share_the_row(self):
        doc, engine = lay("<table><tr><td id='a'>x</td><td id='b'>y</td></tr></table>")
        a = engine.box_for(doc.get_element_by_id("a")).rect
        b = engine.box_for(doc.get_element_by_id("b")).rect
        assert a.y == b.y
        assert b.x > a.x

    def test_rows_stack(self):
        doc, engine = lay("<table><tr><td id='a'>x</td></tr>"
                          "<tr><td id='b'>y</td></tr></table>")
        a = engine.box_for(doc.get_element_by_id("a")).rect
        b = engine.box_for(doc.get_element_by_id("b")).rect
        assert b.y > a.y


class TestHitTest:
    def test_click_point_hits_its_element(self):
        doc, engine = lay("""
        <div><span id="start">Go</span></div>
        <table><tr><td><div id="content">Hello</div></td>
        <td><div id="save">Save</div></td></tr></table>
        <input type="text" name="q">
        """)
        for element_id in ("start", "content", "save"):
            element = doc.get_element_by_id(element_id)
            x, y = engine.click_point(element)
            assert engine.hit_test(x, y) is element

    def test_miss_returns_none_or_body(self):
        doc, engine = lay("<p>x</p>")
        hit = engine.hit_test(100000, 100000)
        assert hit is None or hit.tag == "body"

    def test_deepest_element_wins(self):
        doc, engine = lay("<div id='outer'><div id='inner'>x</div></div>")
        inner = doc.get_element_by_id("inner")
        x, y = engine.click_point(inner)
        assert engine.hit_test(x, y) is inner

    def test_boxes_record_their_element_depth(self):
        # Rows sit below their table at any depth, wrapped or inside a
        # table nested in one of its cells.
        doc, engine = lay("""
        <table><tr><td><table><tr><td><b>x</b></td></tr></table></td></tr>
        <div><tr><td>wrapped</td></tr></div></table>
        <p>text <a><span>inline</span></a></p>
        <iframe><p>inside</p></iframe>
        """)
        assert any(element.tag == "tr" for element in engine._order)
        for element in engine._order:
            assert engine.box_for(element).depth \
                == sum(1 for _ in element.ancestors())

    def test_nested_table_rows_are_laid_out_once_inside_their_cell(self):
        doc, engine = lay("<table><tr><td>a</td><td id='cell'><table>"
                          "<tr id='inner'><td id='c'>x</td></tr>"
                          "</table></td></tr></table>")
        elements = [doc.body] + [node for node in doc.body.descendants()
                                 if isinstance(node, Element)]
        assert len(elements) == 8
        assert sorted(map(id, engine._order)) == sorted(map(id, elements))
        cell = engine.box_for(doc.get_element_by_id("cell")).rect
        for name in ("inner", "c"):
            rect = engine.box_for(doc.get_element_by_id(name)).rect
            assert cell.x <= rect.x and rect.right <= cell.right
            assert cell.y <= rect.y and rect.bottom <= cell.bottom


class TestDragOffsets:
    def test_offset_translates_box(self):
        doc, engine = lay("<div id='w'>widget</div>")
        before = engine.box_for(doc.get_element_by_id("w")).rect
        element = doc.get_element_by_id("w")
        element.set_attribute("data-offset-x", "30")
        element.set_attribute("data-offset-y", "40")
        engine.relayout()
        after = engine.box_for(element).rect
        assert after.x == before.x + 30
        assert after.y == before.y + 40

    def test_children_move_with_dragged_parent(self):
        doc, engine = lay("<div id='w' data-offset-x='10' data-offset-y='0'>"
                          "<span id='c'>x</span></div>")
        child = engine.box_for(doc.get_element_by_id("c")).rect
        doc.get_element_by_id("w").remove_attribute("data-offset-x")
        engine.relayout()
        unmoved = engine.box_for(doc.get_element_by_id("c")).rect
        assert child.x == unmoved.x + 10


class TestRelayout:
    def test_relayout_reflects_dom_changes(self):
        doc, engine = lay("<div id='a'>x</div>")
        new = doc.create_element("div", {"id": "b"})
        new.text_content = "y"
        doc.body.append_child(new)
        engine.relayout()
        assert engine.box_for(new) is not None

    def test_layout_document_helper(self):
        doc = parse_html("<p id='p'>x</p>")
        engine = layout_document(doc)
        assert engine.box_for(doc.get_element_by_id("p")) is not None

    def test_requires_document(self):
        doc = parse_html("<p>x</p>")
        with pytest.raises(TypeError):
            LayoutEngine(doc.body)

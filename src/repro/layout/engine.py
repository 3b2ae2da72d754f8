"""Flow layout over the DOM.

The model is a character grid: text advances ``CHAR_WIDTH`` px per
character on ``LINE_HEIGHT`` px lines. Block-level elements stack
vertically and span the available width; inline elements advance a
horizontal cursor. Tables lay rows vertically and distribute cells
horizontally; a table's other children stack between its rows as
blocks. This is nowhere near CSS, but it is deterministic,
monotonic, and gives every element a non-degenerate rectangle — all
that coordinate-based replay needs.

Elements moved by drags carry ``data-offset-x/y`` attributes which the
engine applies as a final translation, so dragging changes geometry the
way the paper's drag command expects.

Layout is a pure function of the document's tree, attributes and text,
all of which bump its ``generation``. So a page-template clone that has
not been mutated takes a copy of the boxes computed once for its
template (:mod:`repro.dom.parser`), and an invalidated layout whose
document has not changed since is not recomputed. Chaos jitter is
drawn as before; while layout chaos is active nothing is skipped.
``perf.fast_path(False)`` walks the tree on every relayout.
"""

from repro import chaos, perf, telemetry
from repro.dom.node import Document, Element, Text
from repro.layout.box import Rect, LayoutBox

CHAR_WIDTH = 8
LINE_HEIGHT = 18
PADDING = 4
DEFAULT_VIEWPORT_WIDTH = 1024
INPUT_WIDTH = 160
INPUT_HEIGHT = 22
BUTTON_PAD = 16
IFRAME_WIDTH = 400
IFRAME_HEIGHT = 150

#: Elements that flow horizontally instead of stacking.
INLINE_ELEMENTS = frozenset(
    ["span", "a", "b", "i", "em", "strong", "u", "small", "big", "label",
     "input", "button", "select", "img", "code", "sub", "sup"]
)

#: Elements that are not rendered at all.
INVISIBLE_ELEMENTS = frozenset(
    ["head", "script", "style", "meta", "link", "title", "template-holder"]
)


class LayoutEngine:
    """Computes and caches boxes for one document."""

    def __init__(self, document, viewport_width=DEFAULT_VIEWPORT_WIDTH):
        if not isinstance(document, Document):
            raise TypeError("LayoutEngine requires a Document")
        self.document = document
        self.viewport_width = viewport_width
        self._boxes = {}
        self._order = []
        self._dirty = True
        #: Document generation the boxes were computed at (None when
        #: they carry chaos jitter), and its structure generation.
        self._generation = None
        self._structure_generation = None
        #: Telemetry track anchor (the owning WebKitEngine sets itself).
        self.trace_track = None

    # -- public API -------------------------------------------------------

    def relayout(self):
        """Recompute all boxes; call after the DOM changes."""
        tracer = telemetry.current()
        if tracer is None or not tracer.wants("layout"):
            return self._relayout()
        with tracer.span("layout.reflow", track=self.trace_track,
                         cat="layout") as args:
            result = self._relayout()
            args["boxes"] = len(self._order)
        return result

    def _relayout(self):
        document = self.document
        template = document._template if perf.fast_path_enabled() else None
        if (template is not None
                and document.generation == template[0].document.generation):
            self._copy_template_layout(*template)
        else:
            self._walk()
        injector = _layout_chaos()
        if injector is not None and self._order:
            self._apply_chaos_jitter(injector)
        self._generation = document.generation if injector is None else None
        self._structure_generation = document.structure_generation
        self._dirty = False
        return self

    def _walk(self):
        """Lay the tree out from the body (no boxes without one)."""
        self._boxes = {}
        self._order = []
        body = self.document.body
        if body is not None:
            self._layout_block(body, 0, 0, self.viewport_width,
                               sum(1 for _ in body.ancestors()))
            self._apply_drag_offsets()

    def _copy_template_layout(self, template, elements):
        """Boxes for an unmutated clone of ``template``: a copy of the
        template's, walked once per viewport width. ``elements`` are
        the clone's in document order."""
        layouts = template.layouts
        entries = layouts.get(self.viewport_width)
        if entries is None:
            engine = LayoutEngine(template.document, self.viewport_width)
            engine._walk()
            position = template.order
            entries = layouts[self.viewport_width] = [
                (position[id(element)], engine._boxes[id(element)])
                for element in engine._order]
        self._boxes = boxes = {}
        self._order = order = []
        for position, box in entries:
            element = elements[position]
            boxes[id(element)] = LayoutBox(element, box.rect, box.depth)
            order.append(element)

    def _apply_chaos_jitter(self, injector):
        """Chaos injection point: shift the whole page by a few pixels.

        Models late-landing layout (ads, fonts, async content pushing
        the page around): recorded click coordinates stop matching the
        element they targeted, which is exactly what the locator
        relaxation ladder has to absorb.
        """
        px = injector.fault("layout", "jitter", "layout_jitter_rate",
                            "layout_jitter_px")
        if px is None:
            return
        rng = injector.stream("layout")
        dx = int(round(px)) * rng.choice((-1, 1))
        dy = int(round(px * rng.random()))
        for box in self._boxes.values():
            box.rect = box.rect.translated(dx, dy)

    def invalidate(self):
        """Mark the layout stale after a DOM change.

        With the fast path on this only sets a dirty flag — bursts of
        mutations between events coalesce into one relayout, performed
        lazily by the next hit test or box query. With the fast path
        off it recomputes eagerly (the original behaviour).
        """
        if not perf.fast_path_enabled():
            self.relayout()
            return
        self._dirty = True

    def _ensure_layout(self):
        """Recompute boxes if a mutation invalidated them.

        An invalidation after which the document's generation has not
        moved (typing into an ``<input>`` sets only its ``value``
        property) keeps the boxes, counted as a hit, unless layout chaos
        is active and a relayout would draw jitter.
        """
        if perf.fast_path_enabled():
            if self._dirty and (
                    self._generation != self.document.generation
                    or _layout_chaos() is not None):
                perf.record("layout", hit=False)
                self.relayout()
            else:
                self._dirty = False
                perf.record("layout", hit=True)
        elif not self._boxes:
            self.relayout()

    def box_for(self, element):
        """The element's :class:`LayoutBox`, or None if not rendered."""
        self._ensure_layout()
        return self._boxes.get(id(element))

    def hit_test(self, x, y):
        """Deepest element containing the point, or None.

        Ties at equal depth go to the later sibling (painted on top).
        Depth is the one recorded with each box, unless elements were
        added or removed since the boxes were computed; then it is
        counted from the element's current ancestors.
        """
        self._ensure_layout()
        boxes = self._boxes
        recorded = (self._structure_generation
                    == self.document.structure_generation)
        hit = None
        hit_depth = -1
        for element in self._order:
            box = boxes[id(element)]
            if not box.rect.contains(x, y):
                continue
            if recorded:
                depth = box.depth
            else:
                depth = sum(1 for _ in element.ancestors())
            if depth >= hit_depth:
                hit = element
                hit_depth = depth
        return hit

    def click_point(self, element):
        """Coordinates the recorder logs for a click on ``element``."""
        box = self.box_for(element)
        if box is None:
            return (0, 0)
        return box.rect.center

    # -- layout algorithms --------------------------------------------------

    def _register(self, element, rect, depth):
        self._boxes[id(element)] = LayoutBox(element, rect, depth)
        self._order.append(element)

    def _is_inline(self, element):
        return element.tag in INLINE_ELEMENTS

    # Each method below is given the depth (number of ancestors) of the
    # elements it registers.

    def _layout_block(self, element, x, y, width, depth):
        """Lay out a block element; returns its height."""
        if element.tag in INVISIBLE_ELEMENTS:
            return 0
        if element.tag == "table":
            return self._layout_table(element, x, y, width, depth)
        if element.tag == "iframe":
            return self._layout_iframe(element, x, y, width, depth)

        inner_x = x + PADDING
        inner_width = max(width - 2 * PADDING, CHAR_WIDTH)
        cursor_y = y + PADDING
        inline_run = []

        def flush_inline():
            nonlocal cursor_y
            if not inline_run:
                return
            run_height = self._layout_inline_run(inline_run, inner_x,
                                                 cursor_y, depth + 1)
            cursor_y += run_height
            inline_run.clear()

        for child in element.children:
            if isinstance(child, Text):
                if child.data.strip():
                    inline_run.append(child)
            elif isinstance(child, Element):
                if child.tag in INVISIBLE_ELEMENTS:
                    continue
                if self._is_inline(child):
                    inline_run.append(child)
                else:
                    flush_inline()
                    cursor_y += self._layout_block(child, inner_x, cursor_y,
                                                   inner_width, depth + 1)
        flush_inline()

        height = max(cursor_y + PADDING - y, LINE_HEIGHT)
        self._register(element, Rect(x, y, width, height), depth)
        return height

    def _layout_inline_run(self, nodes, x, y, depth):
        """Lay out consecutive inline nodes horizontally; returns height."""
        cursor_x = x
        max_height = LINE_HEIGHT
        for node in nodes:
            if isinstance(node, Text):
                cursor_x += len(node.data.strip()) * CHAR_WIDTH
                continue
            width, height = self._inline_size(node)
            self._register(node, Rect(cursor_x, y, width, height), depth)
            self._layout_inline_children(node, cursor_x, y, depth + 1)
            cursor_x += width + PADDING
            max_height = max(max_height, height)
        return max_height

    def _layout_inline_children(self, element, x, y, depth):
        """Give inline descendants boxes nested inside the parent's box."""
        cursor_x = x + 1
        for child in element.children:
            if isinstance(child, Element) and child.tag not in INVISIBLE_ELEMENTS:
                width, height = self._inline_size(child)
                self._register(child, Rect(cursor_x, y + 1, width, max(height - 2, 1)),
                               depth)
                self._layout_inline_children(child, cursor_x, y + 1, depth + 1)
                cursor_x += width + 1

    def _inline_size(self, element):
        if element.tag == "input":
            input_type = (element.get_attribute("type") or "text").lower()
            if input_type in ("checkbox", "radio"):
                return (14, 14)
            if input_type in ("submit", "button"):
                label = element.get_attribute("value") or "Submit"
                return (len(label) * CHAR_WIDTH + BUTTON_PAD, INPUT_HEIGHT)
            return (INPUT_WIDTH, INPUT_HEIGHT)
        if element.tag == "select":
            return (INPUT_WIDTH, INPUT_HEIGHT)
        if element.tag == "img":
            width = int(element.get_attribute("width") or 32)
            height = int(element.get_attribute("height") or 32)
            return (width, height)
        text_length = len(element.text_content.strip())
        if element.tag == "button":
            return (text_length * CHAR_WIDTH + BUTTON_PAD, INPUT_HEIGHT)
        return (max(text_length, 1) * CHAR_WIDTH, LINE_HEIGHT)

    def _layout_iframe(self, iframe, x, y, width, depth):
        """Iframes have intrinsic dimensions (browsers default 300x150).

        A src iframe's content lives in a child engine with its own
        layout; a src-less iframe's inline children belong to this
        document and are laid out inside the iframe's box.
        """
        frame_width = int(iframe.get_attribute("width")
                          or min(width, IFRAME_WIDTH))
        frame_height = int(iframe.get_attribute("height") or IFRAME_HEIGHT)
        self._register(iframe, Rect(x, y, frame_width, frame_height), depth)
        cursor_y = y + PADDING
        for child in iframe.child_elements():
            if child.tag in INVISIBLE_ELEMENTS:
                continue
            cursor_y += self._layout_block(child, x + PADDING, cursor_y,
                                           frame_width - 2 * PADDING,
                                           depth + 1)
        return frame_height

    def _layout_table(self, table, x, y, width, depth):
        cursor_y = self._layout_table_children(table, x, y + PADDING, width,
                                               depth + 1)
        height = max(cursor_y + PADDING - y, LINE_HEIGHT)
        self._register(table, Rect(x, y, width, height), depth)
        return height

    def _layout_table_children(self, parent, x, cursor_y, width, depth):
        """Stack the children of a table (or of a wrapper of its rows)
        down from ``cursor_y``; returns the cursor below them.

        A ``tr`` is a row. An element holding rows of this table (a
        ``tbody``, or a ``div`` around a ``tr``) is a transparent
        wrapper: its children stack the same way and it gets no box.
        Any other visible element (a ``caption``, a ``div``, a nested
        ``table``) is a block across the table's width.
        """
        for child in parent.child_elements():
            if child.tag in INVISIBLE_ELEMENTS:
                continue
            if child.tag == "tr":
                cursor_y += self._layout_row(child, x, cursor_y, width, depth)
            elif child.tag != "table" and _holds_rows(child):
                cursor_y = self._layout_table_children(child, x, cursor_y,
                                                       width, depth + 1)
            else:
                cursor_y += self._layout_block(child, x, cursor_y, width,
                                               depth)
        return cursor_y

    def _layout_row(self, row, x, y, width, depth):
        """Lay a row's cells side by side; returns the row's height."""
        cells = [
            child for child in row.child_elements()
            if child.tag in ("td", "th")
        ]
        if not cells:
            self._register(row, Rect(x, y, width, LINE_HEIGHT), depth)
            return LINE_HEIGHT
        cell_width = max(width // len(cells), CHAR_WIDTH * 2)
        row_height = 0
        for index, cell in enumerate(cells):
            height = self._layout_block(cell, x + index * cell_width, y,
                                        cell_width, depth + 1)
            row_height = max(row_height, height)
        self._register(row, Rect(x, y, width, row_height), depth)
        return row_height

    def _apply_drag_offsets(self):
        """Translate boxes of elements that carry drag offsets."""
        for element in self._order:
            dx = element.get_attribute("data-offset-x")
            dy = element.get_attribute("data-offset-y")
            if not dx and not dy:
                continue
            offset_x = int(dx or 0)
            offset_y = int(dy or 0)
            box = self._boxes[id(element)]
            box.rect = box.rect.translated(offset_x, offset_y)
            for descendant in element.descendants():
                child_box = self._boxes.get(id(descendant))
                if child_box is not None:
                    child_box.rect = child_box.rect.translated(offset_x, offset_y)


def _layout_chaos():
    """The chaos injector if its layout layer is live, else None."""
    injector = chaos.current()
    if injector is None or not injector.layout_active:
        return None
    return injector


def layout_document(document, viewport_width=DEFAULT_VIEWPORT_WIDTH):
    """Convenience: build and run a :class:`LayoutEngine`."""
    return LayoutEngine(document, viewport_width).relayout()


def _holds_rows(element):
    """True when a ``tr`` sits below ``element`` outside any nested
    ``table``: the element wraps rows of the table it is in.

    A nested table lays out its own rows when block layout reaches it,
    so the walk does not enter one.
    """
    stack = element.child_elements()
    while stack:
        node = stack.pop()
        if node.tag == "tr":
            return True
        if node.tag != "table":
            stack.extend(node.child_elements())
    return False

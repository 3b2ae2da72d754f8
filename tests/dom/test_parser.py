"""HTML parser behaviour."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import perf
from repro.auser.snapshot import PageSnapshot
from repro.dom import parser
from repro.dom.node import Comment, Element, Text
from repro.dom.parser import (
    decode_entities,
    parse_fragment,
    parse_html,
    parse_html_uncached,
)
from repro.layout.engine import LayoutEngine


class TestBasicParsing:
    def test_simple_document(self):
        doc = parse_html("<html><head><title>T</title></head>"
                         "<body><p>hi</p></body></html>")
        assert doc.title == "T"
        assert doc.body.children[0].tag == "p"

    def test_skeleton_added_when_missing(self):
        doc = parse_html("<p>bare</p>")
        assert doc.document_element.tag == "html"
        assert doc.head is not None
        assert doc.body is not None
        assert doc.body.children[0].tag == "p"

    def test_url_is_kept(self):
        doc = parse_html("<p>x</p>", url="http://a/b")
        assert doc.url == "http://a/b"

    def test_nested_elements(self):
        doc = parse_html("<div><ul><li><b>x</b></li></ul></div>")
        b = doc.get_elements_by_tag("b")[0]
        chain = [a.tag for a in b.ancestors() if hasattr(a, "tag")]
        assert chain[:4] == ["li", "ul", "div", "body"]

    def test_doctype_is_ignored(self):
        doc = parse_html("<!DOCTYPE html><html><body><p>x</p></body></html>")
        assert doc.body.children[0].tag == "p"


class TestAttributes:
    def test_double_quoted(self):
        doc = parse_html('<div id="main" class="a b">x</div>')
        el = doc.get_element_by_id("main")
        assert el.classes == ["a", "b"]

    def test_single_quoted(self):
        doc = parse_html("<div id='main'>x</div>")
        assert doc.get_element_by_id("main") is not None

    def test_unquoted(self):
        doc = parse_html("<input type=text name=q>")
        el = doc.get_elements_by_tag("input")[0]
        assert el.get_attribute("type") == "text"
        assert el.name == "q"

    def test_bare_attribute(self):
        doc = parse_html("<input disabled>")
        assert doc.get_elements_by_tag("input")[0].has_attribute("disabled")

    def test_attribute_names_lowercased(self):
        doc = parse_html('<div ID="x">y</div>')
        assert doc.get_element_by_id("x") is not None

    def test_entities_in_attribute_values(self):
        doc = parse_html('<div title="a &amp; b">x</div>')
        assert doc.get_elements_by_tag("div")[0].get_attribute("title") == "a & b"


class TestVoidAndSelfClosing:
    def test_void_elements_do_not_nest(self):
        doc = parse_html("<div><br><span>after</span></div>")
        div = doc.get_elements_by_tag("div")[0]
        assert [c.tag for c in div.child_elements()] == ["br", "span"]

    def test_self_closing_syntax(self):
        doc = parse_html("<div><img src='x.png'/><span>s</span></div>")
        div = doc.get_elements_by_tag("div")[0]
        assert [c.tag for c in div.child_elements()] == ["img", "span"]

    def test_stray_void_end_tag_ignored(self):
        doc = parse_html("<div><br></br><span>x</span></div>")
        assert doc.get_elements_by_tag("span")[0].text_content == "x"


class TestImpliedEndTags:
    def test_li_closes_li(self):
        doc = parse_html("<ul><li>a<li>b<li>c</ul>")
        ul = doc.get_elements_by_tag("ul")[0]
        assert [li.text_content for li in ul.child_elements()] == ["a", "b", "c"]

    def test_td_closes_td(self):
        doc = parse_html("<table><tr><td>a<td>b</tr></table>")
        tr = doc.get_elements_by_tag("tr")[0]
        assert [td.text_content for td in tr.child_elements()] == ["a", "b"]

    def test_tr_closes_tr(self):
        doc = parse_html("<table><tr><td>a</td><tr><td>b</td></table>")
        assert len(doc.get_elements_by_tag("tr")) == 2


class TestRawText:
    def test_script_content_not_parsed(self):
        doc = parse_html("<script>if (a < b) { x(); }</script><p>after</p>")
        script = doc.get_elements_by_tag("script")[0]
        assert "a < b" in script.text_content
        assert doc.get_elements_by_tag("p")[0].text_content == "after"

    def test_textarea_preserves_markup(self):
        doc = parse_html("<textarea><b>not bold</b></textarea>")
        area = doc.get_elements_by_tag("textarea")[0]
        assert area.text_content == "<b>not bold</b>"
        assert area.child_elements() == []

    def test_style_raw(self):
        doc = parse_html("<style>p > b { color: red }</style>")
        assert ">" in doc.get_elements_by_tag("style")[0].text_content


class TestComments:
    def test_comment_preserved(self):
        doc = parse_html("<div><!-- note --><p>x</p></div>")
        div = doc.get_elements_by_tag("div")[0]
        comments = [c for c in div.children if isinstance(c, Comment)]
        assert len(comments) == 1
        assert comments[0].data == " note "

    def test_unterminated_comment_swallows_rest(self):
        doc = parse_html("<div>a</div><!-- oops <p>x</p>")
        assert doc.get_elements_by_tag("p") == []


class TestRecovery:
    def test_mismatched_end_tag_pops_to_match(self):
        doc = parse_html("<div><span>x</div><p>y</p>")
        p = doc.get_elements_by_tag("p")[0]
        assert p.parent.tag == "body"

    def test_unknown_end_tag_ignored(self):
        doc = parse_html("<div>x</bogus></div>")
        assert doc.get_elements_by_tag("div")[0].text_content == "x"

    def test_lone_less_than_is_text(self):
        doc = parse_html("<p>1 < 2</p>")
        assert doc.get_elements_by_tag("p")[0].text_content == "1 < 2"


class TestEntities:
    @pytest.mark.parametrize("raw,expected", [
        ("&amp;", "&"), ("&lt;", "<"), ("&gt;", ">"),
        ("&quot;", '"'), ("&apos;", "'"), ("&nbsp;", "\xa0"),
        ("&#65;", "A"), ("&#x41;", "A"), ("&#x2764;", "❤"),
    ])
    def test_known_entities(self, raw, expected):
        assert decode_entities(raw) == expected

    def test_unknown_entity_left_alone(self):
        assert decode_entities("&bogus;") == "&bogus;"

    def test_unterminated_ampersand(self):
        assert decode_entities("AT&T") == "AT&T"

    def test_text_entities_decoded_in_document(self):
        doc = parse_html("<p>fish &amp; chips</p>")
        assert doc.get_elements_by_tag("p")[0].text_content == "fish & chips"


class TestFragment:
    def test_fragment_returns_detached_nodes(self):
        nodes = parse_fragment("<li>a</li><li>b</li>")
        assert [n.tag for n in nodes] == ["li", "li"]
        assert all(n.parent is None for n in nodes)

    def test_fragment_with_text(self):
        nodes = parse_fragment("hello <b>world</b>")
        assert isinstance(nodes[0], Text)
        assert isinstance(nodes[1], Element)


class TestWhitespace:
    def test_interelement_whitespace_dropped(self):
        doc = parse_html("<div>\n  <p>x</p>\n</div>")
        div = doc.get_elements_by_tag("div")[0]
        assert all(not isinstance(c, Text) for c in div.children)

    def test_meaningful_text_kept(self):
        doc = parse_html("<p>  spaced  </p>")
        assert doc.get_elements_by_tag("p")[0].text_content == "  spaced  "


class _CountingStr(str):
    """A markup string that counts whole-document case folds, i.e.
    ``translate()`` calls (slices of it are plain ``str``, so token
    lowering is not counted)."""

    lowered = 0

    def translate(self, table):
        type(self).lowered += 1
        return super().translate(table)


class TestRawTextScan:
    def test_markup_is_lowered_once_per_parse(self):
        scripts = "".join("<script>s%d()</SCRIPT><p>p%d</p>" % (i, i)
                          for i in range(30))
        markup = _CountingStr(
            "<title>T</title><style>b {}</Style>%s"
            "<textarea>a <b> c</textarea>" % scripts)
        _CountingStr.lowered = 0
        doc = parser.parse_html_uncached(markup)
        assert _CountingStr.lowered == 1
        assert doc.get_elements_by_tag("title")[0].text_content == "T"
        assert [s.text_content for s in doc.get_elements_by_tag("script")] \
            == ["s%d()" % i for i in range(30)]
        assert [p.text_content for p in doc.get_elements_by_tag("p")] \
            == ["p%d" % i for i in range(30)]
        assert all(p.parent is doc.body for p in doc.get_elements_by_tag("p"))
        assert doc.get_elements_by_tag("style")[0].text_content == "b {}"
        assert doc.get_elements_by_tag("textarea")[0].text_content \
            == "a <b> c"

    def test_markup_without_raw_text_is_not_lowered(self):
        _CountingStr.lowered = 0
        parser.parse_html_uncached(_CountingStr("<div><p>x</p></div>"))
        assert _CountingStr.lowered == 0

    def test_lengthening_lowercase_before_a_script_keeps_its_end(self):
        # "İ".lower() is two code points: a str.lower() copy of the
        # markup would put every later index off by one per "İ".
        doc = parser.parse_html_uncached(
            "<p>İİ</p><script>a()</script><p>after</p>")
        assert doc.get_elements_by_tag("script")[0].text_content == "a()"
        assert [p.text_content for p in doc.get_elements_by_tag("p")] \
            == ["İİ", "after"]

    def test_only_ascii_letters_fold_in_an_end_tag(self):
        # U+017F (long s) matches "s" under a Unicode case-insensitive
        # match; it must not close a script.
        doc = parser.parse_html_uncached(
            "<script>a()</ſcript>b()</SCRIPT><p>after</p>")
        assert doc.get_elements_by_tag("script")[0].text_content \
            == "a()</ſcript>b()"
        assert [p.text_content for p in doc.get_elements_by_tag("p")] \
            == ["after"]


# -- the per-markup template store --------------------------------------


def _shape(document):
    """Everything a load can observe of a parsed tree, node by node:
    types, field names, tags, attributes, data, parent links (as
    pre-order indexes), ownership, values and listeners, plus the
    document's url and its four generation counters."""
    rows = [(document.url, document.generation,
             document.structure_generation, document.attribute_generation,
             document.text_generation, sorted(document._listened_types),
             bool(document._listeners))]
    index = {id(document): 0}
    pending = [document]
    while pending:
        node = pending.pop()
        for child in node.children:
            assert child.parent is node
            index[id(child)] = len(index)
            if isinstance(child, Element):
                detail = (child.tag, dict(child.attributes), child._value)
            else:
                detail = (child.data,)
            rows.append((type(child).__name__, sorted(vars(child)), detail,
                         index[id(node)],
                         child.owner_document is document,
                         bool(child._listeners)))
        pending.extend(reversed(node.children))
    return rows


def _oracle(markup, url):
    with perf.fast_path(False):
        return parse_html(markup, url=url)


_ATTRS = st.lists(st.tuples(
    st.sampled_from(["id", "class", "title", "value", "data-x", "disabled",
                     "ID"]),
    st.sampled_from(['="a"', "='b c'", "=d", "", '="&amp;&lt;&#65;"',
                     '="x &bogus; y"'])), max_size=3).map(
    lambda pairs: "".join(" %s%s" % pair for pair in pairs))

_TAGS = st.sampled_from([
    "div", "span", "p", "ul", "li", "table", "tr", "td", "th", "select",
    "option", "b", "pre", "br", "img", "input", "hr", "script", "style",
    "textarea", "title", "html", "head", "body", "DIV", "Script"])

_PIECES = st.one_of(
    st.builds(lambda tag, attrs, close: "<%s%s%s>" % (tag, attrs, close),
              _TAGS, _ATTRS, st.sampled_from(["", "/"])),
    st.builds("</{}>".format, _TAGS),
    st.sampled_from(["text", "  ", "\n", "a &amp; b", "&lt;p&gt;", "&#x41;",
                     "AT&T", "1 < 2", "<", "&nbsp;", "<!-- c -->",
                     "<!DOCTYPE html>", "</bogus>", "<!-- open"]),
    st.text(alphabet="ab <>&;/=\"'", max_size=6),
)

_MARKUP = st.lists(_PIECES, max_size=30).map("".join)


@given(_MARKUP, st.sampled_from(["", "http://a/", "http://b/x"]))
@settings(max_examples=150, deadline=None)
def test_property_memoized_parse_equals_uncached_parse(markup, url):
    perf.clear_caches()
    expected = _shape(_oracle(markup, url))
    hits, misses = perf.stats.counter("dom.parse")
    # The first parse stores the template and clones it, the next two
    # are hits: each must read as a fresh parse of the markup.
    for _ in range(3):
        assert _shape(parse_html(markup, url=url)) == expected
    assert perf.stats.counter("dom.parse") == (hits + 2, misses + 1)


def _layout_rows(engine):
    """An engine's boxes in its order, each element named by its
    document-order position: comparable across two trees."""
    elements = [node for node in engine.document.descendants()
                if isinstance(node, Element)]
    position = {id(element): index for index, element in enumerate(elements)}
    rows = []
    for element in engine._order:
        box = engine.box_for(element)
        rect = box.rect
        rows.append((position[id(element)],
                     (rect.x, rect.y, rect.width, rect.height), box.depth))
    return rows


@given(_MARKUP)
@settings(max_examples=150, deadline=None)
def test_property_clone_carries_the_layout_and_index_of_a_walk(markup):
    perf.clear_caches()
    parse_html(markup)
    clone = parse_html(markup)
    layout = LayoutEngine(clone).relayout()
    # The boxes were copied from the template, not walked.
    assert parser._TEMPLATES[markup].layouts
    expected = LayoutEngine(parse_html_uncached(markup)).relayout()
    assert _layout_rows(layout) == _layout_rows(expected)
    for element in layout._order:
        assert layout.box_for(element).element is element
        assert layout.box_for(element).depth \
            == sum(1 for _ in element.ancestors())

    hits = perf.stats.counter("dom.index")[0]
    seeded = clone.query_indexes()
    assert perf.stats.counter("dom.index")[0] == hits + 1
    clone._indexes = None
    walked = clone.query_indexes()
    assert walked is not seeded
    assert seeded.generation == walked.generation
    assert seeded.elements == walked.elements
    assert seeded.order == walked.order
    assert seeded.by_tag == walked.by_tag


class TestTemplateStore:
    PAGE = ("<html><head><title>Inbox</title><script>x()</script></head>"
            "<body><div id='list'><p class='row'>one</p><p>two</p>"
            "<input id='q' value='v'><textarea id='t'>hi</textarea>"
            "</div></body></html>")

    def setup_method(self):
        perf.clear_caches()

    def _counter(self):
        return perf.stats.counter("dom.parse")

    def test_repeated_markup_hits_and_returns_new_trees(self):
        hits, misses = self._counter()
        documents = [parse_html(self.PAGE, url="http://m/%d" % i)
                     for i in range(4)]
        assert self._counter() == (hits + 3, misses + 1)
        assert len({id(doc) for doc in documents}) == 4
        assert len({id(doc.body) for doc in documents}) == 4
        assert [doc.url for doc in documents] \
            == ["http://m/%d" % i for i in range(4)]

    def test_mutating_a_returned_document_leaves_the_next_parse_pristine(self):
        expected = _shape(_oracle(self.PAGE, "http://m/"))
        for _ in range(3):
            doc = parse_html(self.PAGE, url="http://m/")
            doc.get_element_by_id("list").set_attribute("class", "dirty")
            doc.get_elements_by_tag("p")[1].append_text(" and more")
            doc.get_elements_by_tag("p")[0].children[0].data = "changed"
            doc.get_element_by_id("q").value = "typed"
            doc.get_element_by_id("t").append_text("!")
            doc.get_element_by_id("list").remove_child(
                doc.get_elements_by_tag("p")[0])
            doc.body.add_event_listener("click", lambda event: None)
            doc.url = "http://elsewhere/"
        assert _shape(parse_html(self.PAGE, url="http://m/")) == expected

    def test_snapshots_never_evict_a_page_template(self):
        page = parse_html(self.PAGE, url="http://m/")
        for i in range(500):
            page.get_elements_by_tag("p")[1].append_text(str(i))
            snapshot = PageSnapshot.redacted(page, ["//div[@id='list']"])
            assert 'data-redacted="true"' in snapshot.html
        hits, _ = self._counter()
        parse_html(self.PAGE)
        assert self._counter()[0] == hits + 1
        assert list(parser._TEMPLATES) == [self.PAGE]

    def test_store_stays_within_its_limit(self):
        for i in range(parser._TEMPLATES_MAX + 10):
            parse_html("<p>page %d</p>" % i)
        assert len(parser._TEMPLATES) == parser._TEMPLATES_MAX

    def test_set_fast_path_empties_the_store(self):
        parse_html(self.PAGE)
        assert parser._TEMPLATES
        try:
            perf.set_fast_path(False)
            assert not parser._TEMPLATES
            hits, misses = self._counter()
            parse_html(self.PAGE)
            assert self._counter() == (hits, misses)
        finally:
            perf.set_fast_path(True)
        hits, misses = self._counter()
        parse_html(self.PAGE)
        assert self._counter() == (hits, misses + 1)

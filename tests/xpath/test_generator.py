"""XPath generation for DOM elements (the recorder's locator strategy)."""

from hypothesis import given, settings, strategies as st

from repro import perf
from repro.dom.parser import parse_html
from repro.xpath.evaluator import evaluate
from repro.xpath.generator import absolute_xpath, xpath_for_element


def make_doc():
    return parse_html("""
    <html><body>
      <div><span id="start">Go</span></div>
      <table><tr>
        <td><div id="content">Hello</div></td>
        <td><div>Save</div></td>
      </tr></table>
      <form>
        <input type="text" name="q">
        <input type="submit" value="Go">
      </form>
      <ul><li>a</li><li>b</li></ul>
      <p>no identifiers here</p>
    </body></html>
    """)


class TestPaperStyle:
    def test_id_with_parent_context(self):
        doc = make_doc()
        el = doc.get_element_by_id("content")
        assert str(xpath_for_element(el)) == '//td/div[@id="content"]'

    def test_text_predicate_like_save_button(self):
        doc = make_doc()
        save = [d for d in doc.get_elements_by_tag("div")
                if d.text_content == "Save"][0]
        assert str(xpath_for_element(save)) == '//td/div[text()="Save"]'

    def test_span_with_id(self):
        doc = make_doc()
        el = doc.get_element_by_id("start")
        assert str(xpath_for_element(el)) == '//div/span[@id="start"]'

    def test_name_attribute_used(self):
        doc = make_doc()
        el = [i for i in doc.get_elements_by_tag("input") if i.name == "q"][0]
        assert '@name="q"' in str(xpath_for_element(el))

    def test_id_and_name_both_recorded(self):
        doc = parse_html('<form><input id="i9" name="login"></form>')
        el = doc.get_elements_by_tag("input")[0]
        expression = str(xpath_for_element(el))
        assert '@id="i9"' in expression
        assert '@name="login"' in expression

    def test_short_unique_text_is_used(self):
        doc = make_doc()
        second_li = doc.get_elements_by_tag("li")[1]
        assert str(xpath_for_element(second_li)) == '//ul/li[text()="b"]'

    def test_positional_fallback_when_text_is_ambiguous(self):
        doc = parse_html("<ul><li>same</li><li>same</li></ul>")
        second_li = doc.get_elements_by_tag("li")[1]
        expression = str(xpath_for_element(second_li))
        assert "[2]" in expression

    def test_anonymous_paragraph_gets_text_or_absolute(self):
        doc = make_doc()
        p = doc.get_elements_by_tag("p")[0]
        expression = str(xpath_for_element(p))
        matches = evaluate(expression, doc)
        assert matches == [p]


class TestResolution:
    def test_generated_xpath_always_resolves_uniquely(self):
        doc = make_doc()
        for element in doc.all_elements():
            expression = xpath_for_element(element)
            matches = evaluate(expression, doc)
            assert matches == [element], (
                "%s resolved to %r" % (expression, matches))

    def test_duplicate_ids_fall_back_to_position(self):
        doc = parse_html(
            '<div><p id="dup">a</p></div><div><p id="dup">b</p></div>')
        second = doc.get_elements_by_tag("p")[1]
        expression = xpath_for_element(second)
        assert evaluate(expression, doc) == [second]


class TestAbsolute:
    def test_absolute_path_resolves(self):
        doc = make_doc()
        li = doc.get_elements_by_tag("li")[0]
        assert evaluate(absolute_xpath(li), doc) == [li]

    def test_no_position_for_only_children(self):
        doc = parse_html("<div><span>x</span></div>")
        span = doc.get_elements_by_tag("span")[0]
        assert "[" not in str(absolute_xpath(span))


# Random DOM generation for the uniqueness property.
_tags = st.sampled_from(["div", "span", "p", "td", "li", "section"])


@st.composite
def random_dom(draw, max_children=3, depth=3):
    def build(current_depth):
        tag = draw(_tags)
        attrs = {}
        if draw(st.booleans()):
            attrs["id"] = "id%d" % draw(st.integers(0, 5))
        parts = ["<%s%s>" % (tag, "".join(' %s="%s"' % kv for kv in attrs.items()))]
        if current_depth < depth:
            for _ in range(draw(st.integers(0, max_children))):
                parts.append(build(current_depth + 1))
        if draw(st.booleans()):
            parts.append("t%d" % draw(st.integers(0, 3)))
        parts.append("</%s>" % tag)
        return "".join(parts)
    return "<html><body>%s</body></html>" % build(0)


@given(random_dom())
@settings(max_examples=40, deadline=None)
def test_property_generated_xpaths_resolve_to_their_element(html):
    doc = parse_html(html)
    for element in doc.all_elements():
        expression = xpath_for_element(element)
        assert evaluate(expression, doc) == [element]


def generate_counter():
    """(hits, misses) of the generator's per-element memo."""
    return perf.stats.counter("xpath.generate")


class TestMemo:
    """A memo entry lives exactly as long as the generations it observed."""

    def test_duplicate_id_after_a_hit_falls_back(self):
        doc = make_doc()
        content = doc.get_element_by_id("content")
        assert str(xpath_for_element(content)) == '//td/div[@id="content"]'
        hits, misses = generate_counter()
        assert str(xpath_for_element(content)) == '//td/div[@id="content"]'
        assert generate_counter() == (hits + 1, misses)
        save_cell = doc.get_elements_by_tag("td")[1]
        save_cell.append_child(doc.create_element("div", {"id": "content"}))
        path = xpath_for_element(content)
        assert str(path) == '//td/div[text()="Hello"]'
        assert evaluate(path, doc) == [content]

    def test_sibling_text_edit_invalidates_a_text_locator(self):
        doc = parse_html("<ul><li>a</li><li>b</li></ul>")
        first, second = doc.get_elements_by_tag("li")
        assert str(xpath_for_element(second)) == '//ul/li[text()="b"]'
        first.text_content = "b"
        path = xpath_for_element(second)
        assert str(path) == "/html/body/ul/li[2]"
        assert evaluate(path, doc) == [second]

    def test_typing_into_an_id_target_keeps_hitting(self):
        doc = parse_html('<table><tr><td><div id="content" '
                         'contenteditable="true">Hello</div></td></tr></table>')
        content = doc.get_element_by_id("content")
        xpath_for_element(content)
        hits, misses = generate_counter()
        for key in "world":
            content.append_text(key)
            assert str(xpath_for_element(content)) == '//td/div[@id="content"]'
        assert generate_counter() == (hits + 5, misses)

    def test_foreign_document_and_fast_path_off_are_not_memoized(self):
        doc = make_doc()
        content = doc.get_element_by_id("content")
        before = generate_counter()
        xpath_for_element(content, make_doc())
        with perf.fast_path(False):
            assert str(xpath_for_element(content)) == '//td/div[@id="content"]'
        assert generate_counter() == before


_MUTATIONS = st.lists(st.tuples(
    st.sampled_from(["id", "name", "class", "unset", "insert", "remove",
                     "text", "type"]),
    st.integers(0, 40),
    st.sampled_from(["id0", "id1", "id5", "t0", "t3"]),
), max_size=10)


def _mutate(doc, detached, kind, index, value):
    elements = doc.all_elements()
    target = elements[index % len(elements)]
    if kind in ("id", "name", "class"):
        target.set_attribute(kind, value)
    elif kind == "unset":
        target.remove_attribute(("id", "name", "class")[index % 3])
    elif kind == "insert":
        # Values double as ids and texts the random DOM already uses, so
        # inserts make duplicate ids and ambiguous text predicates.
        new = doc.create_element(("div", "span", "li")[index % 3],
                                 {"id": value})
        new.append_child(doc.create_text_node(value))
        target.append_child(new)
    elif kind == "remove":
        if target.tag not in ("html", "body"):
            target.remove()
            detached.append(target)
    elif kind == "text":
        target.text_content = value
    else:
        target.append_text(value[-1])


@given(random_dom(), _MUTATIONS)
@settings(max_examples=60, deadline=None)
def test_property_memo_equals_the_uncached_generator(html, mutations):
    doc = parse_html(html)
    detached = []
    for mutation in [None] + mutations:
        if mutation is not None:
            _mutate(doc, detached, *mutation)
        live = doc.all_elements()
        memoized = [xpath_for_element(element) for element in live + detached]
        with perf.fast_path(False):
            uncached = [xpath_for_element(element)
                        for element in live + detached]
        assert [str(path) for path in memoized] == [str(path) for path in uncached]
        for element, path in zip(live, memoized):
            assert evaluate(path, doc) == [element]

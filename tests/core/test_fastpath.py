"""Replay fast path: cache invalidation, on/off equivalence, coalescing.

The caches (compiled XPath, DOM indexes, relaxation memo, lazy layout)
are only allowed to be fast — never to change an answer. These tests
mutate documents between queries and require every cached layer to
reflect the new tree, and replay whole sessions with the fast path on
and off requiring identical outcomes.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import chaos, perf
from repro.apps.dashboard import DashboardApplication
from repro.apps.docs import DocsApplication
from repro.apps.framework import make_browser
from repro.apps.gmail import GmailApplication
from repro.apps.portal import PortalApplication
from repro.apps.sites import SitesApplication
from repro.chaos import FaultProfile
from repro.core.recorder import WarrRecorder
from repro.core.relaxation import RelaxationEngine
from repro.core.replayer import TimingMode, WarrReplayer
from repro.core.webdriver import WebDriver
from repro.dom.node import VOID_ELEMENTS
from repro.dom.parser import parse_html
from repro.dom.serialize import serialize
from repro.layout.engine import LayoutEngine
from repro.xpath.evaluator import evaluate
from repro.workloads.sessions import (
    DOCS_URL,
    GMAIL_URL,
    PORTAL_URL,
    SITES_URL,
    dashboard_session,
    docs_edit_session,
    gmail_compose_session,
    portal_authenticate_session,
    sites_edit_session,
)
from repro.util.errors import DriverError, ElementNotFoundError
from repro.xpath.parser import parse_xpath
from tests.browser.helpers import build_browser, url

HTML = """
<html><body>
  <div id="main">
    <ul id="list">
      <li id="one">one</li>
      <li id="two">two</li>
    </ul>
    <span id="status">ready</span>
  </div>
</body></html>
"""


@pytest.fixture
def fast_on():
    with perf.fast_path(True):
        yield


@pytest.fixture
def doc(fast_on):
    return parse_html(HTML)


def resolve_hits():
    return perf.stats.counter("relax.resolve")[0]


class TestIndexInvalidation:
    """XPath answers must track the live tree, not the warmed index."""

    def test_appended_element_appears(self, doc):
        assert len(evaluate("//li", doc)) == 2  # warm the indexes
        ul = doc.get_element_by_id("list")
        ul.append_child(doc.create_element("li", {"id": "three"}))
        matches = evaluate("//li", doc)
        assert [li.id for li in matches] == ["one", "two", "three"]

    def test_removed_element_disappears(self, doc):
        assert len(evaluate("//li", doc)) == 2
        ul = doc.get_element_by_id("list")
        removed = doc.get_element_by_id("one")
        ul.remove_child(removed)
        matches = evaluate("//li", doc)
        assert [li.id for li in matches] == ["two"]
        assert removed not in matches

    def test_attribute_change_updates_predicates(self, doc):
        assert evaluate('//li[@data-state="done"]', doc) == []
        doc.get_element_by_id("two").set_attribute("data-state", "done")
        matches = evaluate('//li[@data-state="done"]', doc)
        assert [li.id for li in matches] == ["two"]

    def test_tag_index_tracks_mutations(self, doc):
        assert len(doc.get_elements_by_tag("li")) == 2
        ul = doc.get_element_by_id("list")
        ul.append_child(doc.create_element("li", {"id": "three"}))
        assert len(doc.get_elements_by_tag("li")) == 3
        ul.remove_child(doc.get_element_by_id("one"))
        assert [li.id for li in doc.get_elements_by_tag("li")] \
            == ["two", "three"]

    def test_all_elements_tracks_mutations(self, doc):
        before = len(doc.all_elements())
        doc.body.append_child(doc.create_element("p"))
        assert len(doc.all_elements()) == before + 1

    def test_document_order_after_prepend(self, doc):
        assert len(evaluate("//li", doc)) == 2
        ul = doc.get_element_by_id("list")
        first = doc.create_element("li", {"id": "zero"})
        ul.insert_before(first, doc.get_element_by_id("one"))
        assert [li.id for li in evaluate("//li", doc)] \
            == ["zero", "one", "two"]


class TestLayoutInvalidation:
    """Dirty-tracked layout: stale boxes are never served, and bursts
    of invalidations coalesce into a single relayout."""

    def test_boxes_reflect_mutation(self, doc):
        engine = LayoutEngine(doc)
        assert engine.box_for(doc.get_element_by_id("status")) is not None
        added = doc.create_element("div", {"id": "new"})
        added.append_child(doc.create_text_node("fresh"))
        doc.body.append_child(added)
        engine.invalidate()
        assert engine.box_for(added) is not None

    def test_removed_element_loses_box(self, doc):
        engine = LayoutEngine(doc)
        status = doc.get_element_by_id("status")
        assert engine.box_for(status) is not None
        status.remove()
        engine.invalidate()
        assert engine.box_for(status) is None

    def test_invalidation_bursts_coalesce(self, doc, monkeypatch):
        engine = LayoutEngine(doc)
        relayouts = []
        original = engine.relayout
        monkeypatch.setattr(
            engine, "relayout", lambda: (relayouts.append(1), original())[1]
        )
        for _ in range(5):
            engine.invalidate()
        assert relayouts == []  # nothing recomputed yet
        engine.box_for(doc.body)
        engine.hit_test(10, 10)
        assert len(relayouts) == 1

    def test_uncached_invalidate_is_eager(self, doc, monkeypatch):
        engine = LayoutEngine(doc)
        relayouts = []
        original = engine.relayout
        monkeypatch.setattr(
            engine, "relayout", lambda: (relayouts.append(1), original())[1]
        )
        with perf.fast_path(False):
            engine.invalidate()
            engine.invalidate()
        assert len(relayouts) == 2

    def _counting(self, engine, monkeypatch):
        relayouts = []
        original = engine.relayout
        monkeypatch.setattr(
            engine, "relayout", lambda: (relayouts.append(1), original())[1]
        )
        return relayouts

    def test_unchanged_document_is_not_laid_out_again(self, doc, monkeypatch):
        doc.body.append_child(doc.create_element("input", {"id": "q"}))
        engine = LayoutEngine(doc).relayout()
        relayouts = self._counting(engine, monkeypatch)
        # Typing sets the value property, which no layout input reads.
        doc.get_element_by_id("q").value = "typed"
        engine.invalidate()
        hits, misses = perf.stats.counter("layout")
        engine.hit_test(10, 10)
        assert relayouts == []
        assert perf.stats.counter("layout") == (hits + 1, misses)
        doc.get_element_by_id("status").append_text("!")
        engine.invalidate()
        engine.hit_test(10, 10)
        assert relayouts == [1]
        assert perf.stats.counter("layout") == (hits + 1, misses + 1)

    def test_layout_chaos_lays_an_unchanged_document_out_again(
            self, doc, monkeypatch):
        profile = FaultProfile(layout_jitter_rate=1.0,
                               layout_jitter_px=(4.0, 4.0))
        engine = LayoutEngine(doc).relayout()
        relayouts = self._counting(engine, monkeypatch)
        with chaos.active(profile, seed=1):
            engine.invalidate()
            engine.box_for(doc.body)
            engine.invalidate()
            engine.box_for(doc.body)
        assert relayouts == [1, 1]
        # Jittered boxes are not a function of the document: leaving
        # chaos lays the page out again too.
        engine.invalidate()
        engine.box_for(doc.body)
        assert relayouts == [1, 1, 1]

    def test_stale_layout_hit_tests_current_depths(self, fast_on):
        doc = parse_html('<div id="outer">x <span id="inner">y</span></div>')
        engine = LayoutEngine(doc).relayout()
        inner = doc.get_element_by_id("inner")
        x, y = engine.box_for(inner).rect.center
        assert engine.hit_test(x, y) is inner
        # Move the span up to the div's depth without invalidating: the
        # boxes are stale, and at equal depth the later box (the div,
        # laid out after its children) wins, as an ancestor walk says.
        doc.body.append_child(inner)
        assert engine.hit_test(x, y) is doc.get_element_by_id("outer")


LAYOUT_PAGE = """<html><body>
<div id="top"><span id="label">label</span><input id="q" type="text">
<button id="go">Go</button></div>
<table id="grid"><tr id="row"><td id="c1">one</td><td id="c2"><b id="b">two</b>
</td></tr></table>
<p id="para">some text <a id="link" href="#">a link</a></p>
<iframe id="frame"><p id="inside">inside</p></iframe>
</body></html>"""

_LAYOUT_IDS = ["top", "label", "q", "go", "grid", "row", "c1", "c2", "b",
               "para", "link", "frame", "inside"]
_CONTAINER_IDS = ["top", "label", "go", "c1", "c2", "b", "para", "link",
                  "frame", "inside"]
_LAYOUT_ATTRS = {
    "class": ["x", ""],
    "type": ["checkbox", "submit", "text"],
    "value": ["Send it", ""],
    "data-offset-x": ["7", "-3"],
    "data-offset-y": ["5"],
}

_LAYOUT_STEPS = st.one_of(
    st.tuples(st.just("value"), st.sampled_from(_LAYOUT_IDS),
              st.sampled_from(["", "typed"])),
    st.tuples(st.just("attr"), st.sampled_from(_LAYOUT_IDS),
              st.sampled_from(sorted(_LAYOUT_ATTRS)), st.integers(0, 2)),
    st.tuples(st.just("text"), st.sampled_from(_CONTAINER_IDS),
              st.sampled_from(["a", "longer words"])),
    st.tuples(st.just("append"), st.sampled_from(_CONTAINER_IDS),
              st.sampled_from(["span", "div", "tr"])),
    st.tuples(st.just("remove"), st.sampled_from(_LAYOUT_IDS)),
    st.just(("invalidate",)),
    st.tuples(st.just("hit"), st.integers(0, 500), st.integers(0, 200)),
    st.tuples(st.just("box"), st.sampled_from(_LAYOUT_IDS)),
)


def _query(engine, step):
    """Answer a "hit" or "box" step: an element, or a box's fields."""
    if step[0] == "hit":
        return engine.hit_test(step[1], step[2])
    box = engine.box_for(engine.document.get_element_by_id(step[1]))
    return None if box is None else (box.element, box.rect, box.depth)


def _mutate(doc, elements, step):
    kind = step[0]
    element = elements[step[1]]
    if kind == "value":
        element.value = step[2]
    elif kind == "attr":
        values = _LAYOUT_ATTRS[step[2]]
        element.set_attribute(step[2], values[step[3] % len(values)])
    elif kind == "text":
        element.append_text(step[2])
    elif kind == "append":
        added = doc.create_element(step[2])
        added.append_child(doc.create_text_node("new"))
        element.append_child(added)
    elif element.parent is not None:
        element.remove()


def _boxes(engine):
    return [(element, engine._boxes[id(element)].rect,
             engine._boxes[id(element)].depth) for element in engine._order]


class TestLayoutSkipOracle:
    """An invalidated layout, kept because the generation has not moved
    or recomputed, equals a full layout of the current DOM."""

    @given(steps=st.lists(_LAYOUT_STEPS, max_size=25))
    @settings(max_examples=120, deadline=None)
    def test_invalidated_layout_equals_a_fresh_full_layout(self, steps):
        with perf.fast_path(True):
            parse_html(LAYOUT_PAGE)
            doc = parse_html(LAYOUT_PAGE)
            engine = LayoutEngine(doc).relayout()
            elements = {name: doc.get_element_by_id(name)
                        for name in _LAYOUT_IDS}
            for step in steps:
                if step[0] == "invalidate":
                    engine.invalidate()
                    continue
                if step[0] not in ("hit", "box"):
                    _mutate(doc, elements, step)
                    continue
                dirty = engine._dirty
                answer = _query(engine, step)
                if not dirty:
                    continue  # stale by design: nothing invalidated it
                with perf.fast_path(False):
                    fresh = LayoutEngine(doc).relayout()
                assert answer == _query(fresh, step)
                assert _boxes(engine) == _boxes(fresh)


class TestRelaxationMemo:
    """The memoized resolver must never serve a detached or stale
    element, and must keep serving hits across unobserved mutations."""

    def test_stable_dom_is_memoized(self, doc):
        engine = RelaxationEngine()
        first, _ = engine.resolve('//li[@id="one"]', doc)
        hits = resolve_hits()
        second, description = engine.resolve('//li[@id="one"]', doc)
        assert second is first
        assert description == "original"
        assert resolve_hits() == hits + 1

    def test_never_returns_detached_element(self, doc):
        engine = RelaxationEngine()
        target, _ = engine.resolve('//span[@id="status"]', doc)
        target.remove()
        doc.body.append_child(
            doc.create_element("span", {"id": "status"})
        )
        element, _ = engine.resolve('//span[@id="status"]', doc)
        assert element is not target
        assert element.root() is doc

    def test_attribute_move_is_observed(self, doc):
        engine = RelaxationEngine()
        one = doc.get_element_by_id("one")
        two = doc.get_element_by_id("two")
        one.set_attribute("data-k", "v")
        found, _ = engine.resolve('//li[@data-k="v"]', doc)
        assert found is one
        # Move the attribute: the memo observes attribute mutations for
        # attribute locators, so the answer must follow.
        one.remove_attribute("data-k")
        two.set_attribute("data-k", "v")
        found, _ = engine.resolve('//li[@data-k="v"]', doc)
        assert found is two

    def test_text_mutation_keeps_id_locator_memoized(self, doc):
        engine = RelaxationEngine()
        engine.resolve('//li[@id="one"]', doc)
        hits = resolve_hits()
        # A pure text edit elsewhere must not evict an id locator.
        doc.get_element_by_id("status").text_content = "typing..."
        element, _ = engine.resolve('//li[@id="one"]', doc)
        assert element is doc.get_element_by_id("one")
        assert resolve_hits() == hits + 1

    def test_memo_hit_reads_the_mask_cached_on_the_compiled_path(self, doc):
        expression = '//li[text()="two"]'
        engine = RelaxationEngine()
        engine.resolve(expression, doc)
        path = parse_xpath(expression)
        assert path._observed_mask == (False, True)
        compiles = perf.stats.counter("xpath.compile")
        hits = resolve_hits()
        engine.resolve(expression, doc)
        # The memo entry keeps the mask read off the compiled path at
        # the miss, so a hit compiles nothing, not even a cache lookup.
        assert resolve_hits() == hits + 1
        assert perf.stats.counter("xpath.compile") == compiles
        assert parse_xpath(expression) is path


#: A page with an id-churning target, text and attribute locators, a
#: src iframe (its own document) and a src-less one (a scoped subtree
#: of this document).
MEMO_HTML = """<html><head><title>Memo</title></head><body>
<div id="main"><span id="start" name="go">start</span>
  <p id="inline">main</p><input name="who"></div>
<div><span>plain</span><span>other</span></div>
<iframe id="child" src="/memo-inner"></iframe>
<iframe id="bare"><p id="inline">bare</p><span name="go">x</span></iframe>
</body></html>"""

MEMO_INNER_HTML = """<html><head><title>Inner</title></head><body>
<p id="inline">inner</p><span name="go">inner start</span>
</body></html>"""

MEMO_LOCATORS = [
    '//span[@id="start"]',
    '//p[@id="inline"]',
    '//span[@name="go"]',
    '//div/span[2]',
    '//span[text()="plain"]',
    '//body/div/input[@name="who"]',
]


def _memo_driver():
    browser = build_browser(extra_routes={
        "/memo": lambda request: MEMO_HTML,
        "/memo-inner": lambda request: MEMO_INNER_HTML,
    })
    driver = WebDriver(browser)
    driver.get(url("/memo"))
    return driver


def _locate(driver, xpath):
    """(client, element, strategy, detail) of one locate, or the error
    class when nothing matches."""
    try:
        location = driver.locator.resolve(driver, xpath)
    except ElementNotFoundError as error:
        return type(error)
    return (location.client, location.element, location.strategy,
            location.detail)


def _locate_checked(driver, xpath):
    """Locate with the memo, against the uncached chain, then again.

    The memoized answer must equal the fast-path-off answer, and the
    repeat (nothing changed in between) must be a memo hit.
    """
    fast = _locate(driver, xpath)
    with perf.fast_path(False):
        slow = _locate(driver, xpath)
    assert fast == slow, xpath
    hits = resolve_hits()
    again = _locate(driver, xpath)
    assert again == fast, xpath
    if isinstance(fast, tuple):
        assert resolve_hits() == hits + 1, xpath
    return fast


def _mutation_target(driver, index, located):
    """An element chosen by ``index``: negative picks one of the
    ``located`` elements, others any element of any frame's document."""
    elements = [element for engine
                in driver.tab.renderer.engine.all_engines()
                for element in engine.document.all_elements()
                if element.tag not in ("html", "head", "body", "iframe")]
    if index < 0 and located:
        return located[index % len(located)]
    return elements[index % len(elements)]


def _apply(driver, step, located):
    kind, index, value = step
    if kind == "switch":
        try:
            if value == "default":
                driver.switch_to_default()
            else:
                driver.switch_to_frame('//iframe[@id="%s"]' % value)
        except (DriverError, ElementNotFoundError):
            pass  # not visible from the active frame
        return
    if kind == "navigate":
        driver.get(url(value))
        return
    target = _mutation_target(driver, index, located)
    document = target.owner_document
    if kind == "attribute":
        name, _, text = value.partition("=")
        target.set_attribute(name, text)
    elif kind == "text":
        if target.tag not in VOID_ELEMENTS:
            target.text_content = value
    elif kind == "insert":
        new = document.create_element(value, {"name": "go"})
        target.parent.insert_before(new, target)
    elif kind == "move":
        target.remove()
        destination = _mutation_target(driver, abs(index) + 1, located)
        if not target.contains(destination) and destination.parent:
            destination.parent.append_child(target)
    else:
        target.remove()


#: Half the mutations hit an element the last locates returned.
_TARGETS = st.one_of(st.integers(-3, -1), st.integers(0, 40))

_MEMO_STEPS = st.one_of(
    st.tuples(st.just("attribute"), _TARGETS,
              st.sampled_from(["id=start", "id=w7_start", "id=inline",
                               "name=go", "name=stop", "data-k=v"])),
    st.tuples(st.just("text"), _TARGETS,
              st.sampled_from(["plain", "start", "typing"])),
    st.tuples(st.just("insert"), _TARGETS,
              st.sampled_from(["span", "p", "div"])),
    st.tuples(st.sampled_from(["move", "detach"]), _TARGETS,
              st.none()),
    st.tuples(st.just("switch"), st.none(),
              st.sampled_from(["child", "bare", "default"])),
    st.tuples(st.just("navigate"), st.none(),
              st.sampled_from(["/memo", "/frame"])),
)


class TestLocateMemo:
    """The locate stage's memo hit equals the uncached chain's answer."""

    @given(steps=st.lists(_MEMO_STEPS, max_size=12),
           locators=st.lists(st.sampled_from(MEMO_LOCATORS), min_size=1,
                             max_size=3, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_memo_hits_equal_the_fast_path_off_answer(self, steps,
                                                      locators):
        with perf.fast_path(True):
            driver = _memo_driver()
            located = []
            for step in [None] + steps:
                if step is not None:
                    _apply(driver, step, located)
                located = []
                for xpath in locators:
                    found = _locate_checked(driver, xpath)
                    if isinstance(found, tuple):
                        located.append(found[1])

    def test_memo_never_serves_a_previous_document(self, fast_on):
        driver = _memo_driver()
        xpath = '//span[@id="start"]'
        first = driver.find_element(xpath)
        assert driver.find_element(xpath) is first
        hits = resolve_hits()
        # The same page again: a new document, most likely with the
        # same generation counters as the one the entry was made on.
        driver.get(url("/memo"))
        second = driver.find_element(xpath)
        assert second is not first
        assert second.owner_document is driver.tab.document
        assert resolve_hits() == hits

    def test_memo_never_serves_a_previous_frame(self, fast_on):
        driver = _memo_driver()
        xpath = '//p[@id="inline"]'
        main = driver.find_element(xpath)
        assert main.text_content == "main"
        hits = resolve_hits()
        driver.switch_to_frame('//iframe[@id="child"]')
        inner = driver.find_element(xpath)
        assert inner.text_content == "inner"
        assert inner.owner_document is not main.owner_document
        driver.switch_to_default()
        driver.switch_to_frame('//iframe[@id="bare"]')
        bare = driver.find_element(xpath)
        assert bare.text_content == "bare"
        driver.switch_to_default()
        assert driver.find_element(xpath) is main
        # Every frame switch changed the context, so nothing since the
        # first locate was served from the memo.
        assert resolve_hits() == hits


EXPRESSIONS = [
    "//li",
    '//li[@id="two"]',
    "//ul/li[2]",
    "//div//span",
    "/html/body/div",
    "//*",
]


class TestOnOffEquivalence:
    """The fast path must change throughput only, never answers."""

    def test_xpath_results_identical(self):
        doc = parse_html(HTML)
        with perf.fast_path(False):
            slow = [evaluate(expr, doc) for expr in EXPRESSIONS]
        with perf.fast_path(True):
            fast = [evaluate(expr, doc) for expr in EXPRESSIONS]
        for expr, a, b in zip(EXPRESSIONS, slow, fast):
            assert a == b, expr

    def test_xpath_results_identical_after_mutation(self):
        doc = parse_html(HTML)
        with perf.fast_path(True):
            evaluate("//li", doc)  # warm
        doc.get_element_by_id("list").append_child(doc.create_element("li"))
        with perf.fast_path(True):
            fast = [evaluate(expr, doc) for expr in EXPRESSIONS]
        with perf.fast_path(False):
            slow = [evaluate(expr, doc) for expr in EXPRESSIONS]
        for expr, a, b in zip(EXPRESSIONS, slow, fast):
            assert a == b, expr

    def test_hit_test_targets_identical(self):
        doc = parse_html(HTML)
        points = [(x, y) for x in range(0, 400, 40) for y in range(0, 120, 12)]
        with perf.fast_path(False):
            engine = LayoutEngine(doc).relayout()
            slow = [engine.hit_test(x, y) for x, y in points]
        with perf.fast_path(True):
            engine = LayoutEngine(doc).relayout()
            fast = [engine.hit_test(x, y) for x, y in points]
        assert slow == fast

    def test_replay_reports_identical(self, sites_trace):
        def replay(fast):
            with perf.fast_path(fast):
                browser, _ = make_browser(
                    [SitesApplication], developer_mode=True)
                return WarrReplayer(
                    browser, timing=TimingMode.no_wait()).replay(sites_trace)

        uncached = replay(False)
        cached = replay(True)
        assert [r.status for r in cached.results] \
            == [r.status for r in uncached.results]
        assert cached.final_url == uncached.final_url
        assert cached.replayed_count == uncached.replayed_count
        assert cached.summary().splitlines()[0] \
            == uncached.summary().splitlines()[0]


def _record(apps, session, start_url):
    browser, _ = make_browser(apps)
    recorder = WarrRecorder().attach(browser)
    recorder.begin(start_url)
    session(browser)
    recorder.detach()
    return recorder.trace


def _server_state(apps):
    """Every app's plain-data attributes (saved pages, sent mail, ...)."""
    return [{name: value for name, value in sorted(vars(app).items())
             if isinstance(value, (bool, int, str, list, dict, tuple))}
            for app in apps]


#: ``(apps, session, start URL, URL rendered before replay)``: Sites'
#: keystrokes, GMail under id churn, Docs' double clicks and drags,
#: Dashboard's iframes and ``switchframe`` commands, Portal's form post.
APP_SESSIONS = {
    "sites": ([SitesApplication], sites_edit_session,
              SITES_URL + "/edit/home", None),
    "gmail": ([GmailApplication], gmail_compose_session, GMAIL_URL + "/",
              GMAIL_URL + "/compose"),
    "docs": ([DocsApplication], docs_edit_session,
             DOCS_URL + "/sheet/budget", None),
    "dashboard": ([DashboardApplication], dashboard_session,
                  "http://dashboard.example.com/", None),
    "portal": ([PortalApplication], portal_authenticate_session,
               PORTAL_URL + "/", None),
}


class TestOnOffEquivalenceEveryApp:
    """Replays with the fast path on and off leave identical outcomes.

    Off, every key event is built and dispatched and every typing edit
    replaces the element's text; on, events nothing observes are not
    built and edits rewrite the Text node in place.
    """

    @pytest.mark.parametrize("name", sorted(APP_SESSIONS))
    def test_replay_outcomes_identical(self, name, monkeypatch):
        from repro.browser import webkit

        apps, session, start_url, churn_url = APP_SESSIONS[name]
        trace = _record(apps, session, start_url)
        dispatched = Counter()
        real_dispatch = webkit.dispatch_event

        def counting_dispatch(target, event, **kwargs):
            dispatched[event.type] += 1
            return real_dispatch(target, event, **kwargs)

        monkeypatch.setattr(webkit, "dispatch_event", counting_dispatch)

        def replay(fast):
            dispatched.clear()
            with perf.fast_path(fast):
                browser, app_objects = make_browser(apps,
                                                    developer_mode=True)
                if churn_url is not None:
                    browser.new_tab(churn_url)
                report = WarrReplayer(browser).replay(trace)
            frames = [serialize(engine.document) for engine
                      in browser.active_tab.renderer.engine.all_engines()]
            return {
                "statuses": [result.status for result in report.results],
                "final_url": report.final_url,
                "page_errors": [str(error) for error in report.page_errors],
                "state": _server_state(app_objects),
                "frames": frames,
            }, dict(dispatched)

        slow, slow_events = replay(False)
        fast, fast_events = replay(True)
        assert fast == slow
        assert len(slow["statuses"]) == len(trace)
        keystrokes = sum(1 for command in trace if command.action == "type")
        assert keystrokes > 0
        assert slow_events["keyup"] == keystrokes
        assert fast_events.get("keyup", 0) <= keystrokes


class TestPerfDelta:
    """Pin the delta() contract: hit_rate is always a real rate."""

    def test_zero_activity_caches_are_dropped(self):
        before = perf.snapshot()
        assert perf.delta(before) == {}

    def test_hit_rate_is_always_a_float(self):
        before = perf.snapshot()
        perf.record("pin.hits", hit=True)
        perf.record("pin.mixed", hit=True)
        perf.record("pin.mixed", hit=False)
        perf.record("pin.misses", hit=False)
        counters = perf.delta(before)
        assert set(counters) == {"pin.hits", "pin.mixed", "pin.misses"}
        for name, counts in counters.items():
            rate = counts["hit_rate"]
            assert isinstance(rate, float), name
            assert 0.0 <= rate <= 1.0, name
        assert counters["pin.hits"]["hit_rate"] == 1.0
        assert counters["pin.mixed"]["hit_rate"] == 0.5
        assert counters["pin.misses"]["hit_rate"] == 0.0

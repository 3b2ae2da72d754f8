"""Generate paper-style XPath expressions for DOM elements.

The WaRR Recorder logs each action target as an XPath like
``//div/span[@id="start"]`` or ``//td/div[text()="Save"]`` (Figure 4).
The generator prefers, in order:

1. an ``id`` predicate (with the parent tag as context),
2. a ``name`` predicate,
3. a short, unique direct-text predicate,
4. an absolute positional path from the document root.

The produced expression is verified to resolve uniquely back to the
element when it is generated; if a shorter form is ambiguous we fall
back to the absolute path. The result is then memoized on the element
and reused while the document generations it observes are unchanged:
structure and attributes always, text too once the text predicate was
considered. So a burst of keystrokes keeps its ``@id`` locator without
re-evaluating it, while any edit of text invalidates a ``text()=``
locator. ``perf.fast_path(False)`` generates from scratch every time.
"""

from repro import perf
from repro.dom.node import Document, Element, Text
from repro.xpath.ast import (
    Path,
    Step,
    AttributeEquals,
    TextEquals,
    PositionPredicate,
)
from repro.xpath.evaluator import evaluate


def _direct_text(element):
    return "".join(
        child.data for child in element.children if isinstance(child, Text)
    ).strip()


def _resolves_uniquely(path, document, element):
    matches = evaluate(path, document)
    return len(matches) == 1 and matches[0] is element


def _contextual_step(element, predicates):
    """Build ``//parenttag/tag[preds]`` (or ``//tag[preds]`` at the root)."""
    if not isinstance(predicates, list):
        predicates = [predicates]
    steps = []
    parent = element.parent
    if isinstance(parent, Element) and parent.tag not in ("body", "html"):
        steps.append(Step(Step.DESCENDANT, parent.tag))
        steps.append(Step(Step.CHILD, element.tag, predicates))
    else:
        steps.append(Step(Step.DESCENDANT, element.tag, predicates))
    return Path(steps)


def absolute_xpath(element):
    """Positional path from the root, e.g. ``/html/body/div[2]/span``.

    Position predicates are added only where the element has same-tag
    siblings, keeping expressions short like hand-written ones.
    """
    steps = []
    node = element
    while isinstance(node, Element):
        parent = node.parent
        siblings = (
            [
                child for child in parent.children
                if isinstance(child, Element) and child.tag == node.tag
            ]
            if parent is not None
            else [node]
        )
        predicates = []
        if len(siblings) > 1:
            predicates.append(PositionPredicate(siblings.index(node) + 1))
        steps.append(Step(Step.CHILD, node.tag, predicates))
        node = parent
    steps.reverse()
    return Path(steps)


def _generations(document, observes_text):
    """The counters a memoized result depends on; an unobserved text
    generation reads -1, so ``entry[1][2] >= 0`` says it was observed.
    Every recorded action asks this, so it reads the counters behind
    the ``Document`` properties."""
    return (document._structure_generation, document._attribute_generation,
            document._text_generation if observes_text else -1)


def xpath_for_element(element, document=None):
    """Produce the recorder's XPath for ``element``.

    ``document`` defaults to the element's owner document; passing it
    explicitly lets callers generate expressions against snapshots.
    Only an owned element's result is memoized (as ``(document,
    generations, path)`` on the element), since only its owner's
    counters see every mutation the result depends on; a hit or miss
    counts as ``xpath.generate``.
    """
    if not isinstance(element, Element):
        raise TypeError("can only generate XPath for elements, got %r" % (element,))
    if document is None:
        document = element.owner_document
        if not isinstance(document, Document):
            root = element.root()
            document = root if isinstance(root, Document) else None
    if document is None:
        return absolute_xpath(element)
    if document is not element.owner_document or not perf._enabled:
        return _generate(element, document)[0]

    entry = getattr(element, "_xpath_memo", None)
    if (entry is not None and entry[0] is document
            and entry[1] == _generations(document, entry[1][2] >= 0)):
        perf.record("xpath.generate", hit=True)
        return entry[2]
    perf.record("xpath.generate", hit=False)
    path, observes_text = _generate(element, document)
    element._xpath_memo = (
        document, _generations(document, observes_text), path)
    return path


def _generate(element, document):
    """``(path, observes_text)``: the verified locator, and whether the
    choice depended on the element's text (the text step was reached)."""
    element_id = element.get_attribute("id")
    element_name = element.get_attribute("name")
    if element_id:
        predicates = [AttributeEquals("id", element_id)]
        if element_name:
            # Record the stable name alongside the (possibly volatile)
            # id — the replayer's "keep only certain attributes"
            # relaxation heuristic depends on it being in the trace.
            predicates.append(AttributeEquals("name", element_name))
        path = _contextual_step(element, predicates)
        if _resolves_uniquely(path, document, element):
            return path, False

    if element_name:
        path = _contextual_step(element, AttributeEquals("name", element_name))
        if _resolves_uniquely(path, document, element):
            return path, False

    text = _direct_text(element)
    if text and len(text) <= 40 and '"' not in text:
        path = _contextual_step(element, TextEquals(text))
        if _resolves_uniquely(path, document, element):
            return path, True

    return absolute_xpath(element), True

"""Progressive XPath relaxation.

The replay challenge the paper highlights (Section IV-C): element
properties differ between record time and replay time — GMail, for
example, regenerates ``id`` attributes on every load — so the recorded
XPath no longer matches. WaRR "employs an automatic,
application-independent, and progressive relaxation of an element's
XPath expression", guided by heuristics that

1. remove XPath attributes (e.g. ``id``),
2. maintain only certain attributes (e.g. only ``name``), and
3. discard a prefix of the expression.

The relaxation engine generates candidates in that order, combined with
progressively longer prefix discards, and resolves against the live
document: the original expression is always tried first (so replay is
exact and timing-accurate when the DOM is stable), and the first
candidate with a *unique* match wins. If no candidate is unique, the
first match of the least-relaxed ambiguous candidate is used as a last
resort.
"""

from collections import OrderedDict

from repro import perf
from repro.dom.node import Document
from repro.util.errors import ElementNotFoundError
from repro.xpath.ast import (
    AttributeEquals,
    AttributeExists,
    ContainsPredicate,
    PositionPredicate,
    Path,
    Step,
    TextEquals,
)
from repro.xpath.evaluator import evaluate
from repro.xpath.parser import parse_xpath

#: Attributes kept by the "maintain only certain attributes" heuristic.
STABLE_ATTRIBUTES = frozenset(["name", "type"])

#: Attributes dropped by the "remove attributes" heuristic — these are
#: the ones applications regenerate.
VOLATILE_ATTRIBUTES = frozenset(["id", "class", "style"])


def _strip_volatile(step):
    """Heuristic 1: drop predicates on volatile attributes."""
    kept = []
    for predicate in step.predicates:
        if isinstance(predicate, (AttributeEquals, AttributeExists)):
            if predicate.name in VOLATILE_ATTRIBUTES:
                continue
        kept.append(predicate)
    return step.copy(predicates=kept)


def _only_stable(step):
    """Heuristic 2: keep only name-like attribute and text predicates."""
    kept = []
    for predicate in step.predicates:
        if isinstance(predicate, (AttributeEquals, AttributeExists)):
            if predicate.name in STABLE_ATTRIBUTES:
                kept.append(predicate)
        elif isinstance(predicate, TextEquals):
            kept.append(predicate)
    return step.copy(predicates=kept)


def _keep_position_only(step):
    """Deepest relaxation: keep only positional predicates."""
    kept = [p for p in step.predicates if isinstance(p, PositionPredicate)]
    return step.copy(predicates=kept)


def _suffix(path, drop):
    """Heuristic 3: discard the first ``drop`` steps.

    The new leading step becomes descendant-anchored, turning
    ``//td/div[@id="x"]`` into ``//div[@id="x"]``.
    """
    steps = [s.copy() for s in path.steps[drop:]]
    steps[0] = steps[0].copy(axis=Step.DESCENDANT)
    return Path(steps)


#: Per-expression candidate cache: building the relaxation ladder
#: parses, transforms, and re-renders the path several times — work
#: that is identical every time the same recorded locator goes stale.
_CANDIDATE_CACHE = OrderedDict()
_CANDIDATE_CACHE_MAX = 512


@perf.register_cache_clearer
def _clear_candidate_cache():
    _CANDIDATE_CACHE.clear()


def relax_candidates(expression):
    """Return (description, Path) candidates, least-relaxed first."""
    if not perf.fast_path_enabled():
        return _build_candidates(expression)
    key = expression if isinstance(expression, str) else expression.to_xpath()
    try:
        cached = _CANDIDATE_CACHE[key]
    except KeyError:
        perf.record("relax.candidates", hit=False)
        cached = tuple(_build_candidates(expression))
        _CANDIDATE_CACHE[key] = cached
        if len(_CANDIDATE_CACHE) > _CANDIDATE_CACHE_MAX:
            _CANDIDATE_CACHE.popitem(last=False)
    else:
        _CANDIDATE_CACHE.move_to_end(key)
        perf.record("relax.candidates", hit=True)
    return list(cached)


def _build_candidates(expression):
    original = parse_xpath(expression)
    seen = set()

    def emit(description, path):
        rendered = path.to_xpath()
        if rendered in seen:
            return None
        seen.add(rendered)
        return (description, path)

    candidates = []
    first = emit("original", original)
    if first:
        candidates.append(first)

    transforms = [
        ("drop volatile attributes", _strip_volatile),
        ("keep only stable attributes", _only_stable),
        ("positional only", _keep_position_only),
    ]

    for drop in range(len(original.steps)):
        base = original if drop == 0 else _suffix(original, drop)
        prefix_note = "" if drop == 0 else " after discarding %d-step prefix" % drop
        if drop > 0:
            candidate = emit("discard prefix (%d steps)" % drop, base)
            if candidate:
                candidates.append(candidate)
        for note, transform in transforms:
            relaxed = Path([
                transform(step) if index == len(base.steps) - 1 else step.copy()
                for index, step in enumerate(base.steps)
            ])
            candidate = emit(note + prefix_note, relaxed)
            if candidate:
                candidates.append(candidate)
    return candidates


def _predicate_mask(path):
    """(observes attributes, observes text) over every step's predicates."""
    observes_attributes = False
    observes_text = False
    for step in path.steps:
        for predicate in step.predicates:
            if isinstance(predicate, (AttributeEquals, AttributeExists)):
                observes_attributes = True
            elif isinstance(predicate, TextEquals):
                observes_text = True
            elif isinstance(predicate, ContainsPredicate):
                if predicate.target == "text()":
                    observes_text = True
                else:
                    observes_attributes = True
    return observes_attributes, observes_text


def _observed_mask(expression):
    """The predicate mask of ``expression``, cached on its compiled path.

    Structure is always observed (it decides which elements exist and
    their positions); attribute/text counters only when some predicate
    reads them. Every relaxation candidate carries a *subset* of the
    original's predicates, so masking on the original expression is
    conservative for the whole ladder.
    """
    path = parse_xpath(expression)
    mask = path._observed_mask
    if mask is None:
        mask = path._observed_mask = _predicate_mask(path)
    return mask


class _MemoEntry:
    """One memoized resolution of an expression.

    ``context`` is the resolution context (a Document, or the root
    Element of a src-less iframe) and ``document`` its owning Document.
    The entry holds the document's structure, attribute and text
    generations at resolution time, and the expression's predicate mask
    (does it read attributes, text?), so a hit neither compiles the
    expression nor walks its predicates: structure always counts (any
    element insertion or removal, detaching the memoized element
    included, ends the entry), attributes and text only when a
    predicate reads them — an id-locator stays memoized across a burst
    of keystrokes.
    """

    __slots__ = ("context", "document", "observes_attributes",
                 "observes_text", "structure", "attributes", "text",
                 "found", "relaxed")

    def __init__(self, context, document, mask, element, description):
        self.context = context
        self.document = document
        self.observes_attributes, self.observes_text = mask
        self.structure = document._structure_generation
        self.attributes = document._attribute_generation
        self.text = document._text_generation
        self.found = (element, description)
        self.relaxed = description != "original"


class RelaxationEngine:
    """Resolves a recorded XPath against a live document."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        #: Resolutions answered, memo hits included, and how many of
        #: them used a non-original candidate (:meth:`relaxed_count`).
        self.resolution_count = 0
        self._relaxed = 0
        #: expression key -> :class:`_MemoEntry`.
        self._memo = {}

    def recall(self, expression, context):
        """The memoized (element, description) for ``expression``, or None.

        A hit needs the same resolution context (a Document, or the
        root Element of a src-less iframe) and unchanged generations of
        its document, as far as the expression observes them; it counts
        as a ``relax.resolve`` hit and as a resolution. A miss records
        nothing: :meth:`resolve` counts it when it resolves the
        expression. Always None with relaxation or the fast path
        disabled.

        Every replayed command asks this, so the generations are read
        behind the ``Document`` properties, and with no counter observer
        installed the hit is counted in place, as :func:`perf.record`
        would.
        """
        if not self.enabled or not perf._enabled:
            return None
        key = expression if isinstance(expression, str) else expression.to_xpath()
        entry = self._memo.get(key)
        if entry is None or entry.context is not context:
            return None
        document = entry.document
        if (document._structure_generation != entry.structure
                or (entry.observes_attributes
                    and document._attribute_generation != entry.attributes)
                or (entry.observes_text
                    and document._text_generation != entry.text)):
            return None
        if perf._counter_observer is None:
            perf.stats.hits["relax.resolve"] += 1
        else:
            perf.record("relax.resolve", hit=True)
        self.resolution_count += 1
        if entry.relaxed:
            self._relaxed += 1
        return entry.found

    def resolve(self, expression, document):
        """Find the element ``expression`` points at in ``document``.

        ``document`` is the resolution context: a Document, or an
        Element scoping the search to a subtree (src-less iframes).
        Returns (element, description-of-heuristic-used). Raises
        :class:`ElementNotFoundError` if nothing matches any candidate.
        """
        if not self.enabled:
            matches = evaluate(expression, document)
            if not matches:
                raise ElementNotFoundError(
                    "no element matches %r (relaxation disabled)" % expression
                )
            self._count("original")
            return matches[0], "original"

        if not perf.fast_path_enabled():
            element, description = self._resolve_by_scan(expression, document)
            self._count(description)
            return element, description

        found = self.recall(expression, document)
        if found is not None:
            return found
        owner = document if isinstance(document, Document) \
            else document.owner_document
        # Memoizing without an owning Document would be unsafe: there
        # is no counter to invalidate on.
        memoizable = isinstance(owner, Document)
        if memoizable:
            perf.record("relax.resolve", hit=False)

        # The common, DOM-stable case: the original expression still
        # matches uniquely — no relaxation ladder is built at all.
        matches = evaluate(expression, document)
        if len(matches) == 1:
            element, description = matches[0], "original"
        else:
            fallback = (matches[0], "original (ambiguous)") if matches else None
            element, description = self._resolve_by_scan(
                expression, document, skip_original=True, fallback=fallback
            )
        if memoizable:
            # Evaluation reads the DOM without mutating it, so these are
            # the generations the answer was computed at.
            key = expression if isinstance(expression, str) \
                else expression.to_xpath()
            self._memo[key] = _MemoEntry(
                document, owner, _observed_mask(expression), element,
                description)
        self._count(description)
        return element, description

    def _count(self, description):
        self.resolution_count += 1
        if description != "original":
            self._relaxed += 1

    def _resolve_by_scan(self, expression, document, skip_original=False,
                         fallback=None):
        """Walk the relaxation ladder; first unique match wins."""
        for description, path in relax_candidates(expression):
            if skip_original and description == "original":
                continue
            matches = evaluate(path, document)
            if len(matches) == 1:
                return matches[0], description
            if matches and fallback is None:
                fallback = (matches[0], description + " (ambiguous)")
        if fallback is not None:
            return fallback
        raise ElementNotFoundError(
            "no element matches %r even after relaxation" % expression
        )

    def relaxed_count(self):
        """How many resolutions needed a non-original candidate."""
        return self._relaxed

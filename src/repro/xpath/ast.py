"""XPath abstract syntax tree.

A parsed expression is a :class:`Path` of :class:`Step` objects; each step
has an axis (``child`` for ``/``, ``descendant`` for ``//``), a name test,
and zero or more predicates. The AST nodes know how to render themselves
back to XPath syntax, which the relaxation heuristics rely on: they
transform the AST and re-serialize, never string-munge.
"""


class Predicate:
    """Base class for step predicates."""

    def matches(self, element, position, size):
        """True if ``element`` (at 1-based ``position`` of ``size``
        candidates) satisfies this predicate."""
        raise NotImplementedError

    def to_xpath(self):
        """Render the predicate body (without brackets)."""
        raise NotImplementedError

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.to_xpath())

    def __eq__(self, other):
        return type(self) is type(other) and self.to_xpath() == other.to_xpath()

    def __hash__(self):
        return hash((type(self).__name__, self.to_xpath()))


class AttributeEquals(Predicate):
    """``[@name="value"]``"""

    def __init__(self, name, value):
        self.name = name
        self.value = value

    def matches(self, element, position, size):
        return element.get_attribute(self.name) == self.value

    def to_xpath(self):
        return '@%s="%s"' % (self.name, self.value)


class AttributeExists(Predicate):
    """``[@name]``"""

    def __init__(self, name):
        self.name = name

    def matches(self, element, position, size):
        return element.has_attribute(self.name)

    def to_xpath(self):
        return "@%s" % self.name


class TextEquals(Predicate):
    """``[text()="value"]`` — compares the element's own text children."""

    def __init__(self, value):
        self.value = value

    def matches(self, element, position, size):
        return _direct_text(element) == self.value

    def to_xpath(self):
        return 'text()="%s"' % self.value


class ContainsPredicate(Predicate):
    """``[contains(@name, "value")]`` or ``[contains(text(), "value")]``."""

    def __init__(self, target, value):
        if target != "text()" and not target.startswith("@"):
            raise ValueError("contains() target must be text() or @attr")
        self.target = target
        self.value = value

    def matches(self, element, position, size):
        if self.target == "text()":
            haystack = _direct_text(element)
        else:
            haystack = element.get_attribute(self.target[1:]) or ""
        return self.value in haystack

    def to_xpath(self):
        return 'contains(%s, "%s")' % (self.target, self.value)


class PositionPredicate(Predicate):
    """``[3]`` or ``[position()=3]`` or ``[last()]``."""

    LAST = -1

    def __init__(self, index):
        self.index = index

    def matches(self, element, position, size):
        if self.index == self.LAST:
            return position == size
        return position == self.index

    def to_xpath(self):
        if self.index == self.LAST:
            return "last()"
        return str(self.index)


class Step:
    """One location step: axis + name test + predicates."""

    CHILD = "child"
    DESCENDANT = "descendant"

    def __init__(self, axis, name, predicates=None):
        if axis not in (self.CHILD, self.DESCENDANT):
            raise ValueError("unknown axis %r" % axis)
        self.axis = axis
        self.name = name  # tag name or '*'
        self.predicates = list(predicates or [])

    def separator(self):
        return "//" if self.axis == self.DESCENDANT else "/"

    def to_xpath(self):
        preds = "".join("[%s]" % p.to_xpath() for p in self.predicates)
        return self.name + preds

    def copy(self, axis=None, name=None, predicates=None):
        """Copy, optionally overriding fields (used by relaxation)."""
        return Step(
            axis if axis is not None else self.axis,
            name if name is not None else self.name,
            list(self.predicates) if predicates is None else predicates,
        )

    def __repr__(self):
        return "Step(%s::%s)" % (self.axis, self.to_xpath())

    def __eq__(self, other):
        return (
            isinstance(other, Step)
            and self.axis == other.axis
            and self.name == other.name
            and self.predicates == other.predicates
        )


class Path:
    """A full XPath expression: a sequence of steps from the root.

    Paths are not mutated once built (the compile cache shares them),
    so derived facts can be cached on the instance.
    """

    #: Relaxation's (observes attributes, observes text) predicate mask,
    #: filled in on first use; bounded by the compile cache's LRU.
    _observed_mask = None

    #: Rendered expression, filled in by the first ``str()``.
    _text = None

    def __init__(self, steps):
        if not steps:
            raise ValueError("a path needs at least one step")
        self.steps = list(steps)

    def to_xpath(self):
        return "".join(step.separator() + step.to_xpath() for step in self.steps)

    def copy(self, steps=None):
        return Path([s.copy() for s in self.steps] if steps is None else steps)

    def __repr__(self):
        return "Path(%s)" % self.to_xpath()

    def __eq__(self, other):
        return isinstance(other, Path) and self.steps == other.steps

    def __str__(self):
        text = self._text
        if text is None:
            text = self._text = self.to_xpath()
        return text


def _direct_text(element):
    """Concatenated, stripped text of the element's direct text children."""
    from repro.dom.node import Text

    return "".join(
        child.data for child in element.children if isinstance(child, Text)
    ).strip()

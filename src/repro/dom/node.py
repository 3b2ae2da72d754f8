"""DOM node classes.

A deliberately small but faithful subset of the DOM: ``Document``,
``Element``, ``Text``, and ``Comment`` nodes with the tree-manipulation,
attribute, and event-listener APIs the rest of the stack needs.

Event *dispatch* lives in :mod:`repro.events.dispatch`; nodes only store
their listeners so the DOM stays independent of the event model.
"""

from repro import perf
from repro.util.errors import DomError

#: HTML elements that never have children (and serialize without end tag).
VOID_ELEMENTS = frozenset(
    ["area", "base", "br", "col", "embed", "hr", "img", "input",
     "link", "meta", "param", "source", "track", "wbr"]
)

#: Elements whose ``value`` property is a real input value. ChromeDriver's
#: text-input bug (paper, Section IV-C) is that it sets ``value`` even on
#: elements outside this set.
VALUE_ELEMENTS = frozenset(["input", "textarea", "select", "option"])


class Node:
    """Base class of all DOM nodes."""

    def __init__(self):
        self.parent = None
        self.children = []
        self.owner_document = None
        self._listeners = {}

    # -- tree structure -------------------------------------------------

    def append_child(self, child):
        """Attach ``child`` as the last child of this node."""
        return self.insert_before(child, None)

    def insert_before(self, child, reference):
        """Insert ``child`` before ``reference`` (or append if None)."""
        if child is self:
            raise DomError("a node cannot be its own child")
        if child.contains(self):
            raise DomError("cannot insert an ancestor as a child")
        if child.parent is not None:
            child.parent.remove_child(child)
        if reference is None:
            index = len(self.children)
        else:
            try:
                index = self.children.index(reference)
            except ValueError:
                raise DomError("reference node is not a child of this node")
        self.children.insert(index, child)
        child.parent = self
        child._adopt(self.owner_document or (self if isinstance(self, Document) else None))
        self._note_mutation("element" if isinstance(child, Element) else "text")
        return child

    def remove_child(self, child):
        """Detach ``child`` from this node."""
        try:
            self.children.remove(child)
        except ValueError:
            raise DomError("node to remove is not a child of this node")
        child.parent = None
        self._note_mutation("element" if isinstance(child, Element) else "text")
        return child

    def replace_child(self, new_child, old_child):
        """Replace ``old_child`` with ``new_child``."""
        if old_child not in self.children:
            raise DomError("node to replace is not a child of this node")
        self.insert_before(new_child, old_child)
        return self.remove_child(old_child)

    def remove(self):
        """Detach this node from its parent (no-op if already detached)."""
        if self.parent is not None:
            self.parent.remove_child(self)

    def contains(self, other):
        """True if ``other`` is this node or a descendant of it."""
        node = other
        while node is not None:
            if node is self:
                return True
            node = node.parent
        return False

    def _adopt(self, document):
        self.owner_document = document
        if document is not None and self._listeners:
            document._listened_types.update(
                event_type for event_type, _ in self._listeners)
        for child in self.children:
            child._adopt(document)

    def _note_mutation(self, kind):
        """Bump the owning document's generation counters.

        ``kind`` classifies the mutation: ``"element"`` (an Element
        entering or leaving the tree — invalidates the element indexes),
        ``"attribute"``, or ``"text"`` (character data or Text/Comment
        nodes). Result caches use the split counters to stay valid
        across mutations their expressions cannot observe.
        """
        document = self.owner_document
        if document is not None:
            document._bump_generation(kind)

    # -- traversal ------------------------------------------------------

    def descendants(self):
        """Yield all descendants in document (pre-)order."""
        for child in self.children:
            yield child
            yield from child.descendants()

    def ancestors(self):
        """Yield parent, grandparent, ... up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def root(self):
        """Topmost node of the tree this node belongs to."""
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def child_elements(self):
        """Element children only."""
        return [child for child in self.children if isinstance(child, Element)]

    def index_in_parent(self):
        """Zero-based position among the parent's children (-1 if root)."""
        if self.parent is None:
            return -1
        return self.parent.children.index(self)

    # -- text -----------------------------------------------------------

    @property
    def text_content(self):
        """Concatenated text of all descendant text nodes."""
        parts = []
        for node in self.descendants():
            if isinstance(node, Text):
                parts.append(node.data)
        return "".join(parts)

    @text_content.setter
    def text_content(self, value):
        """Replace all children with a single text node."""
        for child in list(self.children):
            self.remove_child(child)
        if value:
            self.append_child(Text(value))

    # Typing edits: the same tree as ``text_content = text_content + t``
    # (or ``[:-1]``), without detaching the one Text node and adopting a
    # new one per keystroke. Rewriting its ``data`` is one "text"
    # mutation, so generation-keyed caches still see the edit. Any other
    # shape of children, a result that would leave an empty Text node,
    # and a disabled fast path take the replace-all setter.

    def append_text(self, text):
        """Append ``text`` to this node's text content, as typing does.

        Every replayed character lands here, so the fast path rewrites
        the Text node's data and counts the ``"text"`` mutation on its
        document in place, as the ``data`` setter would.
        """
        children = self.children
        if (len(children) == 1 and type(children[0]) is Text
                and perf._enabled):
            child = children[0]
            child._data += text
            document = child.owner_document
            if document is not None:
                document._generation += 1
                document._text_generation += 1
        else:
            self.text_content = self.text_content + text

    def delete_last_character(self):
        """Remove the last character of this node's text content."""
        children = self.children
        if (len(children) == 1 and type(children[0]) is Text
                and len(children[0]._data) > 1 and perf.fast_path_enabled()):
            child = children[0]
            child.data = child._data[:-1]
        else:
            self.text_content = self.text_content[:-1]

    # -- event listeners (storage only; dispatch in repro.events) --------

    def add_event_listener(self, event_type, handler, capture=False):
        """Register ``handler`` for ``event_type`` on this node.

        The type is also noted on the owning document (a Document owns
        itself), whose dispatch skips types no node listens for; a
        detached, unowned node's types are noted when it is adopted.
        """
        self._listeners.setdefault((event_type, bool(capture)), []).append(handler)
        document = self.owner_document
        if document is not None:
            document._listened_types.add(event_type)

    def remove_event_listener(self, event_type, handler, capture=False):
        """Unregister a previously added handler (no-op if absent).

        An emptied ``(type, capture)`` entry is dropped, so a node whose
        listeners are all gone reads as listener-free to dispatch. The
        document's listened types are left alone: they are a superset.
        """
        key = (event_type, bool(capture))
        handlers = self._listeners.get(key)
        if handlers and handler in handlers:
            handlers.remove(handler)
            if not handlers:
                del self._listeners[key]

    def listeners_for(self, event_type, capture):
        """Handlers registered for a given type and phase (a copy)."""
        handlers = self._listeners.get((event_type, bool(capture)))
        return list(handlers) if handlers else []

    def has_listener(self, event_type):
        """True if any handler (either phase) is registered for the type."""
        return bool(
            self._listeners.get((event_type, False))
            or self._listeners.get((event_type, True))
        )


class _CharacterData(Node):
    """Shared ``data`` storage for Text and Comment nodes.

    ``data`` is a property so rewrites count as content mutations and
    invalidate generation-keyed caches (text predicates, resolved
    locators, layout).
    """

    def __init__(self, data=""):
        super().__init__()
        self._data = data

    @property
    def data(self):
        return self._data

    @data.setter
    def data(self, value):
        self._data = value
        self._note_mutation("text")


class Text(_CharacterData):
    """A run of character data."""

    def append_child(self, child):
        raise DomError("text nodes cannot have children")

    def insert_before(self, child, reference):
        raise DomError("text nodes cannot have children")

    def __repr__(self):
        preview = self.data if len(self.data) <= 30 else self.data[:27] + "..."
        return "Text(%r)" % preview


class Comment(_CharacterData):
    """An HTML comment; inert but preserved through parse/serialize."""

    def append_child(self, child):
        raise DomError("comment nodes cannot have children")

    def insert_before(self, child, reference):
        raise DomError("comment nodes cannot have children")

    def __repr__(self):
        return "Comment(%r)" % (self.data,)


class Element(Node):
    """An HTML element: tag name, attributes, children."""

    def __init__(self, tag, attributes=None):
        super().__init__()
        self.tag = tag.lower()
        self.attributes = dict(attributes or {})
        # The DOM 'value' *property* of form controls diverges from the
        # 'value' attribute once the user types; model them separately.
        self._value = None

    # -- attributes -------------------------------------------------------

    def get_attribute(self, name):
        """Attribute value or None."""
        return self.attributes.get(name)

    def set_attribute(self, name, value):
        """Set an attribute (stringified)."""
        self.attributes[name] = str(value)
        self._note_mutation("attribute")

    def remove_attribute(self, name):
        """Delete an attribute (no-op if absent)."""
        if self.attributes.pop(name, None) is not None:
            self._note_mutation("attribute")

    def has_attribute(self, name):
        """True if the attribute is present (even if empty)."""
        return name in self.attributes

    @property
    def id(self):
        """The ``id`` attribute, or None."""
        return self.attributes.get("id")

    @id.setter
    def id(self, value):
        self.set_attribute("id", value)

    @property
    def name(self):
        """The ``name`` attribute, or None."""
        return self.attributes.get("name")

    @property
    def classes(self):
        """The ``class`` attribute split on whitespace."""
        return (self.attributes.get("class") or "").split()

    # -- form-control value -----------------------------------------------

    @property
    def value(self):
        """Current value of a form control.

        Reflects the ``value`` attribute until the property is written
        (by the user typing or by a script), as in real browsers.
        """
        if self._value is not None:
            return self._value
        return self.attributes.get("value", "")

    @value.setter
    def value(self, text):
        self._value = str(text)

    def supports_value(self):
        """True if this element kind has a meaningful ``value`` property."""
        return self.tag in VALUE_ELEMENTS

    # -- content model ------------------------------------------------------

    def append_child(self, child):
        if self.tag in VOID_ELEMENTS:
            raise DomError("<%s> is a void element and cannot have children" % self.tag)
        return super().append_child(child)

    def insert_before(self, child, reference):
        if self.tag in VOID_ELEMENTS:
            raise DomError("<%s> is a void element and cannot have children" % self.tag)
        return super().insert_before(child, reference)

    @property
    def is_content_editable(self):
        """True if this element or an ancestor sets contenteditable."""
        node = self
        while isinstance(node, Element):
            flag = node.attributes.get("contenteditable")
            if flag is not None:
                return flag.lower() not in ("false",)
            node = node.parent
        return False

    def is_focusable(self):
        """True if the element can receive keyboard focus."""
        return (
            self.tag in ("input", "textarea", "select", "button", "a")
            or self.is_content_editable
            or self.has_attribute("tabindex")
        )

    # -- queries ------------------------------------------------------------

    def get_elements_by_tag(self, tag):
        """All descendant elements with the given tag (lowercase match)."""
        tag = tag.lower()
        return [
            node for node in self.descendants()
            if isinstance(node, Element) and node.tag == tag
        ]

    def find_first(self, predicate):
        """First descendant element satisfying ``predicate``, or None."""
        for node in self.descendants():
            if isinstance(node, Element) and predicate(node):
                return node
        return None

    def __repr__(self):
        ident = ""
        if self.id:
            ident = " id=%r" % self.id
        return "Element(<%s>%s, %d children)" % (self.tag, ident, len(self.children))


class _DocumentIndexes:
    """Element indexes for one structure generation of a document."""

    __slots__ = ("generation", "order", "by_tag", "elements")

    def __init__(self, generation, order, by_tag, elements):
        self.generation = generation
        #: id(element) -> document-order position
        self.order = order
        #: tag -> [elements in document order]
        self.by_tag = by_tag
        #: every element, in document order
        self.elements = elements


class Document(Node):
    """The root of a DOM tree; also the element factory.

    The document tracks mutation generations by kind: ``generation``
    bumps on *every* mutation; ``structure_generation`` only when an
    Element enters or leaves the tree (invalidating the lazily built
    element indexes — document order and tag map — that the XPath fast
    path queries instead of re-walking the tree);
    ``attribute_generation`` and ``text_generation`` on attribute and
    character-data changes. Result caches key on the counters their
    expressions can actually observe, so e.g. a memoized id-locator
    survives a burst of keystrokes that only touches text.

    ``_listened_types`` holds every event type any node owned by this
    document has ever listened for. It only grows (removing a listener
    leaves its type in place), so it is a superset of the types present,
    and dispatch skips the propagation walk for any type outside it.
    """

    def __init__(self, url=""):
        super().__init__()
        self.url = url
        self.owner_document = self
        self._generation = 0
        self._structure_generation = 0
        self._attribute_generation = 0
        self._text_generation = 0
        self._indexes = None
        self._listened_types = set()
        #: For a page-template clone (:mod:`repro.dom.parser`), the
        #: ``(PageTemplate, elements in document order)`` it came from:
        #: until the generation moves, its layout is the template's.
        self._template = None

    # -- mutation tracking ----------------------------------------------

    @property
    def generation(self):
        """Counter bumped by every mutation anywhere in the tree."""
        return self._generation

    @property
    def structure_generation(self):
        """Counter bumped only by element insertion/removal."""
        return self._structure_generation

    @property
    def attribute_generation(self):
        """Counter bumped only by attribute changes."""
        return self._attribute_generation

    @property
    def text_generation(self):
        """Counter bumped only by character-data (text/comment) changes."""
        return self._text_generation

    def _bump_generation(self, kind):
        self._generation += 1
        if kind == "element":
            self._structure_generation += 1
        elif kind == "attribute":
            self._attribute_generation += 1
        else:
            self._text_generation += 1

    def query_indexes(self):
        """Generation-valid element indexes, or None when the fast path
        is disabled (callers then fall back to tree traversal)."""
        if not perf.fast_path_enabled():
            return None
        cached = self._indexes
        if cached is not None and cached.generation == self._structure_generation:
            perf.record("dom.index", hit=True)
            return cached
        perf.record("dom.index", hit=False)
        order = {}
        by_tag = {}
        elements = []
        for node in self.descendants():
            if not isinstance(node, Element):
                continue
            order[id(node)] = len(elements)
            elements.append(node)
            by_tag.setdefault(node.tag, []).append(node)
        self._indexes = _DocumentIndexes(
            self._structure_generation, order, by_tag, elements
        )
        return self._indexes

    # -- factory ------------------------------------------------------------

    def create_element(self, tag, attributes=None):
        """Create a detached element owned by this document."""
        element = Element(tag, attributes)
        element.owner_document = self
        return element

    def create_text_node(self, data):
        """Create a detached text node owned by this document."""
        text = Text(data)
        text.owner_document = self
        return text

    # -- well-known elements --------------------------------------------

    @property
    def document_element(self):
        """The <html> element, or the first element child."""
        for child in self.child_elements():
            if child.tag == "html":
                return child
        elements = self.child_elements()
        return elements[0] if elements else None

    @property
    def body(self):
        """The <body> element, or None."""
        html = self.document_element
        if html is None:
            return None
        if html.tag == "body":
            return html
        for child in html.child_elements():
            if child.tag == "body":
                return child
        return None

    @property
    def head(self):
        """The <head> element, or None."""
        html = self.document_element
        if html is None:
            return None
        for child in html.child_elements():
            if child.tag == "head":
                return child
        return None

    @property
    def title(self):
        """Text of the <title> element, or empty string."""
        head = self.head
        if head is None:
            return ""
        for node in head.descendants():
            if isinstance(node, Element) and node.tag == "title":
                return node.text_content
        return ""

    # -- queries ------------------------------------------------------------

    def get_element_by_id(self, element_id):
        """First element with the given id, or None."""
        for node in self.descendants():
            if isinstance(node, Element) and node.id == element_id:
                return node
        return None

    def get_elements_by_tag(self, tag):
        """All elements with the given tag, in document order."""
        tag = tag.lower()
        indexes = self.query_indexes()
        if indexes is not None:
            return list(indexes.by_tag.get(tag, ()))
        return [
            node for node in self.descendants()
            if isinstance(node, Element) and node.tag == tag
        ]

    def all_elements(self):
        """Every element in the document, in document order."""
        indexes = self.query_indexes()
        if indexes is not None:
            return list(indexes.elements)
        return [node for node in self.descendants() if isinstance(node, Element)]

    def __repr__(self):
        return "Document(url=%r, title=%r)" % (self.url, self.title)

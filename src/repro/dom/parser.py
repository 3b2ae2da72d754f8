"""Hand-written HTML parser.

Tokenizes markup into tags/text/comments and builds a DOM tree. Supports
the HTML subset the simulated web applications use: nested elements,
quoted/unquoted/bare attributes, void elements, raw-text elements
(``script``, ``style``, ``textarea``, ``title``), comments, doctype, and
the common character entities. Mis-nested end tags are recovered from by
popping to the nearest matching open element, as browsers do.

Every replay runs on a fresh browser, so the same few pages are parsed
over and over. :func:`parse_html` therefore parses each markup string
once into a private template ``Document`` and hands out a clone of that
template for every load of the same markup, counted as the
``dom.parse`` perf counter. Markup that is parsed once and never again
(an AUsER snapshot) goes through :func:`parse_html_uncached`, so it
cannot evict the page templates. ``perf.fast_path(False)`` parses every
time, the oracle the clones are tested against.
"""

import string
from collections import OrderedDict

from repro import perf
from repro.dom.node import Document, Element, Text, Comment, VOID_ELEMENTS

#: Content of these elements is raw text: markup inside is not parsed.
RAW_TEXT_ELEMENTS = frozenset(["script", "style", "textarea", "title"])

#: ASCII-only case fold for finding raw-text end tags. ``str.lower``
#: can lengthen a string (``"İ".lower()`` is two code points), which
#: would shift every index found in the folded copy; this table maps
#: A-Z only, so the copy is exactly as long as the markup.
_ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)

#: An opening tag in the key set implicitly closes an open tag in the
#: value set (a small practical subset of the HTML5 rules).
_IMPLIED_END = {
    "li": frozenset(["li"]),
    "tr": frozenset(["tr", "td", "th"]),
    "td": frozenset(["td", "th"]),
    "th": frozenset(["td", "th"]),
    "option": frozenset(["option"]),
    "p": frozenset(["p"]),
}

_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
    "nbsp": " ",
}


def decode_entities(text):
    """Decode the supported character entities in ``text``."""
    if "&" not in text:
        return text
    out = []
    i = 0
    length = len(text)
    while i < length:
        char = text[i]
        if char != "&":
            out.append(char)
            i += 1
            continue
        end = text.find(";", i + 1)
        if end == -1 or end - i > 10:
            out.append(char)
            i += 1
            continue
        body = text[i + 1:end]
        if body.startswith("#x") or body.startswith("#X"):
            try:
                out.append(chr(int(body[2:], 16)))
                i = end + 1
                continue
            except ValueError:
                pass
        elif body.startswith("#"):
            try:
                out.append(chr(int(body[1:])))
                i = end + 1
                continue
            except ValueError:
                pass
        elif body in _ENTITIES:
            out.append(_ENTITIES[body])
            i = end + 1
            continue
        out.append(char)
        i += 1
    return "".join(out)


class _Tokenizer:
    """Streams (kind, payload) tokens out of an HTML string."""

    def __init__(self, markup):
        self.markup = markup
        self.pos = 0
        self.length = len(markup)

    def tokens(self):
        """Yield ('text', str) | ('comment', str) | ('doctype', str) |
        ('start', (name, attrs, self_closing)) | ('end', name)."""
        while self.pos < self.length:
            lt = self.markup.find("<", self.pos)
            if lt == -1:
                yield ("text", self.markup[self.pos:])
                self.pos = self.length
                return
            if lt > self.pos:
                yield ("text", self.markup[self.pos:lt])
                self.pos = lt
            token = self._read_tag()
            if token is not None:
                yield token

    def _read_tag(self):
        markup = self.markup
        pos = self.pos
        if markup.startswith("<!--", pos):
            end = markup.find("-->", pos + 4)
            if end == -1:
                end = self.length
                self.pos = end
                return ("comment", markup[pos + 4:end])
            self.pos = end + 3
            return ("comment", markup[pos + 4:end])
        if markup.startswith("<!", pos):
            end = markup.find(">", pos)
            end = self.length if end == -1 else end
            self.pos = min(end + 1, self.length)
            return ("doctype", markup[pos + 2:end])
        if markup.startswith("</", pos):
            end = markup.find(">", pos)
            if end == -1:
                self.pos = self.length
                return None
            name = markup[pos + 2:end].strip().lower()
            self.pos = end + 1
            return ("end", name)
        # Start tag. A lone '<' not followed by a letter is literal text.
        if pos + 1 >= self.length or not markup[pos + 1].isalpha():
            self.pos = pos + 1
            return ("text", "<")
        end = markup.find(">", pos)
        if end == -1:
            self.pos = self.length
            return None
        body = markup[pos + 1:end]
        self.pos = end + 1
        self_closing = body.endswith("/")
        if self_closing:
            body = body[:-1]
        name, attrs = self._parse_tag_body(body)
        return ("start", (name, attrs, self_closing))

    @staticmethod
    def _parse_tag_body(body):
        """Split ``div id="x" disabled`` into (name, attrs)."""
        i = 0
        length = len(body)
        while i < length and not body[i].isspace():
            i += 1
        name = body[:i].lower()
        attrs = {}
        while i < length:
            while i < length and body[i].isspace():
                i += 1
            if i >= length:
                break
            start = i
            while i < length and body[i] not in "=" and not body[i].isspace():
                i += 1
            attr_name = body[start:i].lower()
            if not attr_name:
                i += 1
                continue
            while i < length and body[i].isspace():
                i += 1
            if i < length and body[i] == "=":
                i += 1
                while i < length and body[i].isspace():
                    i += 1
                if i < length and body[i] in "\"'":
                    quote = body[i]
                    i += 1
                    start = i
                    while i < length and body[i] != quote:
                        i += 1
                    value = body[start:i]
                    i += 1
                else:
                    start = i
                    while i < length and not body[i].isspace():
                        i += 1
                    value = body[start:i]
                attrs[attr_name] = decode_entities(value)
            else:
                attrs[attr_name] = ""
        return name, attrs


def _raw_text_end(markup, lower, pos, tag):
    """Find the closing ``</tag>`` for a raw-text element.

    ``lower`` is ``markup`` with A-Z folded to a-z (``_ASCII_LOWER``),
    computed once per parse by the caller, so a page with k raw-text
    elements costs O(n), not O(k*n).
    """
    needle = "</" + tag
    search = pos
    while True:
        idx = lower.find(needle, search)
        if idx == -1:
            return len(markup), len(markup)
        after = idx + len(needle)
        # must be followed by whitespace or '>'
        if after < len(markup) and markup[after] not in "> \t\n":
            search = after
            continue
        close = markup.find(">", after)
        close = len(markup) if close == -1 else close
        return idx, close + 1


#: Page templates: markup -> the private Document parsed from it, in
#: LRU order. Templates are never handed out, only cloned.
_TEMPLATES = OrderedDict()
_TEMPLATES_MAX = 64


@perf.register_cache_clearer
def _clear_templates():
    _TEMPLATES.clear()


def parse_html(markup, url=""):
    """Parse a complete HTML document and return a :class:`Document`.

    Ensures an <html>/<body> skeleton exists so callers can always rely
    on ``document.body``. Every call returns a new tree the caller may
    mutate freely; a markup string parsed before is cloned from its
    template instead of parsed again (module docstring).
    """
    if not perf.fast_path_enabled():
        return parse_html_uncached(markup, url)
    template = _TEMPLATES.get(markup)
    if template is not None:
        _TEMPLATES.move_to_end(markup)
        perf.record("dom.parse", hit=True)
    else:
        perf.record("dom.parse", hit=False)
        template = parse_html_uncached(markup)
        _TEMPLATES[markup] = template
        if len(_TEMPLATES) > _TEMPLATES_MAX:
            _TEMPLATES.popitem(last=False)
    return _clone_document(template, url)


def parse_html_uncached(markup, url=""):
    """:func:`parse_html` without the template store.

    For markup parsed once and never again, such as a page snapshot:
    storing it would only evict the templates of pages that repeat.
    """
    document = Document(url=url)
    _build_tree(markup, document)
    _ensure_skeleton(document)
    return document


def _clone_document(template, url):
    """A deep copy of ``template`` with ``url``, built in one walk.

    Nodes are made without their constructors and linked directly
    rather than through ``append_child``: the template is a finished
    tree, so there is nothing to check and no mutation to count. Each
    copy gets every field its constructor would set (a test compares
    the field names with a parsed tree's). The copy takes the
    template's generation counters, so it reads exactly as a fresh
    parse of the same markup.
    """
    document = Document(url=url)
    document._generation = template._generation
    document._structure_generation = template._structure_generation
    document._attribute_generation = template._attribute_generation
    document._text_generation = template._text_generation
    new = object.__new__
    pending = [(template, document)]
    while pending:
        source, target = pending.pop()
        children = target.children
        for child in source.children:
            kind = type(child)
            copy = new(kind)
            copy.parent = target
            copy.children = []
            copy.owner_document = document
            copy._listeners = {}
            if kind is Element:
                copy.tag = child.tag
                copy.attributes = child.attributes.copy()
                copy._value = None
                if child.children:
                    pending.append((child, copy))
            else:
                copy._data = child._data
            children.append(copy)
    return document


def parse_fragment(markup, document=None):
    """Parse a fragment; returns a list of detached top-level nodes."""
    owner = document if document is not None else Document()
    holder = owner.create_element("template-holder")
    _build_tree(markup, holder)
    nodes = list(holder.children)
    for node in nodes:
        holder.remove_child(node)
    return nodes


def _build_tree(markup, root):
    tokenizer = _Tokenizer(markup)
    stack = [root]
    lower = None

    tokens = tokenizer.tokens()
    for kind, payload in tokens:
        top = stack[-1]
        if kind == "text":
            text = decode_entities(payload)
            if text.strip() or (text and isinstance(top, Element)
                                and top.tag in ("pre", "textarea")):
                top.append_child(Text(text))
            continue
        if kind == "comment":
            top.append_child(Comment(payload))
            continue
        if kind == "doctype":
            continue
        if kind == "start":
            name, attrs, self_closing = payload
            implied = _IMPLIED_END.get(name)
            if implied:
                while (
                    isinstance(stack[-1], Element)
                    and stack[-1].tag in implied
                    and len(stack) > 1
                ):
                    stack.pop()
            element = Element(name, attrs)
            stack[-1].append_child(element)
            if name in RAW_TEXT_ELEMENTS and not self_closing:
                raw_start = tokenizer.pos
                if lower is None:
                    lower = markup.translate(_ASCII_LOWER)
                raw_end, resume = _raw_text_end(markup, lower, raw_start,
                                                name)
                raw = markup[raw_start:raw_end]
                if raw:
                    element.append_child(Text(raw))
                tokenizer.pos = resume
                continue
            if not self_closing and name not in VOID_ELEMENTS:
                stack.append(element)
            continue
        if kind == "end":
            name = payload
            if name in VOID_ELEMENTS:
                continue
            # Pop to the nearest matching open element (recovery).
            for depth in range(len(stack) - 1, 0, -1):
                node = stack[depth]
                if isinstance(node, Element) and node.tag == name:
                    del stack[depth:]
                    break


def _ensure_skeleton(document):
    html = None
    for child in document.child_elements():
        if child.tag == "html":
            html = child
            break
    if html is None:
        html = document.create_element("html")
        strays = list(document.children)
        for stray in strays:
            document.remove_child(stray)
        document.append_child(html)
        for stray in strays:
            html.append_child(stray)
    body = None
    head = None
    for child in html.child_elements():
        if child.tag == "body":
            body = child
        elif child.tag == "head":
            head = child
    if head is None:
        head = document.create_element("head")
        html.insert_before(head, html.children[0] if html.children else None)
    if body is None:
        body = document.create_element("body")
        strays = [
            child for child in list(html.children)
            if child is not head and not (isinstance(child, Element) and child.tag == "body")
        ]
        html.append_child(body)
        for stray in strays:
            html.remove_child(stray)
            body.append_child(stray)

"""WaRR Commands.

A WaRR Command (paper, Section IV-B) contains the action type (``click``,
``doubleclick``, ``drag``, ``type``), an XPath identifier of the target
element, action-specific information, and the time elapsed since the
previous action. The wire format matches Figure 4::

    click //div/span[@id="start"] 82,44 1
    type //td/div[@id="content"] [H,72] 3
    drag //div[@id="widget"] 15,-4 12

Click commands carry the click position as backup identification; drag
commands carry the positional delta; type commands carry the key's
string representation and its virtual key code.

One addition: ``switchframe`` commands mark the recorder observing
interaction move into (or back out of) an iframe. The paper implements
frame switching inside ChromeDriver with "a custom iframe name to signal
a change to the default iframe"; we surface the same information as an
explicit command so traces stay self-contained. The reserved name
``default`` switches back to the main frame.
"""

import re

from repro.events.keys import is_printable
from repro.util.errors import TraceFormatError, XPathSyntaxError
from repro.xpath.parser import parse_xpath

#: Frame locator meaning "the main document" (paper's custom iframe name).
DEFAULT_FRAME = "default"


class WarrCommand:
    """Base class; concrete commands define ``action`` and a payload.

    A command replayed on a located element also defines
    ``act(client, element, now)``: the one ChromeDriver client call its
    action makes, given the client and element the locate stage found
    and ``now``, the virtual time if the caller has just read it (else
    None). ``act`` is None for every other command (frame switches, and
    actions no replayer knows), which the session engine handles or
    rejects itself.
    """

    action = None
    act = None

    def __init__(self, xpath, elapsed_ms=0):
        self.xpath = str(xpath)
        self.elapsed_ms = int(elapsed_ms)

    def payload(self):
        """Action-specific middle field of the wire format."""
        raise NotImplementedError

    def to_line(self):
        """Serialize to one Figure-4-style trace line."""
        return "%s %s %s %d" % (self.action, self.xpath, self.payload(),
                                self.elapsed_ms)

    def copy(self, **overrides):
        """Duplicate the command, optionally overriding fields.

        WebErr's error injectors use this to build mutated traces
        without touching the original.
        """
        fields = dict(self._fields())
        fields.update(overrides)
        return type(self)(**fields)

    def _fields(self):
        return {"xpath": self.xpath, "elapsed_ms": self.elapsed_ms}

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.to_line() == other.to_line()
        )

    def __hash__(self):
        return hash(self.to_line())

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.to_line())


class ClickCommand(WarrCommand):
    """A single mouse click; (x, y) is the backup position."""

    action = "click"

    def __init__(self, xpath, x=0, y=0, elapsed_ms=0):
        super().__init__(xpath, elapsed_ms)
        self.x = int(x)
        self.y = int(y)

    def payload(self):
        return "%d,%d" % (self.x, self.y)

    def act(self, client, element, now=None):
        client.click(element, now)

    def _fields(self):
        return {"xpath": self.xpath, "x": self.x, "y": self.y,
                "elapsed_ms": self.elapsed_ms}


class DoubleClickCommand(ClickCommand):
    """A double click (Google Docs-style interactions)."""

    action = "doubleclick"

    def act(self, client, element, now=None):
        client.double_click(element)


class DragCommand(WarrCommand):
    """A UI-element drag; (dx, dy) is the positional difference."""

    action = "drag"

    def __init__(self, xpath, dx=0, dy=0, elapsed_ms=0):
        super().__init__(xpath, elapsed_ms)
        self.dx = int(dx)
        self.dy = int(dy)

    def payload(self):
        return "%d,%d" % (self.dx, self.dy)

    def act(self, client, element, now=None):
        client.drag(element, self.dx, self.dy, now)

    def _fields(self):
        return {"xpath": self.xpath, "dx": self.dx, "dy": self.dy,
                "elapsed_ms": self.elapsed_ms}


#: Characters in a typed key that would corrupt the one-line wire
#: format: a newline splits the line, ``]`` ends the payload early, a
#: bare backslash would be ambiguous with the escapes themselves, and a
#: raw ``[`` after a whitespace key would look like the payload opener.
_KEY_ESCAPES = {
    "\\": "\\\\",
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
    "[": "\\[",
    "]": "\\]",
}
_KEY_UNESCAPES = {"\\": "\\", "n": "\n", "r": "\r", "t": "\t",
                  "[": "[", "]": "]"}
_KEY_ESCAPE_RE = re.compile(r"[\\\n\r\t\[\]]")
_KEY_UNESCAPE_RE = re.compile(r"\\(.)")


def _escape_key(key):
    return _KEY_ESCAPE_RE.sub(lambda m: _KEY_ESCAPES[m.group(0)], key)


def _unescape_key(text):
    return _KEY_UNESCAPE_RE.sub(
        lambda m: _KEY_UNESCAPES.get(m.group(1), m.group(1)), text)


class TypeCommand(WarrCommand):
    """One keystroke: string representation plus virtual key code."""

    action = "type"

    def __init__(self, xpath, key="", code=0, elapsed_ms=0):
        super().__init__(xpath, elapsed_ms)
        self.key = key
        self.code = int(code)
        #: Whether the key produces a character, resolved once here
        #: rather than on every replay of the keystroke.
        self.printable = is_printable(key)

    def payload(self):
        return "[%s,%d]" % (_escape_key(self.key), self.code)

    def act(self, client, element, now=None):
        client.send_key(element, self.key, self.code, now, self.printable)

    def _fields(self):
        return {"xpath": self.xpath, "key": self.key, "code": self.code,
                "elapsed_ms": self.elapsed_ms}


class SwitchFrameCommand(WarrCommand):
    """Interaction moved to another frame (or back to ``default``)."""

    action = "switchframe"

    def __init__(self, xpath, elapsed_ms=0):
        super().__init__(xpath, elapsed_ms)

    def payload(self):
        return "-"

    @property
    def is_default(self):
        return self.xpath == DEFAULT_FRAME


_COMMAND_TYPES = {
    cls.action: cls
    for cls in (ClickCommand, DoubleClickCommand, DragCommand, TypeCommand,
                SwitchFrameCommand)
}

# payload matchers anchored at the end of "<xpath> <payload>"
_CLICK_RE = re.compile(r"^(?P<xpath>.+)\s(?P<x>-?\d+),(?P<y>-?\d+)$")
_TYPE_RE = re.compile(r"^(?P<xpath>.+)\s\[(?P<key>(?:\\.|[^\]\\])*),(?P<code>\d+)\]$")
_FRAME_RE = re.compile(r"^(?P<xpath>.+)\s-$")


def parse_command_line(line):
    """Parse one trace line back into a :class:`WarrCommand`.

    The locator is compiled here, so a line whose XPath does not parse
    is a :class:`TraceFormatError` naming the line, and the compiled
    path is already in the shared compile cache when replay looks it up.
    """
    command = _parse_fields(line)
    if not (command.action == "switchframe" and command.is_default):
        try:
            parse_xpath(command.xpath)
        except XPathSyntaxError as error:
            raise TraceFormatError(
                "invalid locator in line %r: %s" % (line, error))
    return command


def _parse_fields(line):
    text = line.strip()
    if not text:
        raise TraceFormatError("cannot parse empty trace line")
    try:
        action, rest = text.split(None, 1)
    except ValueError:
        raise TraceFormatError("malformed trace line %r" % line)
    command_type = _COMMAND_TYPES.get(action)
    if command_type is None:
        raise TraceFormatError("unknown WaRR command %r in line %r" % (action, line))
    try:
        middle, elapsed_text = rest.rsplit(None, 1)
        elapsed_ms = int(elapsed_text)
    except ValueError:
        raise TraceFormatError("missing elapsed time in line %r" % line)
    if elapsed_ms < 0:
        raise TraceFormatError(
            "negative elapsed time %d in line %r" % (elapsed_ms, line))

    if command_type in (ClickCommand, DoubleClickCommand):
        match = _CLICK_RE.match(middle)
        if not match:
            raise TraceFormatError("malformed click payload in %r" % line)
        return command_type(match.group("xpath").strip(),
                            x=int(match.group("x")), y=int(match.group("y")),
                            elapsed_ms=elapsed_ms)
    if command_type is DragCommand:
        match = _CLICK_RE.match(middle)
        if not match:
            raise TraceFormatError("malformed drag payload in %r" % line)
        return DragCommand(match.group("xpath").strip(),
                           dx=int(match.group("x")), dy=int(match.group("y")),
                           elapsed_ms=elapsed_ms)
    if command_type is TypeCommand:
        match = _TYPE_RE.match(middle)
        if not match:
            raise TraceFormatError("malformed type payload in %r" % line)
        return TypeCommand(match.group("xpath").strip(),
                           key=_unescape_key(match.group("key")),
                           code=int(match.group("code")),
                           elapsed_ms=elapsed_ms)
    match = _FRAME_RE.match(middle)
    if not match:
        raise TraceFormatError("malformed switchframe payload in %r" % line)
    return SwitchFrameCommand(match.group("xpath").strip(), elapsed_ms=elapsed_ms)

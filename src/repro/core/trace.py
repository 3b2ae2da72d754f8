"""Interaction traces: ordered WaRR Commands plus session metadata.

A trace file is the Figure-4 command listing preceded by ``#!`` header
lines carrying what replay needs to start (the entry URL). Traces are
value objects — WebErr's injectors derive mutated copies, never edit in
place.
"""

import hashlib

from repro.core.commands import WarrCommand, parse_command_line
from repro.util.errors import TraceFormatError

_MAGIC = "#! warr-trace v1"


class WarrTrace:
    """An ordered sequence of WaRR Commands with a start URL.

    The commands are values: a command is never edited in place (a
    changed command is a new one, made with
    :meth:`~repro.core.commands.WarrCommand.copy`). The trace itself may
    be edited — its list appended to or replaced, its label or start URL
    reassigned — but only through those three attributes. That is what
    lets :meth:`to_text` memoize: its text (and :meth:`digest`) is kept
    under the key ``(start_url, label, tuple(commands))``, so any edit
    of the list, label or URL serializes afresh, while a campaign that
    replays the same trace object batch after batch serializes it once.
    """

    #: ``(key, text, digest)`` of the last serialization; the digest is
    #: None until :meth:`digest` is asked for.
    _text_memo = None

    def __init__(self, start_url="", commands=None, label=""):
        self.start_url = start_url
        self.commands = list(commands or [])
        self.label = label

    # -- container protocol --------------------------------------------------

    def __len__(self):
        return len(self.commands)

    def __iter__(self):
        return iter(self.commands)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return WarrTrace(self.start_url, self.commands[index], self.label)
        return self.commands[index]

    def append(self, command):
        if not isinstance(command, WarrCommand):
            raise TypeError("traces hold WarrCommand objects, got %r" % (command,))
        self.commands.append(command)

    # -- derivation ------------------------------------------------------------

    def copy(self, commands=None, label=None):
        """A new trace sharing the start URL."""
        return WarrTrace(
            self.start_url,
            [c.copy() for c in self.commands] if commands is None else commands,
            self.label if label is None else label,
        )

    def with_delays_scaled(self, factor):
        """A copy with every inter-command delay multiplied by ``factor``.

        ``factor=0`` is WebErr's timing stress test: replay "with no wait
        time" (paper, Section V-B).
        """
        if factor < 0:
            raise ValueError("delay factor must be non-negative")
        return self.copy(
            commands=[
                c.copy(elapsed_ms=int(c.elapsed_ms * factor)) for c in self.commands
            ]
        )

    def with_delays_fixed(self, delay_ms):
        """A copy with every delay replaced by a constant."""
        return self.copy(
            commands=[c.copy(elapsed_ms=int(delay_ms)) for c in self.commands]
        )

    # -- measurements ---------------------------------------------------------

    def total_duration_ms(self):
        """Sum of inter-command delays (the session's length)."""
        return sum(c.elapsed_ms for c in self.commands)

    def action_counts(self):
        """Histogram of command actions."""
        counts = {}
        for command in self.commands:
            counts[command.action] = counts.get(command.action, 0) + 1
        return counts

    # -- serialization -----------------------------------------------------------

    def to_text(self):
        """Serialize to the trace file format (memoized; see the class)."""
        return self._memo()[1]

    def digest(self):
        """SHA-256 hex digest of :meth:`to_text`'s UTF-8, memoized with
        the text: what a run journal binds each of its entries to."""
        memo = self._memo()
        if memo[2] is None:
            memo = self._text_memo = (
                memo[0], memo[1],
                hashlib.sha256(memo[1].encode("utf-8")).hexdigest())
        return memo[2]

    def _memo(self):
        # Comparing the key is one C-level pass: each command compares
        # by identity first, so an unedited list never calls __eq__.
        key = (self.start_url, self.label, tuple(self.commands))
        memo = self._text_memo
        if memo is not None and memo[0] == key:
            return memo
        lines = [_MAGIC]
        if self.start_url:
            lines.append("#! url %s" % self.start_url)
        if self.label:
            lines.append("#! label %s" % self.label)
        lines.extend(command.to_line() for command in self.commands)
        memo = self._text_memo = (key, "\n".join(lines) + "\n", None)
        return memo

    @classmethod
    def from_text(cls, text):
        """Parse a trace file's contents."""
        lines = text.splitlines()
        if not lines or lines[0].strip() != _MAGIC:
            raise TraceFormatError("missing trace header %r" % _MAGIC)
        trace = cls()
        for line in lines[1:]:
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#! url "):
                trace.start_url = stripped[len("#! url "):].strip()
                continue
            if stripped.startswith("#! label "):
                trace.label = stripped[len("#! label "):].strip()
                continue
            if stripped.startswith("#"):
                continue
            trace.append(parse_command_line(stripped))
        return trace

    def save(self, path):
        """Write the trace to a file."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_text())

    @classmethod
    def load(cls, path):
        """Read a trace from a file.

        A malformed file raises :class:`TraceFormatError` whose message
        starts with ``path``, so a batch of many files names the bad one.
        """
        with open(path, "r", encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as error:
                raise TraceFormatError(
                    "%s is not UTF-8 text: %s" % (path, error))
        try:
            return cls.from_text(text)
        except TraceFormatError as error:
            raise TraceFormatError("%s: %s" % (path, error)) from None

    def __eq__(self, other):
        """Content equality: same start URL and same command sequence.

        The ``label`` is descriptive metadata (a session name), not
        recorded content, so it does not participate — consistent with
        :meth:`copy`, whose relabelled copies still compare equal, and
        with the wire format, where the label lives in a header comment
        rather than in any command line.
        """
        return (
            isinstance(other, WarrTrace)
            and self.start_url == other.start_url
            and self.commands == other.commands
        )

    def __repr__(self):
        return "WarrTrace(url=%r, %d commands)" % (self.start_url, len(self.commands))

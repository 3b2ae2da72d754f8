"""Property-based tests over traces and commands."""

from hypothesis import given, settings, strategies as st

from repro.auser.privacy import scrub_trace
from repro.core.commands import (
    ClickCommand,
    DoubleClickCommand,
    DragCommand,
    SwitchFrameCommand,
    TypeCommand,
)
from repro.core.trace import WarrTrace
from repro.util.errors import TraceFormatError
from repro.xpath.parser import parse_xpath

_xpaths = st.sampled_from([
    '//div/span[@id="start"]',
    '//td/div[@id="content"]',
    '//td/div[text()="Save"]',
    '//input[@name="passwd"]',
    "/html/body/div[2]/p",
    '//a[contains(@href, "about")]',
])

_keys = st.sampled_from(list("abcxyzABC123!? ,.") + ["Enter", "Backspace",
                                                     "Control"])


@st.composite
def commands(draw):
    kind = draw(st.integers(0, 4))
    xpath = draw(_xpaths)
    elapsed = draw(st.integers(0, 100_000))
    if kind == 0:
        return ClickCommand(xpath, x=draw(st.integers(0, 2000)),
                            y=draw(st.integers(0, 2000)), elapsed_ms=elapsed)
    if kind == 1:
        return DoubleClickCommand(xpath, x=draw(st.integers(0, 2000)),
                                  y=draw(st.integers(0, 2000)),
                                  elapsed_ms=elapsed)
    if kind == 2:
        return DragCommand(xpath, dx=draw(st.integers(-300, 300)),
                           dy=draw(st.integers(-300, 300)),
                           elapsed_ms=elapsed)
    if kind == 3:
        key = draw(_keys)
        return TypeCommand(xpath, key=key, code=draw(st.integers(0, 255)),
                           elapsed_ms=elapsed)
    return SwitchFrameCommand(draw(st.sampled_from(
        ["default", '//iframe[@id="child"]'])), elapsed_ms=elapsed)


@st.composite
def traces(draw):
    return WarrTrace(
        start_url="http://app.example/%s" % draw(st.sampled_from(
            ["", "edit/home", "compose"])),
        commands=draw(st.lists(commands(), max_size=25)),
    )


@given(traces())
@settings(max_examples=60, deadline=None)
def test_trace_text_round_trips(trace):
    assert WarrTrace.from_text(trace.to_text()) == trace


@given(traces())
@settings(max_examples=40, deadline=None)
def test_every_command_line_round_trips(trace):
    from repro.core.commands import parse_command_line

    for command in trace:
        assert parse_command_line(command.to_line()) == command


@given(traces(), st.floats(0.0, 4.0))
@settings(max_examples=40, deadline=None)
def test_delay_scaling_bounds_duration(trace, factor):
    scaled = trace.with_delays_scaled(factor)
    assert len(scaled) == len(trace)
    # int() truncation: scaled duration never exceeds factor * original.
    assert scaled.total_duration_ms() <= factor * trace.total_duration_ms() + 1


@given(traces())
@settings(max_examples=40, deadline=None)
def test_no_wait_has_zero_duration(trace):
    assert trace.with_delays_scaled(0).total_duration_ms() == 0


@given(traces())
@settings(max_examples=40, deadline=None)
def test_scrub_preserves_shape(trace):
    scrubbed = scrub_trace(trace)
    assert len(scrubbed) == len(trace)
    assert [c.action for c in scrubbed] == [c.action for c in trace]
    assert [c.elapsed_ms for c in scrubbed] == [c.elapsed_ms for c in trace]


@given(traces())
@settings(max_examples=40, deadline=None)
def test_scrub_is_idempotent(trace):
    once = scrub_trace(trace)
    twice = scrub_trace(once)
    assert [c.to_line() for c in twice] == [c.to_line() for c in once]


@given(traces())
@settings(max_examples=40, deadline=None)
def test_scrub_never_leaks_sensitive_keys(trace):
    scrubbed = scrub_trace(trace)
    for command in scrubbed:
        if isinstance(command, TypeCommand) and "passwd" in command.xpath:
            assert command.key == "*"
            assert command.code == 0


@given(traces())
@settings(max_examples=30, deadline=None)
def test_copy_is_equal_but_independent(trace):
    clone = trace.copy()
    assert clone == trace
    if clone.commands:
        clone.commands.pop()
        assert len(clone) == len(trace) - 1


# -- fuzzing the .warr text decoder ------------------------------------------

#: Characters that steer the line parser: separators, payload brackets,
#: escapes, XPath syntax, digits and signs, and the Unicode whitespace
#: and line breaks that str.split, str.strip and str.splitlines treat
#: differently.
_FUZZ_CHARS = ("#!/[]@=()*,\\-+_ 0123456789\"'abcdefgkptuvwy"
               "\t\r\n\x0b\x0c\x1c\x85\xa0\u2028\u00b2\u0663")

_SEED_TEXTS = [
    WarrTrace(start_url="http://sites.example.com/edit/home", label="seed",
              commands=[
                  ClickCommand('//div/span[@id="start"]', x=82, y=44,
                               elapsed_ms=1),
                  TypeCommand('//td/div[@id="content"]', key="H", code=72,
                              elapsed_ms=3),
                  TypeCommand('//td/div[@id="content"]', key="]", code=221),
                  DragCommand('//div[@id="widget"]', dx=15, dy=-4,
                              elapsed_ms=12),
                  DoubleClickCommand('//td/div[text()="Save"]', x=5, y=6),
                  SwitchFrameCommand('//iframe[@id="child"]', elapsed_ms=2),
                  SwitchFrameCommand("default"),
              ]).to_text(),
    "#! warr-trace v1\n# comment\n\nclick //a[contains(@href, \"x\")] 1,2 0\n",
]

_text_mutation = st.tuples(
    st.sampled_from(["set", "insert", "delete"]),
    st.integers(min_value=0, max_value=10 ** 6),
    st.sampled_from(_FUZZ_CHARS),
)


def _mutate_text(text, mutations):
    chars = list(text)
    for kind, where, char in mutations:
        position = where % (len(chars) + 1)
        if kind == "insert":
            chars.insert(position, char)
        elif position < len(chars):
            if kind == "set":
                chars[position] = char
            else:
                del chars[position:position + 1 + where % 4]
    return "".join(chars)


def decode_or_format_error(text):
    """Decode ``text``: it must round-trip, or raise TraceFormatError."""
    try:
        trace = WarrTrace.from_text(text)
    except TraceFormatError:
        return None
    for command in trace:
        # A decoded locator always compiles: replay cannot hit a syntax
        # error in a trace that came from text.
        if not (command.action == "switchframe" and command.is_default):
            parse_xpath(command.xpath)
    encoded = trace.to_text()
    again = WarrTrace.from_text(encoded)
    assert again == trace
    assert again.label == trace.label
    assert again.to_text() == encoded
    return trace


class TestDecoderFuzz:
    """Hostile .warr text: a decoded trace or a TraceFormatError."""

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=80))
    def test_arbitrary_text(self, text):
        decode_or_format_error(text)
        decode_or_format_error("#! warr-trace v1\n" + text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=_FUZZ_CHARS, max_size=60))
    def test_arbitrary_command_lines(self, line):
        decode_or_format_error("#! warr-trace v1\n" + line)
        for action in ("click", "type", "drag", "switchframe"):
            decode_or_format_error("#! warr-trace v1\n%s %s" % (action, line))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(range(len(_SEED_TEXTS))),
           st.lists(_text_mutation, min_size=1, max_size=4))
    def test_mutated_valid_traces(self, which, mutations):
        decode_or_format_error(_mutate_text(_SEED_TEXTS[which], mutations))

    def test_seed_texts_decode(self):
        for text in _SEED_TEXTS:
            assert decode_or_format_error(text) is not None

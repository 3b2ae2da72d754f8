"""WaRR Command model and the Figure-4 wire format."""

import pytest
from hypothesis import given, strategies as st

from repro.core.commands import (
    ClickCommand,
    DoubleClickCommand,
    DragCommand,
    SwitchFrameCommand,
    TypeCommand,
    parse_command_line,
    DEFAULT_FRAME,
)
from repro.util.errors import TraceFormatError


class TestSerialization:
    def test_click_line_matches_figure4(self):
        command = ClickCommand('//div/span[@id="start"]', x=82, y=44,
                               elapsed_ms=1)
        assert command.to_line() == 'click //div/span[@id="start"] 82,44 1'

    def test_type_line_matches_figure4(self):
        command = TypeCommand('//td/div[@id="content"]', key="H", code=72,
                              elapsed_ms=3)
        assert command.to_line() == 'type //td/div[@id="content"] [H,72] 3'

    def test_space_key_payload(self):
        command = TypeCommand("//div", key=" ", code=32, elapsed_ms=12)
        assert command.to_line() == "type //div [ ,32] 12"

    def test_doubleclick_line(self):
        command = DoubleClickCommand("//div", x=5, y=6, elapsed_ms=9)
        assert command.to_line() == "doubleclick //div 5,6 9"

    def test_drag_line_with_negative_delta(self):
        command = DragCommand("//div", dx=-10, dy=4, elapsed_ms=2)
        assert command.to_line() == "drag //div -10,4 2"

    def test_switchframe_line(self):
        command = SwitchFrameCommand(DEFAULT_FRAME, elapsed_ms=0)
        assert command.to_line() == "switchframe default - 0"


class TestParsing:
    @pytest.mark.parametrize("line", [
        'click //div/span[@id="start"] 82,44 1',
        'type //td/div[@id="content"] [H,72] 3',
        'type //td/div[@id="content"] [ ,32] 12',
        'type //td/div[@id="content"] [!,49] 31',
        'click //td/div[text()="Save"] 74,51 37',
        "doubleclick //div[@id=\"cell\"] 10,20 5",
        "drag //div -3,-4 0",
        "switchframe //iframe[@id=\"x\"] - 2",
        "switchframe default - 0",
    ])
    def test_round_trip(self, line):
        assert parse_command_line(line).to_line() == line

    def test_figure4_trace_parses(self):
        figure4 = '''click //div/span[@id="start"] 82,44 1
type //td/div[@id="content"] [H,72] 3
type //td/div[@id="content"] [e,69] 4
type //td/div[@id="content"] [l,76] 7
type //td/div[@id="content"] [l,76] 9
type //td/div[@id="content"] [o,79] 11
type //td/div[@id="content"] [ ,32] 12
type //td/div[@id="content"] [w,87] 15
type //td/div[@id="content"] [o,79] 17
type //td/div[@id="content"] [r,82] 19
type //td/div[@id="content"] [l,76] 23
type //td/div[@id="content"] [d,68] 29
type //td/div[@id="content"] [!,49] 31
click //td/div[text()="Save"] 74,51 37'''
        commands = [parse_command_line(line) for line in figure4.splitlines()]
        assert len(commands) == 14
        typed = "".join(c.key for c in commands
                        if isinstance(c, TypeCommand))
        assert typed == "Hello world!"

    def test_xpath_with_spaces_in_text_predicate(self):
        line = 'click //div[text()="Save and close"] 1,2 3'
        command = parse_command_line(line)
        assert command.xpath == '//div[text()="Save and close"]'

    def test_comma_key_parses(self):
        command = parse_command_line("type //div [,,188] 5")
        assert command.key == ","
        assert command.code == 188

    @pytest.mark.parametrize("bad", [
        "", "click", "unknown //div 1,2 3", "click //div 1,2",
        "click //div nopayload 3", "type //div [H,notanumber] 3",
        "drag //div 5 3",
    ])
    def test_malformed_lines_rejected(self, bad):
        with pytest.raises(TraceFormatError):
            parse_command_line(bad)

    @pytest.mark.parametrize("line", [
        "click //*[@id='start' 10,10 5",
        "doubleclick //div[ 1,2 3",
        "type // [a,65] 0",
        "drag //div[@id=] 3,4 1",
        "switchframe //iframe[[1]] - 0",
    ])
    def test_invalid_locator_rejected_naming_the_line(self, line):
        with pytest.raises(TraceFormatError, match="invalid locator") as info:
            parse_command_line(line)
        assert repr(line) in str(info.value)

    def test_default_frame_is_not_a_locator(self):
        assert parse_command_line("switchframe default - 0").is_default

    def test_parsed_locator_is_in_the_compile_cache(self):
        from repro import perf
        from repro.xpath.parser import parse_xpath

        with perf.fast_path(True):
            command = parse_command_line('click //p[@id="cached-42"] 1,2 0')
            hits = perf.stats.counter("xpath.compile")[0]
            parse_xpath(command.xpath)
            assert perf.stats.counter("xpath.compile")[0] == hits + 1


class TestCopy:
    def test_copy_preserves_fields(self):
        command = ClickCommand("//a", x=1, y=2, elapsed_ms=3)
        clone = command.copy()
        assert clone == command
        assert clone is not command

    def test_copy_with_override(self):
        command = TypeCommand("//div", key="a", code=65, elapsed_ms=100)
        rushed = command.copy(elapsed_ms=0)
        assert rushed.elapsed_ms == 0
        assert rushed.key == "a"
        assert command.elapsed_ms == 100

    def test_equality_and_hash(self):
        a = TypeCommand("//div", key="a", code=65, elapsed_ms=1)
        b = TypeCommand("//div", key="a", code=65, elapsed_ms=1)
        assert a == b
        assert hash(a) == hash(b)
        assert a != TypeCommand("//div", key="b", code=66, elapsed_ms=1)

    def test_click_and_doubleclick_differ(self):
        assert ClickCommand("//a", 1, 2, 3) != DoubleClickCommand("//a", 1, 2, 3)


_printable_keys = st.sampled_from(
    list("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
         "!@#$%^&*()-_=+;:'\"<>?/ ,"))


@given(key=_printable_keys, code=st.integers(0, 255),
       elapsed=st.integers(0, 10**6))
def test_property_type_command_round_trips(key, code, elapsed):
    command = TypeCommand('//td/div[@id="content"]', key=key, code=code,
                          elapsed_ms=elapsed)
    assert parse_command_line(command.to_line()) == command


@given(x=st.integers(-5000, 5000), y=st.integers(-5000, 5000),
       elapsed=st.integers(0, 10**6))
def test_property_click_command_round_trips(x, y, elapsed):
    command = ClickCommand('//div[text()="a b c"]', x=x, y=y,
                           elapsed_ms=elapsed)
    assert parse_command_line(command.to_line()) == command


class TestNegativeElapsed:
    def test_negative_elapsed_rejected(self):
        with pytest.raises(TraceFormatError, match="negative elapsed"):
            parse_command_line("click //div 1,2 -5")

    def test_zero_elapsed_still_parses(self):
        assert parse_command_line("click //div 1,2 0").elapsed_ms == 0

    @pytest.mark.parametrize("line", [
        "type //div [H,72] -1",
        "drag //div 3,4 -100",
        "switchframe default - -2",
    ])
    def test_every_command_kind_rejects_negative(self, line):
        with pytest.raises(TraceFormatError):
            parse_command_line(line)


class TestKeyEscaping:
    """Control characters in a typed key must survive the wire format.

    Without escaping, a newline key split the trace line in two and a
    ``]`` key ended the payload early — both corrupted the round trip.
    """

    @pytest.mark.parametrize("key", ["\n", "\r", "\t", "]", "\\", "a]b",
                                     "\\n", "line1\nline2", "[,]"])
    def test_special_keys_round_trip(self, key):
        command = TypeCommand("//div", key=key, code=13, elapsed_ms=4)
        line = command.to_line()
        assert "\n" not in line and "\r" not in line
        assert parse_command_line(line) == command
        assert parse_command_line(line).key == key

    def test_newline_key_serializes_on_one_line(self):
        command = TypeCommand("//div", key="\n", code=13)
        assert command.to_line() == "type //div [\\n,13] 0"

    def test_bracket_key_serializes_escaped(self):
        command = TypeCommand("//div", key="]", code=221)
        assert command.to_line() == "type //div [\\],221] 0"

    def test_plain_keys_unchanged(self):
        # The Figure-4 wire format is untouched for ordinary keys.
        command = TypeCommand("//div", key="H", code=72, elapsed_ms=3)
        assert command.to_line() == "type //div [H,72] 3"


@given(key=st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    min_size=0, max_size=3), code=st.integers(0, 255))
def test_property_any_key_round_trips(key, code):
    command = TypeCommand('//td/div[@id="content"]', key=key, code=code)
    line = command.to_line()
    assert "\n" not in line
    assert parse_command_line(line) == command
    assert parse_command_line(line).key == key

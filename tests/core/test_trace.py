"""Trace container, derivation, and file format."""

import pytest

from repro.core.commands import ClickCommand, TypeCommand
from repro.core.trace import WarrTrace
from repro.session.journal import trace_digest
from repro.util.errors import TraceFormatError
from repro.weberr.grammar import Grammar, Rule, Terminal
from repro.weberr.navigation import NavigationErrorInjector
from repro.weberr.timing import TimingErrorInjector


def sample_trace():
    return WarrTrace(
        start_url="http://sites.example.com/edit/home",
        commands=[
            ClickCommand('//span[@id="start"]', x=82, y=44, elapsed_ms=100),
            TypeCommand('//div[@id="content"]', key="H", code=72, elapsed_ms=50),
            TypeCommand('//div[@id="content"]', key="i", code=73, elapsed_ms=25),
            ClickCommand('//div[text()="Save"]', x=74, y=51, elapsed_ms=200),
        ],
        label="edit session",
    )


class TestContainer:
    def test_len_iter_index(self):
        trace = sample_trace()
        assert len(trace) == 4
        assert [c.action for c in trace] == ["click", "type", "type", "click"]
        assert trace[1].key == "H"

    def test_slice_returns_trace(self):
        trace = sample_trace()
        prefix = trace[:2]
        assert isinstance(prefix, WarrTrace)
        assert len(prefix) == 2
        assert prefix.start_url == trace.start_url

    def test_append_validates_type(self):
        trace = WarrTrace()
        with pytest.raises(TypeError):
            trace.append("not a command")


class TestDerivation:
    def test_copy_is_deep_for_commands(self):
        trace = sample_trace()
        clone = trace.copy()
        clone.commands[0].x = 999
        assert trace.commands[0].x == 82

    def test_scale_delays_to_zero(self):
        fast = sample_trace().with_delays_scaled(0)
        assert all(c.elapsed_ms == 0 for c in fast)

    def test_scale_delays_half(self):
        half = sample_trace().with_delays_scaled(0.5)
        assert [c.elapsed_ms for c in half] == [50, 25, 12, 100]

    def test_scale_rejects_negative(self):
        with pytest.raises(ValueError):
            sample_trace().with_delays_scaled(-1)

    def test_fixed_delays(self):
        fixed = sample_trace().with_delays_fixed(10)
        assert all(c.elapsed_ms == 10 for c in fixed)

    def test_original_untouched_by_derivation(self):
        trace = sample_trace()
        trace.with_delays_scaled(0)
        assert trace.total_duration_ms() == 375


class TestMeasurement:
    def test_total_duration(self):
        assert sample_trace().total_duration_ms() == 375

    def test_action_counts(self):
        assert sample_trace().action_counts() == {"click": 2, "type": 2}


class TestFileFormat:
    def test_round_trip_via_text(self):
        trace = sample_trace()
        assert WarrTrace.from_text(trace.to_text()) == trace

    def test_header_carries_url_and_label(self):
        text = sample_trace().to_text()
        assert text.startswith("#! warr-trace v1\n")
        assert "#! url http://sites.example.com/edit/home" in text
        assert "#! label edit session" in text

    def test_missing_magic_rejected(self):
        with pytest.raises(TraceFormatError):
            WarrTrace.from_text("click //a 1,2 3\n")

    def test_comment_lines_skipped(self):
        text = ("#! warr-trace v1\n#! url http://x/\n"
                "# a comment\nclick //a 1,2 3\n")
        trace = WarrTrace.from_text(text)
        assert len(trace) == 1

    def test_blank_lines_skipped(self):
        text = "#! warr-trace v1\n\nclick //a 1,2 3\n\n"
        assert len(WarrTrace.from_text(text)) == 1

    def test_save_and_load(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "session.warr"
        trace.save(path)
        assert WarrTrace.load(path) == trace

    def test_label_round_trips(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "t.warr"
        trace.save(path)
        assert WarrTrace.load(path).label == "edit session"


class TestEquality:
    def test_equal(self):
        assert sample_trace() == sample_trace()

    def test_url_matters(self):
        other = sample_trace()
        other.start_url = "http://elsewhere/"
        assert sample_trace() != other

    def test_commands_matter(self):
        other = sample_trace()
        other.commands.pop()
        assert sample_trace() != other

    def test_label_does_not_matter(self):
        # Equality is content-only (start URL + commands); the label is
        # descriptive metadata — consistent with copy(), whose
        # relabelled copies must still compare equal.
        other = sample_trace()
        other.label = "a different name"
        assert sample_trace() == other

    def test_relabelled_copy_is_equal(self):
        trace = sample_trace()
        assert trace.copy(label="renamed") == trace


def fresh_text(trace):
    """``trace`` serialized by a trace object that has no memo yet."""
    return WarrTrace(trace.start_url, trace.commands, trace.label).to_text()


class TestTextMemo:
    """``to_text`` is memoized on the trace; no edit may see stale text."""

    def check(self, trace):
        text = trace.to_text()
        assert text == fresh_text(trace)
        assert WarrTrace.from_text(text) == trace
        assert trace.digest() == trace_digest(text)

    @pytest.mark.parametrize("edit", [
        lambda trace: trace.append(ClickCommand("//b", x=1, y=2)),
        lambda trace: trace.commands.append(ClickCommand("//b", x=1, y=2)),
        lambda trace: trace.commands.pop(),
        lambda trace: trace.commands.__setitem__(
            slice(1, 3), [TypeCommand("//p", key="x", code=88)]),
        lambda trace: trace.commands.__setitem__(
            0, trace.commands[0].copy(elapsed_ms=7)),
        lambda trace: trace.commands.reverse(),
        lambda trace: setattr(trace, "commands", []),
        lambda trace: setattr(trace, "label", "renamed"),
        lambda trace: setattr(trace, "label", ""),
        lambda trace: setattr(trace, "start_url", "http://elsewhere/"),
    ], ids=["append", "list-append", "pop", "slice-assign", "item-assign",
            "reverse", "commands-replaced", "relabel", "unlabel", "url"])
    def test_edit_reserializes(self, edit):
        trace = sample_trace()
        before = trace.to_text()
        digest = trace.digest()
        edit(trace)
        self.check(trace)
        assert trace.to_text() != before
        assert trace.digest() != digest

    def test_unedited_trace_serializes_once(self):
        trace = sample_trace()
        assert trace.to_text() is trace.to_text()
        assert trace.digest() == trace_digest(trace.to_text())

    def test_equal_commands_swapped_in_keep_the_text(self):
        # A command replaced by an equal copy serializes the same.
        trace = sample_trace()
        before = trace.to_text()
        trace.commands[0] = trace.commands[0].copy()
        assert trace.to_text() == before == fresh_text(trace)

    @pytest.mark.parametrize("derive", [
        lambda trace: trace.copy(),
        lambda trace: trace.copy(label="other"),
        lambda trace: trace[1:],
        lambda trace: trace.with_delays_scaled(0),
        lambda trace: trace.with_delays_scaled(0.5),
        lambda trace: trace.with_delays_fixed(3),
        lambda trace: TimingErrorInjector(trace).no_wait()[1],
        lambda trace: TimingErrorInjector(trace).rush_command(2)[1],
    ], ids=["copy", "relabelled-copy", "slice", "no-wait", "half-delays",
            "fixed-delays", "weberr-no-wait", "weberr-rush"])
    def test_derived_trace_has_its_own_text(self, derive):
        trace = sample_trace()
        before = trace.to_text()
        derived = derive(trace)
        self.check(derived)
        # Editing the derivation leaves the original's text alone.
        derived.append(ClickCommand("//late", x=0, y=0))
        derived.label = "derived"
        self.check(derived)
        assert trace.to_text() == before == fresh_text(trace)

    def test_weberr_navigation_variants(self):
        grammar = Grammar("Task", start_url="http://x/")
        grammar.add_rule(Rule("Task", ["Click", "Type"]))
        grammar.add_rule(Rule("Click", [
            Terminal(ClickCommand("//one", x=0, y=0)),
            Terminal(ClickCommand("//two", x=0, y=0))]))
        grammar.add_rule(Rule("Type", [
            Terminal(TypeCommand("//field", key="h", code=72)),
            Terminal(TypeCommand("//field", key="i", code=73))]))
        original = grammar.to_trace()
        before = original.to_text()
        injector = NavigationErrorInjector(grammar)
        variants = (list(injector.forget_variants())
                    + list(injector.reorder_variants())
                    + list(injector.typo_variants()))
        assert variants
        for _, variant in variants:
            self.check(variant.to_trace())
        assert original.to_text() == before == fresh_text(original)

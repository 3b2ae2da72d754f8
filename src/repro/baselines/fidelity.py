"""Recording-fidelity measurement (Table II methodology).

"Recording fidelity quantifies recorded interactions, and high-fidelity
recording requires that all interactions be recorded" (paper, Section I).
We measure it against ground truth: the
:class:`~repro.workloads.sessions.SimulatedUser` logs every action it
performs, and a recorder's trace is scored by how many of those actions
it captured. A recorder is **Complete** (C) when it captured everything
and **Partial** (P) otherwise — the paper's Table II labels.

Scoring rules:

- every user click / double click / drag / keystroke is one action;
- a WaRR command covers exactly one action of its kind;
- a Selenium IDE ``type`` command carries a whole final value and is
  credited with covering that many keystrokes *into value-bearing form
  controls* (that is how Selenese records typing); keystrokes into
  contenteditable containers have no Selenese representation.
"""

COMPLETE = "C"
PARTIAL = "P"

#: Action kinds a SimulatedUser logs.
ACTION_CLICK = "click"
ACTION_DOUBLECLICK = "doubleclick"
ACTION_KEY = "key"
ACTION_DRAG = "drag"


class FidelityResult:
    """Per-recorder coverage over one scenario."""

    def __init__(self, recorder_name, covered, total, per_kind):
        self.recorder_name = recorder_name
        self.covered = covered
        self.total = total
        #: kind -> (covered, total)
        self.per_kind = per_kind

    @property
    def coverage(self):
        if self.total == 0:
            return 1.0
        return self.covered / self.total

    @property
    def label(self):
        return COMPLETE if self.covered == self.total else PARTIAL

    def __repr__(self):
        return "FidelityResult(%s: %d/%d -> %s)" % (
            self.recorder_name, self.covered, self.total, self.label,
        )


def _count_actions(actions):
    counts = {}
    for action in actions:
        counts[action.kind] = counts.get(action.kind, 0) + 1
    return counts


def _score_warr(actions, trace):
    from repro.core.commands import (
        ClickCommand, DoubleClickCommand, DragCommand, TypeCommand,
    )

    expected = _count_actions(actions)
    recorded = {
        ACTION_CLICK: 0, ACTION_DOUBLECLICK: 0,
        ACTION_KEY: 0, ACTION_DRAG: 0,
    }
    for command in trace:
        if isinstance(command, DoubleClickCommand):
            recorded[ACTION_DOUBLECLICK] += 1
        elif isinstance(command, ClickCommand):
            recorded[ACTION_CLICK] += 1
        elif isinstance(command, TypeCommand):
            recorded[ACTION_KEY] += 1
        elif isinstance(command, DragCommand):
            recorded[ACTION_DRAG] += 1
    return _tally("WaRR Recorder", expected, recorded)


def _score_selenium(actions, commands):
    expected = _count_actions(actions)
    recorded = {
        ACTION_CLICK: 0, ACTION_DOUBLECLICK: 0,
        ACTION_KEY: 0, ACTION_DRAG: 0,
    }
    value_keystrokes_expected = sum(
        1 for a in actions if a.kind == ACTION_KEY and a.into_value_control
    )
    focus_clicks_expected = sum(
        1 for a in actions
        if a.kind == ACTION_CLICK and getattr(a, "is_focus_click", False)
    )
    typed_via_values = 0
    type_command_count = 0
    for command in commands:
        if command.action == "click":
            recorded[ACTION_CLICK] += 1
        elif command.action == "type":
            type_command_count += 1
            typed_via_values += len(command.value)
    recorded[ACTION_KEY] = min(typed_via_values, value_keystrokes_expected)
    # A Selenese `type` subsumes the click that focused the field.
    recorded[ACTION_CLICK] += min(type_command_count, focus_clicks_expected)
    return _tally("Selenium IDE", expected, recorded)


def _tally(name, expected, recorded):
    per_kind = {}
    covered = 0
    total = 0
    for kind, expected_count in expected.items():
        captured = min(recorded.get(kind, 0), expected_count)
        per_kind[kind] = (captured, expected_count)
        covered += captured
        total += expected_count
    return FidelityResult(name, covered, total, per_kind)


def evaluate_recording_fidelity(actions, warr_trace, selenium_commands):
    """Score both recorders against the user's ground-truth action log.

    Returns (warr_result, selenium_result).
    """
    return _score_warr(actions, warr_trace), _score_selenium(actions, selenium_commands)

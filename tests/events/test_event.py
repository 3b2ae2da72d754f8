"""Event classes; the read-only KeyboardEvent property model."""

import pytest

from repro.events.event import DragEvent, Event, InputEvent, KeyboardEvent, MouseEvent
from repro.util.errors import ReadOnlyPropertyError


class TestEvent:
    def test_defaults(self):
        event = Event("click")
        assert event.bubbles and event.cancelable
        assert not event.default_prevented
        assert not event.is_trusted

    def test_prevent_default(self):
        event = Event("click")
        event.prevent_default()
        assert event.default_prevented

    def test_prevent_default_on_non_cancelable_is_ignored(self):
        event = Event("load", cancelable=False)
        event.prevent_default()
        assert not event.default_prevented

    def test_stop_propagation(self):
        event = Event("click")
        event.stop_propagation()
        assert event.propagation_stopped


class TestMouseEvent:
    def test_coordinates_and_detail(self):
        event = MouseEvent("click", client_x=82, client_y=44, detail=2)
        assert (event.client_x, event.client_y, event.detail) == (82, 44, 2)


class TestDragEvent:
    def test_delta(self):
        event = DragEvent("drag", dx=15, dy=-4)
        assert (event.dx, event.dy) == (15, -4)


class TestKeyboardEventTrusted:
    def test_carries_properties(self):
        event = KeyboardEvent.trusted("keydown", "H", 72, shift_key=True)
        assert (event.key, event.key_code, event.shift_key) == ("H", 72, True)
        assert event.is_trusted

    def test_properties_read_only_after_construction(self):
        event = KeyboardEvent.trusted("keydown", "H", 72)
        with pytest.raises(ReadOnlyPropertyError):
            event.key_code = 0
        with pytest.raises(ReadOnlyPropertyError):
            event.key = "x"

    def test_non_protected_fields_still_writable(self):
        event = KeyboardEvent.trusted("keydown", "H", 72)
        event.target = "something"  # no error


class TestKeyboardEventSynthetic:
    def test_user_browser_drops_key_properties(self):
        """The WebKit restriction: scripts cannot set key properties."""
        event = KeyboardEvent.synthetic("keypress", "H", 72,
                                        developer_mode=False)
        assert event.key == ""
        assert event.key_code == 0
        assert not event.is_trusted

    def test_developer_browser_honors_key_properties(self):
        """WaRR's replayer browser lifts the restriction (IV-C)."""
        event = KeyboardEvent.synthetic("keypress", "H", 72,
                                        developer_mode=True)
        assert event.key == "H"
        assert event.key_code == 72

    def test_synthetic_still_read_only_afterwards(self):
        event = KeyboardEvent.synthetic("keypress", "H", 72,
                                        developer_mode=True)
        with pytest.raises(ReadOnlyPropertyError):
            event.key_code = 13

    def test_developer_event_matches_trusted_event(self):
        """'practically indistinguishable from those generated by users'"""
        trusted = KeyboardEvent.trusted("keypress", "a", 65)
        synthetic = KeyboardEvent.synthetic("keypress", "a", 65,
                                            developer_mode=True)
        assert trusted.key == synthetic.key
        assert trusted.key_code == synthetic.key_code


_KEY_FIELDS = {"key": "x", "key_code": 88, "shift_key": True,
               "ctrl_key": True, "alt_key": True}


class TestKeyboardEventConstruction:
    """The constructor fills the protected fields without their
    descriptor; reads and the freeze must behave as before."""

    @pytest.mark.parametrize("modifier", ["shift_key", "ctrl_key", "alt_key"])
    def test_developer_synthetic_carries_every_key_field(self, modifier):
        event = KeyboardEvent.synthetic("keydown", "H", 72,
                                        developer_mode=True, **{modifier: True})
        assert (event.key, event.key_code) == ("H", 72)
        for name in ("shift_key", "ctrl_key", "alt_key"):
            assert getattr(event, name) is (name == modifier)

    @pytest.mark.parametrize("make", [
        lambda: KeyboardEvent.trusted("keydown", "H", 72),
        lambda: KeyboardEvent.synthetic("keydown", "H", 72,
                                        developer_mode=True),
        lambda: KeyboardEvent.synthetic("keydown", "H", 72),
    ], ids=["trusted", "synthetic-developer", "synthetic-user"])
    @pytest.mark.parametrize("field", sorted(_KEY_FIELDS))
    def test_every_key_field_is_read_only_after_construction(self, make,
                                                             field):
        event = make()
        before = getattr(event, field)
        with pytest.raises(ReadOnlyPropertyError):
            setattr(event, field, _KEY_FIELDS[field])
        assert getattr(event, field) == before

    def test_unfrozen_event_accepts_key_writes(self):
        event = KeyboardEvent("keydown", "H", 72)
        event.key_code = 13
        assert event.key_code == 13


class TestInputEvent:
    def test_not_cancelable(self):
        event = InputEvent(data="x")
        assert not event.cancelable
        assert event.data == "x"

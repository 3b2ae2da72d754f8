"""Event classes.

``KeyboardEvent`` reproduces the WebKit restriction central to the paper
(Section IV-C): on a *user* browser, synthetic keyboard events cannot set
``key``/``key_code`` — the properties are read-only and keep their
defaults, so event handlers observe the wrong key. The WaRR Replayer's
developer browser lifts this restriction, making replayed events
"practically indistinguishable from those generated by users".
"""

from repro.util.errors import ReadOnlyPropertyError

# Event phases (DOM Level 2 numbering).
CAPTURING_PHASE = 1
AT_TARGET = 2
BUBBLING_PHASE = 3


class Event:
    """Base event: type, target, propagation state."""

    # Mutable dispatch state starts at the class-level defaults; dispatch
    # and handlers shadow them with instance writes. Keeping them out of
    # ``__init__`` matters: events are constructed three-per-keystroke on
    # the replay hot path.
    target = None
    current_target = None
    event_phase = None
    default_prevented = False
    propagation_stopped = False
    #: True for events synthesized by the engine from real user input.
    is_trusted = False

    def __init__(self, event_type, bubbles=True, cancelable=True, timestamp=0.0):
        self.type = event_type
        self.bubbles = bubbles
        self.cancelable = cancelable
        self.timestamp = timestamp

    def prevent_default(self):
        """Cancel the event's default action (if cancelable)."""
        if self.cancelable:
            self.default_prevented = True

    def stop_propagation(self):
        """Stop the event from reaching further nodes."""
        self.propagation_stopped = True

    def __repr__(self):
        return "%s(type=%r, target=%r)" % (
            type(self).__name__, self.type, self.target,
        )


class MouseEvent(Event):
    """Mouse interaction: click, dblclick, mousedown, mouseup, ..."""

    def __init__(self, event_type, client_x=0, client_y=0, button=0,
                 detail=1, timestamp=0.0):
        super().__init__(event_type, timestamp=timestamp)
        self.client_x = client_x
        self.client_y = client_y
        self.button = button
        #: Click count: 1 for click, 2 for dblclick.
        self.detail = detail


class _ProtectedKeyProperty:
    """Write guard for a key property that is read-only once frozen.

    Only ``__set__`` is defined: the value lives under the field's own
    name in the instance dict, so a read is a plain dict lookup, while
    every assignment still goes through the freeze check (a descriptor
    with ``__set__`` outranks the instance dict on writes). Dispatch
    bookkeeping writes like ``event.target`` keep the default fast path.
    """

    __slots__ = ("name",)

    def __set_name__(self, owner, name):
        self.name = name

    def __set__(self, event, value):
        if event._frozen:
            raise ReadOnlyPropertyError(
                "KeyboardEvent.%s is read-only in this browser" % self.name
            )
        event.__dict__[self.name] = value


class KeyboardEvent(Event):
    """Keyboard interaction with read-only-property semantics.

    Build trusted events with :meth:`trusted` (the engine's input path)
    and synthetic ones with :meth:`synthetic` (scripts and drivers). A
    synthetic event only honors the requested key properties when
    ``developer_mode`` is on; otherwise they stay at their defaults, and
    later assignment raises :class:`ReadOnlyPropertyError` — exactly the
    WebKit behaviour that breaks naive replayers.
    """

    _frozen = False

    key = _ProtectedKeyProperty()
    key_code = _ProtectedKeyProperty()
    shift_key = _ProtectedKeyProperty()
    ctrl_key = _ProtectedKeyProperty()
    alt_key = _ProtectedKeyProperty()

    def __init__(self, event_type, key="", key_code=0, shift_key=False,
                 ctrl_key=False, alt_key=False, timestamp=0.0):
        # Event.__init__'s fields are written here, not through a
        # super() call: a replayed keystroke builds its events one call
        # each. The event is not frozen yet, so the protected fields go
        # straight into the instance dict, skipping five ``__set__``
        # freeze checks that cannot fail.
        self.type = event_type
        self.bubbles = True
        self.cancelable = True
        self.timestamp = timestamp
        fields = self.__dict__
        fields["key"] = key
        fields["key_code"] = key_code
        fields["shift_key"] = shift_key
        fields["ctrl_key"] = ctrl_key
        fields["alt_key"] = alt_key

    @classmethod
    def trusted(cls, event_type, key, key_code, shift_key=False,
                ctrl_key=False, alt_key=False, timestamp=0.0):
        """Event created by the engine from real user input."""
        event = cls(event_type, key, key_code, shift_key, ctrl_key,
                    alt_key, timestamp)
        event.is_trusted = True
        event._frozen = True
        return event

    @classmethod
    def synthetic(cls, event_type, key="", key_code=0, shift_key=False,
                  ctrl_key=False, alt_key=False, timestamp=0.0,
                  developer_mode=False):
        """Event created by a script or driver.

        Without ``developer_mode`` the key properties are read-only and
        remain at their defaults (empty key, key_code 0).
        """
        if developer_mode:
            event = cls(event_type, key, key_code, shift_key, ctrl_key,
                        alt_key, timestamp)
        else:
            event = cls(event_type, timestamp=timestamp)
        event._frozen = True
        return event


class DragEvent(Event):
    """UI-element drag. Carries the positional delta the paper logs."""

    def __init__(self, event_type, dx=0, dy=0, client_x=0, client_y=0,
                 timestamp=0.0):
        super().__init__(event_type, timestamp=timestamp)
        self.dx = dx
        self.dy = dy
        self.client_x = client_x
        self.client_y = client_y


class InputEvent(Event):
    """Fired after a form control's value changes (the ``input`` event)."""

    def __init__(self, data="", timestamp=0.0):
        super().__init__("input", cancelable=False, timestamp=timestamp)
        self.data = data

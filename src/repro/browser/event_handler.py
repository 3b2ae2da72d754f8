"""WebKit-layer input handling.

This is the class the paper instruments: ``WebCore::EventHandler`` with
its ``handleMousePressEvent``, ``handleDrag``, and ``keyEvent`` methods
(Section IV-A). User input arrives here *after* crossing the IPC
boundary, is reported to any attached :class:`InputObserver` (the WaRR
Recorder), and is then dispatched into the DOM with default actions —
link activation, form submission, text insertion, element dragging.
"""

from repro import telemetry
from repro.dom.node import Element
from repro.events.dispatch import observed_types
from repro.events.event import MouseEvent, KeyboardEvent, DragEvent, InputEvent
from repro.events.keys import (
    KEY_BACKSPACE,
    KEY_ENTER,
    KEY_SHIFT,
    is_printable,
)
from repro.net.http import build_url, parse_url, resolve_url


class InputObserver:
    """Interface for recorders hooked into the EventHandler.

    The default implementations do nothing so observers can override
    only the actions they care about.
    """

    def on_mouse_press(self, engine, event, target):
        """Called for every mouse press, before DOM dispatch."""

    def on_key(self, engine, event, target):
        """Called for every keystroke, before DOM dispatch."""

    def on_drag(self, engine, event, target):
        """Called for every drag, before DOM dispatch."""


class EventHandler:
    """Turns raw input events into DOM events and default actions."""

    def __init__(self, engine):
        self.engine = engine

    # -- the three instrumented entry points (paper, Section IV-A) -------

    def handle_mouse_press_event(self, event):
        """Entry point for mouse input (click and double click)."""
        tracer = telemetry.current()
        if tracer is None or not tracer.wants("input"):
            return self._handle_mouse_press(event)
        with tracer.span("input.mouse", track=self.engine, cat="input",
                         args={"x": event.client_x, "y": event.client_y,
                               "detail": event.detail}):
            return self._handle_mouse_press(event)

    def _handle_mouse_press(self, event):
        engine = self.engine
        target = engine.hit_test(event.client_x, event.client_y)
        if target is None:
            target = engine.document.body
        if target is None:
            return

        # Clicks landing on a loaded iframe are forwarded to its child
        # engine with translated coordinates.
        child = engine.frame_for(target)
        if child is not None:
            box = engine.layout.box_for(target)
            inner = MouseEvent(
                event.type,
                client_x=event.client_x - int(box.rect.x),
                client_y=event.client_y - int(box.rect.y),
                button=event.button,
                detail=event.detail,
                timestamp=event.timestamp,
            )
            inner.is_trusted = event.is_trusted
            child.event_handler.handle_mouse_press_event(inner)
            return

        self._notify("on_mouse_press", event, target)

        engine.set_focus(target if target.is_focusable() else None)

        down = MouseEvent("mousedown", event.client_x, event.client_y,
                          event.button, event.detail, event.timestamp)
        down.is_trusted = event.is_trusted
        engine.dispatch(target, down)

        up = MouseEvent("mouseup", event.client_x, event.client_y,
                        event.button, event.detail, event.timestamp)
        up.is_trusted = event.is_trusted
        engine.dispatch(target, up)

        click_type = "dblclick" if event.detail >= 2 else "click"
        click = MouseEvent(click_type, event.client_x, event.client_y,
                           event.button, event.detail, event.timestamp)
        click.is_trusted = event.is_trusted
        proceed = engine.dispatch(target, click)
        if proceed and click_type == "click":
            self._activate(target)
        engine.invalidate_layout()

    def key_event(self, event):
        """Entry point for keyboard input."""
        tracer = telemetry.current()
        if tracer is None or not tracer.wants("input"):
            return self._key_event(event)
        with tracer.span("input.key", track=self.engine, cat="input",
                         args={"key": event.key, "code": event.key_code}):
            return self._key_event(event)

    def _key_event(self, event):
        engine = self.engine
        target = engine.focused_element
        if target is None:
            target = engine.document.body
        if target is None:
            return

        self._notify("on_key", event, target)

        if event.key_code == KEY_SHIFT:
            # Shift by itself changes no state; it only modifies the next
            # printable key (which carries shift_key=True).
            return

        # Key events no listener or tracer could observe are not built
        # and count as not prevented. What can observe one is resolved
        # once per keystroke, as the driver's send_key does: each type
        # is tested against the document's live listened-type set, and
        # should a handler move the target into another document, every
        # later type of the keystroke counts as observable.
        document = target.owner_document
        observed = observed_types(target)
        proceed = True
        if observed is None or "keydown" in observed:
            down = KeyboardEvent.trusted("keydown", event.key,
                                         event.key_code, event.shift_key,
                                         event.ctrl_key, event.alt_key,
                                         event.timestamp)
            proceed = engine.dispatch(target, down)
            if target.owner_document is not document:
                observed = None
        if (proceed and is_printable(event.key) and not event.ctrl_key
                and (observed is None or "keypress" in observed)):
            press = KeyboardEvent.trusted("keypress", event.key,
                                          event.key_code, event.shift_key,
                                          event.ctrl_key, event.alt_key,
                                          event.timestamp)
            proceed = engine.dispatch(target, press)
            if target.owner_document is not document:
                observed = None
        if proceed:
            self._default_key_action(target, event, observed)
            if target.owner_document is not document:
                observed = None

        if observed is None or "keyup" in observed:
            keyup = KeyboardEvent.trusted("keyup", event.key,
                                          event.key_code, event.shift_key,
                                          event.ctrl_key, event.alt_key,
                                          event.timestamp)
            engine.dispatch(target, keyup)
        engine.invalidate_layout()

    def handle_drag(self, event):
        """Entry point for UI-element drags."""
        tracer = telemetry.current()
        if tracer is None or not tracer.wants("input"):
            return self._handle_drag(event)
        with tracer.span("input.drag", track=self.engine, cat="input",
                         args={"dx": event.dx, "dy": event.dy}):
            return self._handle_drag(event)

    def _handle_drag(self, event):
        engine = self.engine
        target = engine.hit_test(event.client_x, event.client_y)
        if target is None:
            return

        self._notify("on_drag", event, target)

        drag = DragEvent("drag", event.dx, event.dy, event.client_x,
                         event.client_y, event.timestamp)
        drag.is_trusted = event.is_trusted
        proceed = engine.dispatch(target, drag)
        if proceed:
            self._apply_drag(target, event.dx, event.dy)
        engine.invalidate_layout()

    # -- default actions ----------------------------------------------------

    def _activate(self, element):
        """Post-click activation behaviour."""
        tag = element.tag
        if tag == "a" and element.has_attribute("href"):
            self._navigate_to(element.get_attribute("href"))
            return
        if tag == "input":
            input_type = (element.get_attribute("type") or "text").lower()
            if input_type == "checkbox":
                if element.has_attribute("checked"):
                    element.remove_attribute("checked")
                else:
                    element.set_attribute("checked", "")
                self.engine.dispatch(element, InputEvent())
                return
            if input_type in ("submit", "image"):
                self.submit_enclosing_form(element)
                return
        if tag == "button":
            button_type = (element.get_attribute("type") or "submit").lower()
            if button_type == "submit":
                self.submit_enclosing_form(element)

    def _default_key_action(self, target, event, observed):
        """Text insertion / deletion / Enter-submits, then an ``input``
        event if ``observed`` (the keystroke's
        :func:`~repro.events.dispatch.observed_types`) admits one."""
        engine = self.engine
        if event.key_code == KEY_ENTER:
            if target.tag == "input":
                self.submit_enclosing_form(target)
            elif target.is_content_editable:
                target.append_child(engine.document.create_element("br"))
            return
        if event.key_code == KEY_BACKSPACE:
            self._delete_backwards(target)
            if observed is None or "input" in observed:
                engine.dispatch(target, InputEvent())
            return
        if not is_printable(event.key) or event.ctrl_key or event.alt_key:
            return
        self._insert_text(target, event.key)
        if observed is None or "input" in observed:
            engine.dispatch(target, InputEvent(data=event.key))

    def _insert_text(self, target, text):
        if target.tag in ("input", "textarea"):
            target.value = target.value + text
        elif target.is_content_editable:
            self._editable_root(target).append_text(text)
        # Keys sent to non-editable targets have no default effect.

    def _delete_backwards(self, target):
        if target.tag in ("input", "textarea"):
            target.value = target.value[:-1]
        elif target.is_content_editable:
            self._editable_root(target).delete_last_character()

    @staticmethod
    def _editable_root(target):
        """Innermost element that itself declares contenteditable."""
        node = target
        while isinstance(node, Element):
            if node.has_attribute("contenteditable"):
                return node
            node = node.parent
        return target

    def _apply_drag(self, target, dx, dy):
        """Default drag action: translate the element."""
        offset_x = int(target.get_attribute("data-offset-x") or 0) + dx
        offset_y = int(target.get_attribute("data-offset-y") or 0) + dy
        target.set_attribute("data-offset-x", str(offset_x))
        target.set_attribute("data-offset-y", str(offset_y))

    def submit_enclosing_form(self, element):
        form = None
        for ancestor in element.ancestors():
            if isinstance(ancestor, Element) and ancestor.tag == "form":
                form = ancestor
                break
        if form is None:
            return
        proceed = self.engine.dispatch(form, _submit_event())
        if not proceed:
            return
        action = form.get_attribute("action") or self.engine.document.url
        method = (form.get_attribute("method") or "GET").upper()
        fields = {}
        for node in form.descendants():
            if not isinstance(node, Element):
                continue
            if node.tag in ("input", "textarea", "select") and node.name:
                input_type = (node.get_attribute("type") or "text").lower()
                if input_type == "checkbox" and not node.has_attribute("checked"):
                    continue
                fields[node.name] = node.value
        target_url = resolve_url(self.engine.document.url, action)
        if method == "GET":
            scheme, host, path, query = parse_url(target_url)
            query.update(fields)
            self._navigate_to(build_url(scheme, host, path, query))
        else:
            body = "&".join("%s=%s" % (k, v) for k, v in fields.items())
            self._navigate_to(target_url, method="POST", body=body)

    def _navigate_to(self, href, method="GET", body=""):
        engine = self.engine
        url = resolve_url(engine.document.url, href)
        engine.request_navigation(url, method=method, body=body)

    # -- observer plumbing ------------------------------------------------

    def _notify(self, method_name, event, target):
        for observer in self.engine.input_observers():
            getattr(observer, method_name)(self.engine, event, target)


def _submit_event():
    from repro.events.event import Event

    return Event("submit", bubbles=True, cancelable=True)

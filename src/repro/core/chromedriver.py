"""ChromeDriver simulation: master, per-iframe clients, and WaRR's fixes.

The paper (Section IV-C) describes ChromeDriver as "a plug-in composed
of a master and multiple ChromeDriver clients, one for each iframe", and
details four pieces of incomplete functionality WaRR had to fix:

1. **Double clicks** — stock ChromeDriver has no double-click support;
   WaRR adds it "by using JavaScript to create and trigger the necessary
   events".
2. **Text input** — stock ChromeDriver sets the target's ``value``
   property, which only exists meaningfully on input/textarea; WaRR sets
   the correct property (``textContent`` for div-like elements) and
   triggers the required events.
3. **Iframes** — Chrome loads no client for src-less iframes (WaRR makes
   the parent's client execute those commands), and ChromeDriver has no
   way to switch back to the default iframe (WaRR reserves a custom
   iframe name for it).
4. **Active client after page change** — the master's new-active-client
   selection assumes a load/unload order Chrome does not guarantee; a
   page change can leave no active client and halt replay. WaRR ensures
   unloads cannot prevent selecting a new active client.

Every fix is a flag on :class:`ChromeDriverConfig`; ``stock()`` disables
all of them so the ablation benchmarks can demonstrate each failure.
"""

from repro.browser.ipc import InputMessage
from repro.events.dispatch import observed_types
from repro.events.event import KeyboardEvent, MouseEvent, DragEvent, InputEvent
from repro.events.keys import (
    KEY_BACKSPACE,
    KEY_ENTER,
    is_printable,
)
from repro.util.errors import DriverError, ElementNotFoundError, ReplayHaltedError
from repro.xpath.evaluator import evaluate


class ChromeDriverConfig:
    """Feature flags for the driver; defaults are WaRR's fixed driver."""

    def __init__(self, fix_double_click=True, fix_text_input=True,
                 fix_srcless_iframe=True, fix_switch_back=True,
                 fix_active_client=True):
        self.fix_double_click = fix_double_click
        self.fix_text_input = fix_text_input
        self.fix_srcless_iframe = fix_srcless_iframe
        self.fix_switch_back = fix_switch_back
        self.fix_active_client = fix_active_client

    @classmethod
    def warr(cls):
        """All WaRR fixes enabled (the paper's replayer)."""
        return cls()

    @classmethod
    def stock(cls):
        """Pre-WaRR ChromeDriver: every fix disabled."""
        return cls(fix_double_click=False, fix_text_input=False,
                   fix_srcless_iframe=False, fix_switch_back=False,
                   fix_active_client=False)

    def __repr__(self):
        flags = ["%s=%r" % (name, getattr(self, name)) for name in (
            "fix_double_click", "fix_text_input", "fix_srcless_iframe",
            "fix_switch_back", "fix_active_client")]
        return "ChromeDriverConfig(%s)" % ", ".join(flags)


class ChromeDriverClient:
    """Executes commands on one frame.

    ``root_element`` scopes the client to a subtree: that is how the
    parent document's client executes commands on a src-less iframe.
    """

    def __init__(self, master, engine, root_element=None):
        self.master = master
        self.engine = engine
        self.root_element = root_element
        # Facts fixed when the browser is built, resolved once per
        # client: its virtual clock, and whether it is a developer-mode
        # browser (synthetic key events carry key properties only there).
        browser = master.browser
        self._clock = browser.clock
        self._developer_mode = browser.developer_mode

    # -- element lookup --------------------------------------------------------

    @property
    def context(self):
        """Where this client resolves XPaths: its subtree root, or its
        frame's document."""
        root = self.root_element
        return root if root is not None else self.engine.document

    def find(self, expression, relaxation=None):
        """Resolve an XPath within this client's frame (or subtree)."""
        context = self.context
        if relaxation is None:
            matches = evaluate(expression, context)
            if not matches:
                raise ElementNotFoundError("no element matches %r" % expression)
            return matches[0], "original"
        return relaxation.resolve(expression, context)

    # -- actions ------------------------------------------------------------

    def _send_input(self, kind, event):
        """Deliver raw input to this client's frame engine.

        Automation input crosses the browser → renderer IPC boundary
        like real user input does; the message is addressed to this
        client's frame so subframe clients keep frame-local coordinates.
        """
        renderer = self.engine.tab.renderer
        message = InputMessage(kind, event, target_engine=self.engine)
        renderer.send_input(message)

    def click(self, element, now=None):
        """Click via the engine's input path (WebDriver supports this).

        ``now``, when given, is the virtual time the caller has just
        read: the click is stamped with it instead of a second read.
        """
        x, y = self.engine.layout.click_point(element)
        if now is None:
            now = self._clock.now()
        event = MouseEvent("mousepress", client_x=x, client_y=y, detail=1,
                           timestamp=now)
        self._send_input(InputMessage.MOUSE, event)

    def click_at(self, x, y):
        """Coordinate click — the backup identification fallback."""
        event = MouseEvent("mousepress", client_x=x, client_y=y, detail=1,
                           timestamp=self._clock.now())
        self._send_input(InputMessage.MOUSE, event)

    def double_click(self, element):
        """Double click.

        Stock ChromeDriver lacks support entirely; WaRR's fix creates
        and triggers the necessary JavaScript events.
        """
        if not self.master.config.fix_double_click:
            raise DriverError(
                "ChromeDriver does not support double clicks"
            )
        x, y = self.engine.layout.click_point(element)
        for event_type in ("mousedown", "mouseup", "mousedown", "mouseup"):
            event = MouseEvent(event_type, client_x=x, client_y=y, detail=2,
                               timestamp=self._clock.now())
            self.engine.dispatch(element, event)
        dbl = MouseEvent("dblclick", client_x=x, client_y=y, detail=2,
                         timestamp=self._clock.now())
        self.engine.dispatch(element, dbl)
        self.engine.invalidate_layout()

    def send_key(self, element, key, code, now=None, printable=None):
        """Simulate one keystroke into ``element``.

        Dispatches synthetic keydown/keypress (whose key properties only
        carry real values in a developer-mode browser), applies the text
        mutation, fires ``input``, then keyup. Without
        ``fix_text_input``, the mutation always goes through the
        ``value`` property — invisible on container elements like div.

        An element that already holds focus is not focused again, as
        WebDriver's Element Send Keys does. An event no listener or
        tracer could observe is not built, and counts as not prevented:
        what can observe one is resolved once per keystroke
        (:func:`~repro.events.dispatch.observed_types`) and each type is
        tested against the document's live set, so a listener a handler
        adds mid-keystroke is seen. Should a handler move ``element``
        into another document, the rest of the keystroke treats every
        type as observable.

        ``now``, when given, is the virtual time the caller has just
        read; it stamps the first event built, provided no handler ran
        before it (a handler may advance the clock), and every later
        event reads the clock. ``printable`` is
        :func:`~repro.events.keys.is_printable` of ``key`` when the
        caller has it (a replayed :class:`~repro.core.commands.TypeCommand`
        carries it).
        """
        engine = self.engine
        if element is not engine.focused_element:
            engine.set_focus(element if element.is_focusable() else None)
            now = None
        clock = self._clock
        # The events KeyboardEvent.synthetic builds, one call each: the
        # key properties only in a developer-mode browser, then frozen.
        props = (key, code) if self._developer_mode else ()
        document = element.owner_document
        observed = observed_types(element)
        if printable is None:
            printable = is_printable(key)

        proceed = True
        if observed is None or "keydown" in observed:
            down = KeyboardEvent("keydown", *props, timestamp=(
                now if now is not None else clock.now()))
            down._frozen = True
            now = None
            proceed = engine.dispatch(element, down)
            if element.owner_document is not document:
                observed = None
        if proceed and printable and (observed is None
                                      or "keypress" in observed):
            press = KeyboardEvent("keypress", *props, timestamp=(
                now if now is not None else clock.now()))
            press._frozen = True
            proceed = engine.dispatch(element, press)
            if element.owner_document is not document:
                observed = None
        if proceed:
            self._apply_key(element, key, code, printable, observed)
            if element.owner_document is not document:
                observed = None
        if observed is None or "keyup" in observed:
            keyup = KeyboardEvent("keyup", *props, timestamp=clock.now())
            keyup._frozen = True
            engine.dispatch(element, keyup)
        engine.invalidate_layout()

    def _apply_key(self, element, key, code, printable, observed):
        """The keystroke's edit, then its ``input`` event if ``observed``
        (the keystroke's :func:`~repro.events.dispatch.observed_types`)
        admits one."""
        if code == KEY_ENTER:
            if element.tag == "input":
                self.engine.event_handler.submit_enclosing_form(element)
            return
        if code == KEY_BACKSPACE:
            if element.supports_value():
                element.value = element.value[:-1]
            elif self.master.config.fix_text_input:
                element.delete_last_character()
            else:
                element.value = element.value[:-1]
            if observed is None or "input" in observed:
                self.engine.dispatch(element, InputEvent())
            return
        if not printable:
            return
        if element.supports_value():
            element.value = element.value + key
        elif self.master.config.fix_text_input:
            # WaRR's fix: set the *correct* property for container
            # elements — their text content, not a dangling .value.
            element.append_text(key)
        else:
            # Stock ChromeDriver: sets .value even on divs. The DOM text
            # never changes, so the keystroke is effectively lost.
            element.value = element.value + key
        if observed is None or "input" in observed:
            self.engine.dispatch(element, InputEvent(data=key))

    def drag(self, element, dx, dy, now=None):
        """Drag an element by (dx, dy); ``now`` as for :meth:`click`."""
        x, y = self.engine.layout.click_point(element)
        if now is None:
            now = self._clock.now()
        event = DragEvent("rawdrag", dx=dx, dy=dy, client_x=x, client_y=y,
                          timestamp=now)
        self._send_input(InputMessage.DRAG, event)

    def __repr__(self):
        scope = " scoped" if self.root_element is not None else ""
        return "ChromeDriverClient(%r%s)" % (self.engine, scope)


class ChromeDriverMaster:
    """Tracks frame clients and routes commands to the active one."""

    def __init__(self, browser, config=None):
        self.browser = browser
        self.config = config if config is not None else ChromeDriverConfig.warr()
        self.clients = []
        self._active = None
        browser.frame_load_listeners.append(self._on_frame_loaded)
        # Adopt frames that were already loaded before the driver attached.
        for tab in browser.tabs:
            if tab.renderer is not None:
                for engine in tab.renderer.engine.all_engines():
                    self._on_frame_loaded(engine)

    # -- client lifecycle -------------------------------------------------

    def _on_frame_loaded(self, engine):
        client = ChromeDriverClient(self, engine)
        self.clients.append(client)
        engine.unload_listeners.append(self._on_frame_unloaded)
        if engine.parent is None:
            # A new page's main frame always becomes the active client.
            self._active = client

    def _on_frame_unloaded(self, engine):
        self.clients = [c for c in self.clients if c.engine is not engine]
        if self._active is None:
            return
        if self.config.fix_active_client:
            # WaRR's fix: an unload can never clear a selection that
            # already points at a live client.
            if self._active.engine is engine:
                self._active = self._main_frame_client()
            return
        # Stock behaviour: the selection logic assumes unloads arrive
        # before the replacement page's loads. Chrome delivers this
        # unload *after* the new page loaded, and the stale bookkeeping
        # clears the active client — replay will halt.
        self._active = None

    def _main_frame_client(self):
        for client in self.clients:
            if client.engine.parent is None and client.engine.loaded:
                return client
        return None

    # -- command routing ------------------------------------------------------

    @property
    def active_client(self):
        """The client executing commands; raises if replay has halted."""
        if self._active is None:
            raise ReplayHaltedError(
                "no active ChromeDriver client — replay halted "
                "(page change lost the active client)"
            )
        return self._active

    def has_active_client(self):
        return self._active is not None

    # -- frame switching --------------------------------------------------

    def switch_to_frame(self, iframe_xpath, relaxation=None):
        """Make the client for the given iframe the active one."""
        current = self.active_client
        iframe, _ = current.find(iframe_xpath, relaxation)
        if iframe.tag != "iframe":
            raise DriverError("%r is not an iframe" % iframe_xpath)
        child_engine = current.engine.frame_for(iframe)
        if child_engine is not None:
            for client in self.clients:
                if client.engine is child_engine:
                    self._active = client
                    return client
            client = ChromeDriverClient(self, child_engine)
            self.clients.append(client)
            self._active = client
            return client
        # src-less iframe: Chrome loaded no client for it.
        if not self.config.fix_srcless_iframe:
            raise DriverError(
                "cannot execute commands on an iframe without src: "
                "Chrome loads no ChromeDriver client for it"
            )
        # WaRR's fix: the parent document's client executes the commands,
        # scoped to the iframe's subtree.
        client = ChromeDriverClient(self, current.engine, root_element=iframe)
        self.clients.append(client)
        self._active = client
        return client

    def switch_to_default(self):
        """Return to the main frame (the paper's custom-iframe-name fix)."""
        if not self.config.fix_switch_back:
            raise DriverError(
                "ChromeDriver provides no means to switch back to the "
                "default iframe"
            )
        client = self._main_frame_client()
        if client is None:
            raise ReplayHaltedError("no main-frame client to switch back to")
        self._active = client
        return client

    def __repr__(self):
        return "ChromeDriverMaster(clients=%d, active=%r)" % (
            len(self.clients), self._active,
        )

"""ChromeDriver master/clients and the four WaRR fixes."""

import pytest

from repro import perf
from repro.core.chromedriver import (
    ChromeDriverConfig,
    ChromeDriverMaster,
)
from repro.util.errors import DriverError, ReplayHaltedError
from tests.browser.helpers import build_browser, url


def make_driver(config=None, developer_mode=True, path="/"):
    browser = build_browser(developer_mode=developer_mode)
    tab = browser.new_tab(url(path))
    master = ChromeDriverMaster(browser, config)
    return browser, tab, master


class TestConfig:
    def test_warr_has_all_fixes(self):
        config = ChromeDriverConfig.warr()
        assert all([config.fix_double_click, config.fix_text_input,
                    config.fix_srcless_iframe, config.fix_switch_back,
                    config.fix_active_client])

    def test_stock_has_no_fixes(self):
        config = ChromeDriverConfig.stock()
        assert not any([config.fix_double_click, config.fix_text_input,
                        config.fix_srcless_iframe, config.fix_switch_back,
                        config.fix_active_client])


class TestClientLifecycle:
    def test_adopts_already_loaded_frames(self):
        browser, tab, master = make_driver(path="/frame")
        assert len(master.clients) == 2  # main + src iframe

    def test_main_frame_is_active(self):
        browser, tab, master = make_driver()
        assert master.active_client.engine is tab.engine

    def test_new_page_load_becomes_active(self):
        browser, tab, master = make_driver()
        tab.navigate(url("/about"))
        assert master.active_client.engine is tab.engine


class TestActiveClientBug:
    def test_stock_driver_halts_after_page_change(self):
        """The paper's last replay challenge: page change leaves no
        active client, and new commands are never executed."""
        browser, tab, master = make_driver(config=ChromeDriverConfig.stock())
        tab.navigate(url("/about"))
        with pytest.raises(ReplayHaltedError):
            master.active_client

    def test_warr_fix_survives_page_change(self):
        browser, tab, master = make_driver(config=ChromeDriverConfig.warr())
        tab.navigate(url("/about"))
        assert master.active_client.engine is tab.engine

    def test_has_active_client_probe(self):
        browser, tab, master = make_driver(config=ChromeDriverConfig.stock())
        assert master.has_active_client()
        tab.navigate(url("/about"))
        assert not master.has_active_client()


class TestClicks:
    def test_click_triggers_activation(self):
        browser, tab, master = make_driver()
        client = master.active_client
        link, _ = client.find('//a[text()="About"]')
        client.click(link)
        assert tab.document.title == "About"

    def test_click_at_coordinates(self):
        browser, tab, master = make_driver()
        client = master.active_client
        field, _ = client.find('//input[@name="who"]')
        x, y = tab.engine.layout.click_point(field)
        client.click_at(x, y)
        assert tab.engine.focused_element is field


class TestDoubleClick:
    def test_stock_driver_lacks_double_click(self):
        browser, tab, master = make_driver(config=ChromeDriverConfig.stock())
        client = master.active_client
        box, _ = client.find('//div[@id="box"]')
        with pytest.raises(DriverError):
            client.double_click(box)

    def test_warr_fix_triggers_dblclick_handlers(self):
        browser, tab, master = make_driver()
        client = master.active_client
        box, _ = client.find('//div[@id="box"]')
        seen = []
        box.add_event_listener("dblclick", lambda event: seen.append(event.detail))
        client.double_click(box)
        assert seen == [2]


class TestTextInput:
    def test_typing_into_input_works_without_fix(self):
        browser, tab, master = make_driver(config=ChromeDriverConfig.stock())
        client = master.active_client
        field, _ = client.find('//input[@name="who"]')
        client.send_key(field, "a", 65)
        assert field.value == "a"

    def test_stock_driver_loses_text_in_divs(self):
        """Paper IV-C: ChromeDriver sets .value, which does not exist
        meaningfully for container elements like div."""
        browser, tab, master = make_driver(config=ChromeDriverConfig.stock())
        client = master.active_client
        box, _ = client.find('//div[@id="box"]')
        client.send_key(box, "a", 65)
        assert box.text_content == ""  # the keystroke is lost

    def test_warr_fix_sets_text_content_for_divs(self):
        browser, tab, master = make_driver()
        client = master.active_client
        box, _ = client.find('//div[@id="box"]')
        for key, code in (("H", 72), ("i", 73)):
            client.send_key(box, key, code)
        assert box.text_content == "Hi"

    def test_backspace(self):
        browser, tab, master = make_driver()
        client = master.active_client
        box, _ = client.find('//div[@id="box"]')
        client.send_key(box, "a", 65)
        client.send_key(box, "Backspace", 8)
        assert box.text_content == ""

    def test_enter_submits_enclosing_form(self):
        browser, tab, master = make_driver()
        client = master.active_client
        field, _ = client.find('//input[@name="who"]')
        client.send_key(field, "x", 88)
        client.send_key(field, "Enter", 13)
        assert tab.document.title == "Greet"

    def test_developer_mode_gives_handlers_real_key_codes(self):
        browser, tab, master = make_driver(developer_mode=True)
        client = master.active_client
        box, _ = client.find('//div[@id="box"]')
        client.send_key(box, "H", 72)
        assert tab.engine.window.env.keys == [72]

    def test_user_mode_gives_handlers_zero_key_codes(self):
        """Without the developer browser, synthetic events carry no key
        properties — handlers observe keyCode 0 (fidelity loss)."""
        browser, tab, master = make_driver(developer_mode=False)
        client = master.active_client
        box, _ = client.find('//div[@id="box"]')
        client.send_key(box, "H", 72)
        assert tab.engine.window.env.keys == [0]


class TestKeystrokeFocus:
    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "oracle"])
    def test_typing_into_the_focused_element_fires_no_focus_events(
            self, fast):
        with perf.fast_path(fast):
            browser, tab, master = make_driver()
            client = master.active_client
            box, _ = client.find('//div[@id="box"]')
            seen = []
            for kind in ("focus", "blur"):
                box.add_event_listener(kind,
                                       lambda event: seen.append(event.type))
            for key, code in (("H", 72), ("i", 73), ("!", 49)):
                client.send_key(box, key, code)
        assert seen == ["focus"]
        assert tab.engine.focused_element is box
        assert box.text_content == "Hi!"

    def test_focused_element_keeps_focus_after_losing_focusability(self):
        # WebDriver's Element Send Keys focuses only an element that
        # does not have focus: a keystroke does not blur the element it
        # types into, even once the page made it non-focusable.
        browser, tab, master = make_driver()
        client = master.active_client
        box, _ = client.find('//div[@id="box"]')
        client.send_key(box, "a", 65)
        seen = []
        box.add_event_listener("blur", lambda event: seen.append("blur"))
        box.remove_attribute("contenteditable")
        client.send_key(box, "b", 66)
        assert seen == []
        assert tab.engine.focused_element is box


#: A page with no listeners: only what a test adds is observable.
PLAIN_HTML = ('<html><head><title>Plain</title></head><body>'
              '<div id="pad" contenteditable></div></body></html>')


class TestListenerAddedMidKeystroke:
    """A listener a handler adds during a keystroke sees the rest of
    that keystroke, whether or not its type was observable when the
    keystroke began (DESIGN §4)."""

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "oracle"])
    def test_keydown_handler_adds_a_keyup_listener_that_runs(self, fast):
        with perf.fast_path(fast):
            browser = build_browser(
                developer_mode=True,
                extra_routes={"/plain": lambda request: PLAIN_HTML})
            tab = browser.new_tab(url("/plain"))
            client = ChromeDriverMaster(browser).active_client
            pad, _ = client.find('//div[@id="pad"]')
            seen = []

            def on_keydown(event):
                seen.append(event.type)
                pad.add_event_listener(
                    "keyup", lambda event: seen.append(event.type))

            pad.add_event_listener("keydown", on_keydown)
            assert "keyup" not in tab.document._listened_types
            client.send_key(pad, "a", 65)
        assert seen == ["keydown", "keyup"]
        assert pad.text_content == "a"


class TestDrag:
    def test_drag_moves_element(self):
        browser, tab, master = make_driver()
        client = master.active_client
        widget, _ = client.find('//div[@id="widget"]')
        client.drag(widget, 12, 7)
        assert widget.get_attribute("data-offset-x") == "12"


class TestFrameSwitching:
    def test_switch_to_src_iframe(self):
        browser, tab, master = make_driver(path="/frame")
        client = master.switch_to_frame('//iframe[@id="child"]')
        assert client.engine.document.title == "Inner"
        assert master.active_client is client

    def test_commands_execute_in_switched_frame(self):
        browser, tab, master = make_driver(path="/frame")
        client = master.switch_to_frame('//iframe[@id="child"]')
        button, _ = client.find('//button[@id="innerbtn"]')
        assert button.text_content == "press"

    def test_switch_to_non_iframe_rejected(self):
        browser, tab, master = make_driver(path="/frame")
        with pytest.raises(DriverError):
            master.switch_to_frame("//body")

    def test_srcless_iframe_without_fix_fails(self):
        config = ChromeDriverConfig(fix_srcless_iframe=False)
        browser, tab, master = make_driver(config=config, path="/frame")
        with pytest.raises(DriverError):
            master.switch_to_frame('//iframe[@id="bare"]')

    def test_srcless_iframe_with_fix_scopes_parent_client(self):
        browser, tab, master = make_driver(path="/frame")
        client = master.switch_to_frame('//iframe[@id="bare"]')
        assert client.root_element is not None
        inline, _ = client.find('//p[@id="inline"]')
        assert inline.text_content == "inline"

    def test_switch_back_without_fix_fails(self):
        config = ChromeDriverConfig(fix_switch_back=False)
        browser, tab, master = make_driver(config=config, path="/frame")
        master.switch_to_frame('//iframe[@id="child"]')
        with pytest.raises(DriverError):
            master.switch_to_default()

    def test_switch_back_with_fix(self):
        browser, tab, master = make_driver(path="/frame")
        master.switch_to_frame('//iframe[@id="child"]')
        client = master.switch_to_default()
        assert client.engine is tab.engine

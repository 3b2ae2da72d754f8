"""The WaRR Recorder: completeness, shift combining, timing, frames."""

import pytest

from repro import perf
from repro.core.commands import (
    ClickCommand,
    DoubleClickCommand,
    DragCommand,
    SwitchFrameCommand,
    TypeCommand,
)
from repro.core.recorder import WarrRecorder
from tests.browser.helpers import build_browser, url


@pytest.fixture
def recording():
    browser = build_browser()
    recorder = WarrRecorder().attach(browser)
    recorder.begin(url("/"))
    tab = browser.new_tab(url("/"))
    return browser, recorder, tab


class TestBasicRecording:
    def test_click_recorded_with_xpath_and_position(self, recording):
        browser, recorder, tab = recording
        start = tab.find('//span[@id="start"]')
        tab.click_element(start)
        command = recorder.trace[0]
        assert isinstance(command, ClickCommand)
        assert command.xpath == '//div/span[@id="start"]'
        expected = tab.engine.layout.click_point(start)
        assert (command.x, command.y) == expected

    def test_doubleclick_recorded(self, recording):
        _, recorder, tab = recording
        tab.double_click_element(tab.find('//div[@id="box"]'))
        assert isinstance(recorder.trace[0], DoubleClickCommand)

    def test_keystrokes_recorded_individually(self, recording):
        _, recorder, tab = recording
        tab.click_element(tab.find('//div[@id="box"]'))
        tab.type_text("hey")
        keys = [c.key for c in recorder.trace if isinstance(c, TypeCommand)]
        assert keys == ["h", "e", "y"]

    def test_drag_recorded_with_delta(self, recording):
        _, recorder, tab = recording
        tab.drag_element(tab.find('//div[@id="widget"]'), 15, -4)
        command = recorder.trace[0]
        assert isinstance(command, DragCommand)
        assert (command.dx, command.dy) == (15, -4)

    def test_recording_continues_across_navigation(self, recording):
        _, recorder, tab = recording
        tab.click_element(tab.find('//a[text()="About"]'))
        assert tab.document.title == "About"
        tab2_actions = len(recorder.trace)
        assert tab2_actions == 1  # the link click


class TestShiftCombining:
    def test_shift_letter_is_one_command(self, recording):
        """Paper IV-B: Shift+h logs only the combined [H,72]."""
        _, recorder, tab = recording
        tab.click_element(tab.find('//div[@id="box"]'))
        tab.type_key("H")
        types = [c for c in recorder.trace if isinstance(c, TypeCommand)]
        assert len(types) == 1
        assert (types[0].key, types[0].code) == ("H", 72)

    def test_bang_logs_one_key(self, recording):
        _, recorder, tab = recording
        tab.click_element(tab.find('//div[@id="box"]'))
        tab.type_key("!")
        types = [c for c in recorder.trace if isinstance(c, TypeCommand)]
        assert (types[0].key, types[0].code) == ("!", 49)

    def test_control_keys_are_logged(self, recording):
        """Control (unlike Shift) is logged with its code."""
        _, recorder, tab = recording
        tab.click_element(tab.find('//div[@id="box"]'))
        tab.type_key("Control")
        types = [c for c in recorder.trace if isinstance(c, TypeCommand)]
        assert (types[0].key, types[0].code) == ("Control", 17)

    def test_enter_logged(self, recording):
        _, recorder, tab = recording
        tab.click_element(tab.find('//div[@id="box"]'))
        tab.type_key("Enter")
        types = [c for c in recorder.trace if isinstance(c, TypeCommand)]
        assert (types[0].key, types[0].code) == ("Enter", 13)


class TestTiming:
    def test_elapsed_measured_between_actions(self, recording):
        _, recorder, tab = recording
        tab.click_element(tab.find('//span[@id="start"]'))
        tab.wait(300)
        tab.click_element(tab.find('//div[@id="box"]'))
        assert recorder.trace[1].elapsed_ms == 300

    def test_first_elapsed_measured_from_begin(self):
        browser = build_browser()
        recorder = WarrRecorder().attach(browser)
        recorder.begin(url("/"))
        tab = browser.new_tab(url("/"))  # 50ms navigation latency
        tab.wait(200)
        tab.click_element(tab.find('//span[@id="start"]'))
        assert recorder.trace[0].elapsed_ms == 250

    def test_trace_total_duration_matches_session(self, recording):
        _, recorder, tab = recording
        tab.click_element(tab.find('//span[@id="start"]'))
        tab.wait(100)
        tab.click_element(tab.find('//div[@id="box"]'))
        tab.wait(50)
        tab.type_text("a")
        total = recorder.trace.total_duration_ms()
        assert total >= 150


class TestLifecycle:
    def test_detach_stops_recording(self, recording):
        _, recorder, tab = recording
        tab.click_element(tab.find('//span[@id="start"]'))
        recorder.detach()
        tab.click_element(tab.find('//div[@id="box"]'))
        assert len(recorder.trace) == 1

    def test_begin_resets_trace(self, recording):
        _, recorder, tab = recording
        tab.click_element(tab.find('//span[@id="start"]'))
        recorder.begin(url("/fresh"))
        assert len(recorder.trace) == 0
        assert recorder.trace.start_url == url("/fresh")

    def test_overhead_samples_collected(self, recording):
        _, recorder, tab = recording
        tab.click_element(tab.find('//span[@id="start"]'))
        tab.click_element(tab.find('//div[@id="box"]'))
        tab.type_text("ab")
        assert len(recorder.overhead_samples_us) == 4
        assert recorder.mean_overhead_us() > 0

    def test_mean_overhead_zero_when_no_samples(self):
        assert WarrRecorder().mean_overhead_us() == 0.0


class TestFrames:
    def test_iframe_interaction_emits_switchframe(self):
        browser = build_browser()
        recorder = WarrRecorder().attach(browser)
        recorder.begin(url("/frame"))
        tab = browser.new_tab(url("/frame"))
        iframe = tab.find('//iframe[@id="child"]')
        child = tab.engine.frame_for(iframe)
        button = child.document.get_element_by_id("innerbtn")
        outer_box = tab.engine.layout.box_for(iframe)
        inner = child.layout.click_point(button)
        tab.click(int(outer_box.rect.x + inner[0]),
                  int(outer_box.rect.y + inner[1]))
        actions = [c.action for c in recorder.trace]
        assert actions == ["switchframe", "click"]
        assert recorder.trace[0].xpath != "default"

    def test_returning_to_main_frame_emits_default_switch(self):
        browser = build_browser()
        recorder = WarrRecorder().attach(browser)
        recorder.begin(url("/frame"))
        tab = browser.new_tab(url("/frame"))
        iframe = tab.find('//iframe[@id="child"]')
        child = tab.engine.frame_for(iframe)
        button = child.document.get_element_by_id("innerbtn")
        outer_box = tab.engine.layout.box_for(iframe)
        inner = child.layout.click_point(button)
        tab.click(int(outer_box.rect.x + inner[0]),
                  int(outer_box.rect.y + inner[1]))
        # now click in the main document
        tab.click_element(tab.find('//iframe[@id="bare"]'))
        switches = [c for c in recorder.trace
                    if isinstance(c, SwitchFrameCommand)]
        assert len(switches) == 2
        assert switches[1].is_default


#: A page with no listeners: only what a test adds is observable.
PLAIN_HTML = ('<html><head><title>Plain</title></head><body>'
              '<div id="pad" contenteditable></div></body></html>')


class TestListenerAddedMidKeystroke:
    """A listener a handler adds during a recorded keystroke sees the
    rest of that keystroke, whether or not its type was observable when
    the keystroke began (the event handler resolves what is observable
    once per keystroke, against the document's live set)."""

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "oracle"])
    def test_keydown_handler_adds_a_keyup_listener_that_runs(self, fast):
        with perf.fast_path(fast):
            browser = build_browser(
                extra_routes={"/plain": lambda request: PLAIN_HTML})
            recorder = WarrRecorder().attach(browser)
            recorder.begin(url("/plain"))
            tab = browser.new_tab(url("/plain"))
            pad = tab.find('//div[@id="pad"]')
            tab.click_element(pad)
            seen = []

            def on_keydown(event):
                seen.append(event.type)
                pad.add_event_listener(
                    "keyup", lambda event: seen.append(event.type))

            pad.add_event_listener("keydown", on_keydown)
            assert "keyup" not in tab.document._listened_types
            tab.type_key("a")
        assert seen == ["keydown", "keyup"]
        assert pad.text_content == "a"
        assert isinstance(recorder.trace[-1], TypeCommand)
        assert recorder.trace[-1].key == "a"

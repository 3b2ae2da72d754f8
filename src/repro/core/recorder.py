"""The WaRR Recorder.

An :class:`~repro.browser.event_handler.InputObserver` embedded at the
WebKit layer (paper, Section IV-A): it sees every mouse press, drag, and
keystroke *before* the page's own handlers run, needs no modification to
web applications, and keeps recording across navigations because it is
attached to the browser, not to a page.

Paper-faithful details implemented here:

- **Shift combining** (Section IV-B): pressing Shift+h registers two
  keystrokes in Chrome; logging Shift is unnecessary, so the recorder
  drops the bare Shift event and logs only the combined ``[H,72]``.
  Other control keys (Control, Alt, ...) *are* logged with their codes.
- **Click positions** are logged as backup element identification.
- **Frame tracking**: when consecutive actions target different frames
  the recorder emits a ``switchframe`` command (see
  :mod:`repro.core.commands`).
- **Overhead accounting**: every logging call is timed with the real
  (wall) clock; :attr:`overhead_samples_us` feeds the Section-VI
  user-experience benchmark.
"""

import time

from repro import telemetry
from repro.browser.event_handler import InputObserver
from repro.telemetry.tracks import RECORDER_TRACK
from repro.core.commands import (
    ClickCommand,
    DoubleClickCommand,
    DragCommand,
    SwitchFrameCommand,
    TypeCommand,
    DEFAULT_FRAME,
)
from repro.core.trace import WarrTrace
from repro.events.keys import KEY_SHIFT
from repro.xpath.generator import xpath_for_element


class WarrRecorder(InputObserver):
    """Records user actions as WaRR Commands."""

    def __init__(self):
        self.trace = WarrTrace()
        self.recording = False
        self._browser = None
        self._last_action_time = None
        self._current_frame_engine = None
        #: Wall-clock microseconds spent logging, one sample per action.
        self.overhead_samples_us = []

    # -- lifecycle ------------------------------------------------------------

    def attach(self, browser):
        """Embed the recorder into a browser and start recording."""
        self._browser = browser
        browser.attach_observer(self)
        self.recording = True
        return self

    def detach(self):
        """Stop recording and unhook from the browser."""
        if self._browser is not None:
            self._browser.detach_observer(self)
        self.recording = False

    def begin(self, start_url, label=""):
        """Reset state and start a fresh trace anchored at ``start_url``.

        The first command's elapsed time is measured from this call, so
        an initial user pause (waiting for a page to become ready) is
        part of the trace and is reproduced by timing-accurate replay.
        """
        self.trace = WarrTrace(start_url=start_url, label=label)
        self._last_action_time = (
            self._browser.clock.now() if self._browser is not None else None
        )
        self._current_frame_engine = None
        return self

    # -- InputObserver hooks (the WebCore::EventHandler call sites) --------

    def on_mouse_press(self, engine, event, target):
        if not self.recording:
            return
        started = time.perf_counter()
        elapsed = self._elapsed(event.timestamp)
        self._track_frame(engine, event.timestamp)
        xpath = str(xpath_for_element(target, engine.document))
        command_type = DoubleClickCommand if event.detail >= 2 else ClickCommand
        self.trace.append(
            command_type(xpath, x=event.client_x, y=event.client_y,
                         elapsed_ms=elapsed)
        )
        self._record_overhead(started)

    def on_key(self, engine, event, target):
        if not self.recording:
            return
        code = event.key_code
        if code == KEY_SHIFT:
            # Combined with the following printable key (paper, IV-B).
            return
        started = time.perf_counter()
        elapsed = self._elapsed(event.timestamp)
        self._track_frame(engine, event.timestamp)
        xpath = str(xpath_for_element(target, engine.document))
        self.trace.append(
            TypeCommand(xpath, key=event.key, code=code, elapsed_ms=elapsed)
        )
        self._record_overhead(started)

    def on_drag(self, engine, event, target):
        if not self.recording:
            return
        started = time.perf_counter()
        elapsed = self._elapsed(event.timestamp)
        self._track_frame(engine, event.timestamp)
        xpath = str(xpath_for_element(target, engine.document))
        self.trace.append(
            DragCommand(xpath, dx=event.dx, dy=event.dy, elapsed_ms=elapsed)
        )
        self._record_overhead(started)

    # -- internals ------------------------------------------------------------

    def _elapsed(self, timestamp):
        """Virtual ms since the previous recorded action."""
        if self._last_action_time is None:
            elapsed = 0
        else:
            elapsed = max(0, int(round(timestamp - self._last_action_time)))
        self._last_action_time = timestamp
        return elapsed

    def _track_frame(self, engine, timestamp):
        """Emit switchframe commands when interaction changes frames."""
        if engine.parent is None:
            # Main frame.
            if (self._current_frame_engine is not None
                    and self._current_frame_engine.parent is not None):
                self.trace.append(SwitchFrameCommand(DEFAULT_FRAME, elapsed_ms=0))
            self._current_frame_engine = engine
            return
        if engine is not self._current_frame_engine:
            iframe_element = self._find_iframe_element(engine)
            if iframe_element is not None:
                xpath = str(xpath_for_element(iframe_element,
                                              engine.parent.document))
                self.trace.append(SwitchFrameCommand(xpath, elapsed_ms=0))
            self._current_frame_engine = engine

    @staticmethod
    def _find_iframe_element(engine):
        parent = engine.parent
        if parent is None:
            return None
        for element, child in parent.frames.items():
            if child is engine:
                return element
        return None

    def _record_overhead(self, started):
        self.overhead_samples_us.append((time.perf_counter() - started) * 1e6)
        tracer = telemetry._tracer
        if tracer is not None and tracer.wants("recorder"):
            # The span covers exactly the logging work the overhead
            # benchmark measures: frame tracking, XPath generation, and
            # the trace append. The command line is deferred (bound
            # method in the args slot): it is only formatted at export.
            command = self.trace.commands[-1] if len(self.trace) else None
            tracer.complete_between(
                "record.command", started, track=RECORDER_TRACK,
                cat="recorder",
                args={"line": command.to_line if command else None})

    # -- reporting ---------------------------------------------------------------

    def mean_overhead_us(self):
        """Average per-action logging cost in microseconds."""
        if not self.overhead_samples_us:
            return 0.0
        return sum(self.overhead_samples_us) / len(self.overhead_samples_us)

    def __repr__(self):
        return "WarrRecorder(%d commands, recording=%r)" % (
            len(self.trace), self.recording,
        )

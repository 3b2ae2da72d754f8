"""Session narration: tracer hooks, the report, and the exported trace."""

import io
import json
from collections import Counter

import pytest

from repro import telemetry
from repro.apps.framework import make_browser
from repro.apps.sites import SitesApplication
from repro.cli import main as cli_main
from repro.core.recorder import WarrRecorder
from repro.core.commands import TypeCommand
from repro.session import engine as engine_module
from repro.session.engine import SessionEngine
from repro.session.policies import FailurePolicy, TimingPolicy
from repro.telemetry.observer import TracingNarrator
from repro.workloads.sessions import SITES_URL, sites_edit_session


def _sites_trace():
    browser, _ = make_browser([SitesApplication])
    recorder = WarrRecorder().attach(browser)
    recorder.begin(SITES_URL + "/edit/home")
    sites_edit_session(browser, text="Hi!")
    return recorder.trace


def _sites_engine():
    browser, _ = make_browser([SitesApplication], developer_mode=True)
    return SessionEngine(browser)


class TestEventStreamContract:
    """The run calls the tracer's narrator in place of an event stream:
    none while tracing is off, one call per command under production."""

    def test_narrator_calls_per_command(self, monkeypatch):
        calls = Counter()

        class Counted(TracingNarrator):
            def __init__(self, tracer):
                calls["__init__"] += 1
                super().__init__(tracer)

            def __getattribute__(self, name):
                value = super().__getattribute__(name)
                if callable(value) and not name.startswith("_"):
                    calls[name] += 1
                return value

        monkeypatch.setattr(engine_module, "TracingNarrator", Counted)
        trace = _sites_trace()
        report = _sites_engine().run(trace)
        assert report.complete
        assert calls == {}
        with telemetry.tracing(categories="production") as tracer:
            report = _sites_engine().run(trace)
        assert report.complete
        assert calls["command_finished"] == len(trace)
        for phase in ("locating", "located", "acted"):
            assert calls[phase] == 0
        records = [event for event in tracer.buffer
                   if event.ph == "X" and event.name == "command"]
        assert len(records) == len(trace)

    def test_finish_writes_every_report_slice(self):
        # The run writes the report itself: a halt is on it when the
        # step that halted returns, and every slice is filled in by
        # finish(). Sites under no_wait raises page errors (the paper's
        # timing bug); a missing field halts the run.
        trace = _sites_trace()
        trace.append(TypeCommand('//input[@id="missing"]', key="a", code=65,
                                 elapsed_ms=0))
        browser, _ = make_browser([SitesApplication], developer_mode=True)
        engine = SessionEngine(browser, timing=TimingPolicy.no_wait(),
                               failure=FailurePolicy.halt_on_failure())
        run = engine.start(trace)
        for command in trace:
            result = run.step(command)
            if run.stopped:
                break
        report = run.report
        assert report.halted is True
        assert report.halt_reason == "command failed: %s" \
            % trace[-1].to_line()
        assert report.halt_error is result.error is not None
        assert run.finish() is report
        assert len(report.results) == len(trace)
        assert report.results[-1] is result
        assert report.page_errors
        assert all("editorState" in str(error)
                   for error in report.page_errors)
        assert report.perf_counters
        assert report.net_fidelity == {"failed_fetches": 0, "timeouts": 0,
                                       "tape_misses": 0}
        assert report.final_url == SITES_URL + "/edit/home"

    def test_tracer_installed_between_steps_traces_from_the_next_command(self):
        trace = _sites_trace()
        engine = _sites_engine()
        run = engine.start(trace)
        run.step(trace[0])
        with telemetry.tracing(clock=engine.browser.clock) as tracer:
            for command in trace.commands[1:]:
                run.step(command)
            report = run.finish()
        assert report.complete
        spans = [event for event in tracer.buffer
                 if event.ph == "X" and event.name == "command"]
        assert [span.args["line"] for span in spans] \
            == [command.to_line() for command in trace.commands[1:]]


def _trace_counts(tmp_path, app, categories=None):
    path = str(tmp_path / ("%s.warr" % app))
    out = str(tmp_path / ("%s.json" % app))
    assert cli_main(["record", "--app", app, "--out", path],
                    out=io.StringIO()) == 0
    argv = ["replay", path, "--app", app, "--trace-out", out]
    if categories is not None:
        argv += ["--trace-categories", categories]
    assert cli_main(argv, out=io.StringIO()) == 0
    with open(out) as handle:
        events = json.load(handle)["traceEvents"]
    return dict(Counter((event["name"], event["ph"]) for event in events))


#: ``repro replay --trace-out`` of ``repro record --app sites``, all
#: categories. The same counts as before key events were built lazily,
#: but for ``xpath.compile``: the .warr parser now compiles each locator
#: when the file is read, before tracing starts, and a relaxation memo
#: hit compiles nothing, so only the 3 memo misses count (2 each).
#: The two ``dom.parse`` rows are the page template store's lookups,
#: one per parsed page, and the session's delta of that counter.
GOLDEN_SITES_TRACE = {
    ("act", "B"): 14, ("act", "E"): 14, ("command", "X"): 14,
    ("dispatch blur", "X"): 1, ("dispatch click", "X"): 2,
    ("dispatch focus", "X"): 1, ("dispatch input", "X"): 12,
    ("dispatch keydown", "X"): 12, ("dispatch keypress", "X"): 12,
    ("dispatch keyup", "X"): 12, ("dispatch mousedown", "X"): 2,
    ("dispatch mouseup", "X"): 2, ("dispatch.bubble", "X"): 56,
    ("dispatch.capture", "X"): 56, ("dispatch.target", "X"): 56,
    ("input.mouse", "X"): 2, ("ipc.deliver", "X"): 2, ("ipc.pump", "X"): 2,
    ("ipc.queue", "b"): 2, ("ipc.queue", "e"): 2,
    ("ipc.queue_depth", "C"): 2, ("layout.reflow", "X"): 3,
    ("locate", "B"): 14, ("locate", "E"): 14, ("navigated", "i"): 1,
    ("net.transport.live", "X"): 3, ("perf.dom.index", "C"): 7,
    ("perf.dom.parse", "C"): 2, ("perf.layout", "C"): 4,
    ("perf.relax.resolve", "C"): 14,
    ("perf.xpath.compile", "C"): 6, ("process_name", "M"): 2,
    ("process_sort_index", "M"): 2, ("session", "B"): 1,
    ("session", "E"): 1, ("session.cache.dom.index", "C"): 1,
    ("session.cache.dom.parse", "C"): 1, ("session.cache.layout", "C"): 1,
    ("session.cache.relax.resolve", "C"): 1,
    ("session.cache.xpath.compile", "C"): 1,
    ("session.schedule", "X"): 14, ("thread_name", "M"): 8,
    ("thread_sort_index", "M"): 8, ("xpath.evaluate", "X"): 3,
}

#: ``repro replay --trace-out --trace-categories production`` of a GMail
#: recording.
GOLDEN_GMAIL_PRODUCTION_TRACE = {
    ("command", "X"): 48, ("navigated", "i"): 1,
    ("net.transport.live", "X"): 4, ("process_name", "M"): 1,
    ("process_sort_index", "M"): 1, ("session", "B"): 1,
    ("session", "E"): 1, ("thread_name", "M"): 6,
    ("thread_sort_index", "M"): 6,
}


class TestTraceOutputUnchanged:
    @pytest.mark.parametrize("app, categories, golden", [
        ("sites", None, GOLDEN_SITES_TRACE),
        ("gmail", "production", GOLDEN_GMAIL_PRODUCTION_TRACE),
    ])
    def test_repro_trace_event_counts(self, tmp_path, app, categories,
                                      golden):
        assert _trace_counts(tmp_path, app, categories) == golden

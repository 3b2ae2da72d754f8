"""Stock observers and tool-specific event-stream consumers."""

import io
import json
from collections import Counter

import pytest

from repro import telemetry
from repro.apps.framework import make_browser
from repro.apps.sites import SitesApplication
from repro.baselines.fidelity import ReplayFidelityObserver
from repro.cli import main as cli_main
from repro.core.recorder import WarrRecorder
from repro.core.commands import ClickCommand, TypeCommand
from repro.core.trace import WarrTrace
from repro.session.engine import SessionEngine
from repro.session.events import EventStream, SessionEvent, SessionObserver
from repro.session.observers import EventLogObserver, PerfCountersObserver
from repro.session.policies import FailurePolicy, TimingPolicy
from repro.workloads.sessions import SITES_URL, sites_edit_session
from tests.browser.helpers import build_browser, url


class TestSessionObserverDispatch:
    def test_hooks_receive_matching_kinds(self):
        class Spy(SessionObserver):
            def __init__(self):
                self.located = []
                self.failed = []

            def on_located(self, event):
                self.located.append(event)

            def on_failed(self, event):
                self.failed.append(event)

        spy = Spy()
        stream = EventStream([spy])
        stream.emit(SessionEvent(SessionEvent.LOCATED))
        stream.emit(SessionEvent(SessionEvent.ACTED))
        stream.emit(SessionEvent(SessionEvent.FAILED))
        assert len(spy.located) == 1
        assert len(spy.failed) == 1

    def test_unknown_kind_is_ignored(self):
        stream = EventStream([SessionObserver()])
        stream.emit(SessionEvent("brand-new-kind"))  # must not raise

    def test_emit_order_is_subscription_order(self):
        order = []

        class Tagged(SessionObserver):
            def __init__(self, tag):
                self.tag = tag

            def on_event(self, event):
                order.append(self.tag)

        stream = EventStream([Tagged("first"), Tagged("second")])
        stream.emit(SessionEvent(SessionEvent.ACTED))
        assert order == ["first", "second"]


class TestEventStreamTable:
    """The per-kind handler table behind ``EventStream.emit``."""

    def test_subscribe_after_emit_invalidates_the_table(self):
        early, late = EventLogObserver(), EventLogObserver()
        stream = EventStream([early])
        stream.emit(SessionEvent(SessionEvent.ACTED))
        stream.subscribe(late)
        stream.emit(SessionEvent(SessionEvent.ACTED))
        assert early.kinds_seen() == [SessionEvent.ACTED] * 2
        assert late.kinds_seen() == [SessionEvent.ACTED]

    def test_on_event_override_receives_every_kind(self):
        log = EventLogObserver()
        stream = EventStream([log])
        kinds = [SessionEvent.SESSION_STARTED, SessionEvent.LOCATED,
                 SessionEvent.PERF_DELTA, "brand-new-kind"]
        for kind in kinds:
            stream.emit(SessionEvent(kind))
        assert log.kinds_seen() == kinds

    def test_hook_on_grandchild_class_is_found(self):
        class Child(SessionObserver):
            pass

        class Grandchild(Child):
            def __init__(self):
                self.acted = []

            def on_acted(self, event):
                self.acted.append(event)

        spy = Grandchild()
        stream = EventStream([spy])
        event = stream.emit(SessionEvent(SessionEvent.ACTED))
        stream.emit(SessionEvent(SessionEvent.LOCATED))
        assert spy.acted == [event]

    def test_hook_for_a_kind_outside_the_engine_set_is_found(self):
        class Spy(SessionObserver):
            def __init__(self):
                self.seen = []

            def on_brand_new_kind(self, event):
                self.seen.append(event)

        spy = Spy()
        event = EventStream([spy]).emit(SessionEvent("brand-new-kind"))
        assert spy.seen == [event]

    def test_duck_typed_observer_receives_events(self):
        class Duck:
            def __init__(self):
                self.kinds = []

            def on_event(self, event):
                self.kinds.append(event.kind)

        duck = Duck()
        stream = EventStream([duck])
        stream.emit(SessionEvent(SessionEvent.ACTED))
        stream.emit(SessionEvent(SessionEvent.FAILED))
        assert duck.kinds == [SessionEvent.ACTED, SessionEvent.FAILED]

    def test_subscription_order_is_kept_across_kinds(self):
        order = []

        class Hooked(SessionObserver):
            def __init__(self, tag):
                self.tag = tag

            def on_acted(self, event):
                order.append((self.tag, event.kind))

            def on_failed(self, event):
                order.append((self.tag, event.kind))

        class CatchAll(SessionObserver):
            def on_event(self, event):
                order.append(("all", event.kind))

        class Duck:
            def on_event(self, event):
                order.append(("duck", event.kind))

        stream = EventStream([Hooked("first"), CatchAll(), Duck(),
                              Hooked("last")])
        for kind in (SessionEvent.ACTED, SessionEvent.LOCATED,
                     SessionEvent.FAILED):
            del order[:]
            stream.emit(SessionEvent(kind))
            expected = [("all", kind), ("duck", kind)]
            if kind != SessionEvent.LOCATED:
                expected = [("first", kind)] + expected + [("last", kind)]
            assert order == expected

    def test_inherited_no_op_hooks_are_left_out(self):
        stream = EventStream([SessionObserver(), EventLogObserver()])
        stream.emit(SessionEvent(SessionEvent.ACTED))
        assert len(stream.handlers[SessionEvent.ACTED]) == 1


class TestEventLogObserver:
    def test_filtering_by_kind(self):
        log = EventLogObserver(kinds=[SessionEvent.FAILED])
        stream = EventStream([log])
        stream.emit(SessionEvent(SessionEvent.ACTED))
        stream.emit(SessionEvent(SessionEvent.FAILED))
        assert log.kinds_seen() == [SessionEvent.FAILED]


class TestPerfCountersObserver:
    def test_totals_sum_across_sessions(self):
        totals = PerfCountersObserver()
        stream = EventStream([totals])
        stream.emit(SessionEvent(SessionEvent.PERF_DELTA, data={
            "counters": {"xpath": {"hits": 3, "misses": 1}}}))
        stream.emit(SessionEvent(SessionEvent.PERF_DELTA, data={
            "counters": {"xpath": {"hits": 1, "misses": 1}}}))
        assert totals.sessions == 2
        summary = totals.summary()
        assert summary["xpath"]["hits"] == 4
        assert summary["xpath"]["misses"] == 2
        assert summary["xpath"]["hit_rate"] == 4 / 6


class TestReplayFidelityObserver:
    def test_scores_replayed_interactions(self):
        trace = WarrTrace(start_url=url("/"), commands=[
            ClickCommand('//input[@name="who"]', x=1, y=1),
            TypeCommand("//video", "x", 88),  # unresolvable -> not replayed
        ])
        browser = build_browser(developer_mode=True)
        scorer = ReplayFidelityObserver()
        SessionEngine(browser).run(trace, observers=[scorer])
        result = scorer.result()
        assert result.total == 2
        assert result.covered == 1
        assert result.label == "P"
        assert result.per_kind["click"] == (1, 1)
        assert result.per_kind["key"] == (0, 1)


# -- the event-stream contract ----------------------------------------------
#
# The engine builds an event only for a kind some observer handles, and
# the tracing observer handles kinds only while a tracer is installed.
# None of that may change what any observer, tracer or report sees.

_PER_COMMAND = [SessionEvent.COMMAND_STARTED, SessionEvent.LOCATED,
                SessionEvent.ACTED, SessionEvent.COMMAND_FINISHED]

#: What an EventLogObserver saw replaying ``_sites_trace()`` before the
#: engine built events lazily: two opening kinds, four per command for
#: the five commands, two closing kinds.
GOLDEN_SITES_KINDS = (
    [SessionEvent.SESSION_STARTED, SessionEvent.NAVIGATED]
    + _PER_COMMAND * 5
    + [SessionEvent.PERF_DELTA, SessionEvent.SESSION_FINISHED])


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
    def test_event_log_sees_the_golden_kind_sequence(self):
        trace = _sites_trace()
        assert len(trace) == 5
        log = EventLogObserver()
        report = _sites_engine().run(trace, observers=[log])
        assert report.complete
        assert log.kinds_seen() == GOLDEN_SITES_KINDS

    def test_observer_overriding_only_on_located_gets_every_located(self):
        class Located(SessionObserver):
            def __init__(self):
                self.commands = []

            def on_located(self, event):
                self.commands.append(event.command)

        trace = _sites_trace()
        located = Located()
        _sites_engine().run(trace, observers=[located])
        assert located.commands == list(trace)

    def test_unobserved_kinds_are_never_built(self, monkeypatch):
        from repro.session import engine as engine_module

        built = Counter()

        class Counted(SessionEvent):
            def __init__(self, kind, *args, **kwargs):
                built[kind] += 1
                super().__init__(kind, *args, **kwargs)

        monkeypatch.setattr(engine_module, "SessionEvent", Counted)
        trace = _sites_trace()
        # No observer and no tracer: the run writes its report without
        # building a single per-command event.
        report = _sites_engine().run(trace)
        assert report.complete
        assert len(report.results) == len(trace)
        for kind in _PER_COMMAND:
            assert built[kind] == 0
        # Production tracing reads one hook per command: the finish
        # event carries the start, and no phase span is recorded.
        built.clear()
        with telemetry.tracing(categories="production"):
            report = _sites_engine().run(trace)
        assert report.complete
        assert built[SessionEvent.COMMAND_FINISHED] == len(trace)
        for kind in (SessionEvent.COMMAND_STARTED, SessionEvent.LOCATED,
                     SessionEvent.ACTED):
            assert built[kind] == 0

    def test_observers_see_the_report_written_before_each_event(self):
        # The run writes the report itself: a halt is on it by the
        # time on_halted runs, and every slice is filled in by
        # session-finished. Sites under no_wait raises page errors
        # (the paper's timing bug); a missing field halts the run.
        class Spy(SessionObserver):
            report = None
            seen = None

            def on_halted(self, event):
                self.seen = {"halted": self.report.halted,
                             "halt_reason": self.report.halt_reason,
                             "halt_error": self.report.halt_error,
                             "error": event.error}

            def on_session_finished(self, event):
                report = event.data["report"]
                self.seen.update(
                    report=report, results=list(report.results),
                    page_errors=list(report.page_errors),
                    perf_counters=report.perf_counters,
                    net_fidelity=report.net_fidelity,
                    final_url=report.final_url)

        trace = _sites_trace()
        trace.append(TypeCommand('//input[@id="missing"]', key="a", code=65,
                                 elapsed_ms=0))
        browser, _ = make_browser([SitesApplication], developer_mode=True)
        engine = SessionEngine(browser, timing=TimingPolicy.no_wait(),
                               failure=FailurePolicy.halt_on_failure())
        spy = Spy()
        run = engine.start(trace, observers=[spy])
        spy.report = run.report
        for command in trace:
            run.step(command)
            if run.stopped:
                break
        report = run.finish()
        seen = spy.seen
        assert seen["halted"] is True
        assert seen["halt_reason"] == "command failed: %s" \
            % trace[-1].to_line()
        assert seen["halt_error"] is seen["error"] is not None
        assert seen["report"] is report
        assert seen["results"] == report.results
        assert len(seen["results"]) == len(trace)
        assert seen["page_errors"]
        assert all("editorState" in str(error)
                   for error in seen["page_errors"])
        assert seen["perf_counters"]
        assert seen["perf_counters"] == report.perf_counters
        assert seen["net_fidelity"] == {"failed_fetches": 0, "timeouts": 0,
                                        "tape_misses": 0}
        assert seen["final_url"] == SITES_URL + "/edit/home"

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

"""Stock observers and tool-specific event-stream consumers."""

from repro.baselines.fidelity import ReplayFidelityObserver
from repro.core.commands import ClickCommand, TypeCommand
from repro.core.trace import WarrTrace
from repro.session.engine import SessionEngine
from repro.session.events import EventStream, SessionEvent, SessionObserver
from repro.session.observers import EventLogObserver, PerfCountersObserver
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
        assert len(stream._handlers[SessionEvent.ACTED]) == 1


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

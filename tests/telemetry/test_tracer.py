"""Tracer emission, track assignment, installation, and the perf bridge."""

import pytest

from repro import perf, telemetry
from repro.telemetry.tracer import Tracer, parse_category_spec
from repro.telemetry.tracks import (
    COUNTERS_TRACK,
    CONTROL_PID,
    FIRST_BROWSER_PID,
    LOCATOR_TRACK,
    SESSION_TRACK,
    TrackRegistry,
)
from repro.util.clock import VirtualClock
from tests.browser.helpers import build_browser, url


class TestTracerEmission:
    def test_span_records_complete_event(self):
        tracer = Tracer()
        with tracer.span("work", track=SESSION_TRACK, cat="test") as args:
            args["n"] = 3
        (event,) = list(tracer.buffer)
        assert event.ph == "X"
        assert event.name == "work"
        assert event.dur >= 0.0
        assert event.args["n"] == 3
        assert (event.pid, event.tid) == SESSION_TRACK

    def test_begin_end_pair(self):
        tracer = Tracer()
        tracer.begin("outer", track=SESSION_TRACK, cat="test")
        tracer.end("outer", track=SESSION_TRACK, cat="test")
        first, second = list(tracer.buffer)
        assert (first.ph, second.ph) == ("B", "E")
        assert second.ts >= first.ts

    def test_async_pair_carries_id(self):
        tracer = Tracer()
        tracer.async_begin("queue", 42, track=SESSION_TRACK, cat="ipc")
        tracer.async_end("queue", 42, track=LOCATOR_TRACK, cat="ipc")
        begin, end = list(tracer.buffer)
        assert (begin.ph, end.ph) == ("b", "e")
        assert begin.id == end.id == 42

    def test_counter_event(self):
        tracer = Tracer()
        tracer.counter("depth", {"value": 7}, track=COUNTERS_TRACK)
        (event,) = list(tracer.buffer)
        assert event.ph == "C"
        assert event.args == {"value": 7}

    def test_virtual_clock_stamped_into_args(self):
        clock = VirtualClock()
        clock.advance(250.0)
        tracer = Tracer(clock=clock)
        tracer.instant("tick", track=SESSION_TRACK)
        (event,) = list(tracer.buffer)
        assert event.args["vt_ms"] == 250.0

    def test_complete_between_uses_perf_counter_origin(self):
        import time

        tracer = Tracer()
        started = time.perf_counter()
        tracer.complete_between("op", started, track=SESSION_TRACK)
        (event,) = list(tracer.buffer)
        assert event.ph == "X"
        assert event.dur >= 0.0

    def test_mark_and_events_since(self):
        tracer = Tracer()
        tracer.instant("before", track=SESSION_TRACK)
        mark = tracer.mark()
        tracer.instant("after", track=SESSION_TRACK)
        names = [event.name for event in tracer.events_since(mark)]
        assert names == ["after"]


class TestCategorySpecRates:
    def test_rate_suffix_splits_into_categories_and_rates(self):
        categories, rates = parse_category_spec("session,dispatch:0.25")
        assert categories == frozenset({"session", "dispatch"})
        assert rates == {"dispatch": 0.25}

    def test_spec_without_rates_passes_through(self):
        assert parse_category_spec("production") == (
            telemetry.PRODUCTION_CATEGORIES, {})
        assert parse_category_spec(None) == (None, {})

    def test_rated_term_still_enables_its_category(self):
        def kept_names():
            tracer = Tracer(categories="session,dispatch:0.5",
                            sample_seed=3)
            for index in range(200):
                tracer.instant("d%d" % index, cat="dispatch")
            return [event.name for event in tracer.buffer]

        first, second = kept_names(), kept_names()
        assert first == second  # same seed keeps the same events
        assert 60 < len(first) < 140  # ~half of 200


class TestTrackRegistry:
    def test_none_and_tuple_resolution(self):
        registry = TrackRegistry()
        assert registry.for_object(None) == SESSION_TRACK
        assert registry.for_object((9, 9)) == (9, 9)

    def test_browser_stack_gets_distinct_tracks(self):
        registry = TrackRegistry()
        browser = build_browser()
        tab = browser.new_tab(url("/"))
        browser_track = registry.for_object(browser)
        tab_track = registry.for_object(tab)
        renderer_track = registry.for_object(tab.renderer)
        assert browser_track == (FIRST_BROWSER_PID, 1)
        assert tab_track[0] == FIRST_BROWSER_PID
        assert renderer_track[0] == FIRST_BROWSER_PID
        assert len({browser_track, tab_track, renderer_track}) == 3

    def test_engine_shares_renderer_track(self):
        registry = TrackRegistry()
        browser = build_browser()
        tab = browser.new_tab(url("/"))
        assert (registry.for_object(tab.renderer.engine)
                == registry.for_object(tab.renderer))

    def test_second_browser_gets_new_pid(self):
        registry = TrackRegistry()
        first = build_browser()
        second = build_browser()
        assert registry.for_object(first)[0] != registry.for_object(second)[0]

    def test_metadata_names_every_track(self):
        registry = TrackRegistry()
        browser = build_browser()
        registry.for_object(browser)
        names = {(event.pid, event.tid, event.args.get("name"))
                 for event in registry.metadata_events
                 if event.name in ("process_name", "thread_name")}
        assert (CONTROL_PID, 0, "repro driver") in names
        assert (FIRST_BROWSER_PID, 0, "BrowserWindow 0") in names
        assert (FIRST_BROWSER_PID, 1, "browser (UI/IPC)") in names


class TestInstallation:
    def test_off_by_default(self):
        assert telemetry.current() is None
        assert not telemetry.enabled()

    def test_install_uninstall(self):
        tracer = Tracer()
        telemetry.install(tracer)
        assert telemetry.current() is tracer
        telemetry.uninstall()
        assert telemetry.current() is None

    def test_nested_install_refused(self):
        telemetry.install(Tracer())
        with pytest.raises(RuntimeError):
            telemetry.install(Tracer())

    def test_tracing_contextmanager_writes_file(self, tmp_path):
        out = tmp_path / "trace.json"
        with telemetry.tracing(out=str(out)) as tracer:
            tracer.instant("inside", track=SESSION_TRACK)
        assert telemetry.current() is None
        assert out.exists()

    def test_tracing_uninstalls_on_error(self):
        with pytest.raises(RuntimeError):
            with telemetry.tracing():
                raise RuntimeError("boom")
        assert telemetry.current() is None


class TestPerfBridge:
    def test_counter_activity_becomes_events(self):
        perf.reset()
        with telemetry.tracing() as tracer:
            perf.record("demo.cache", hit=True)
            perf.record("demo.cache", hit=False)
        counters = [event for event in tracer.buffer if event.ph == "C"]
        assert any(event.name == "perf.demo.cache" for event in counters)
        last = [event for event in counters
                if event.name == "perf.demo.cache"][-1]
        assert last.args == {"hits": 1, "misses": 1}

    def test_bridge_detached_after_tracing(self):
        with telemetry.tracing() as tracer:
            pass
        before = len(tracer.buffer)
        perf.record("demo.cache", hit=True)
        assert len(tracer.buffer) == before

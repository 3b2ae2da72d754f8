"""Worker supervision: backoff, breaker, drain, heartbeats."""

import os
import queue
import signal
import time

import pytest

from repro.session import supervisor
from repro.session.supervisor import (
    THROTTLE_ENV,
    GracefulDrain,
    WorkerSupervisor,
    backoff,
    start_heartbeat,
    tail_text,
    throttle_seconds,
)


def _constants(monkeypatch, **values):
    """Set supervisor constants (``BACKOFF_BASE=...``) for one test."""
    for name, value in values.items():
        monkeypatch.setattr(supervisor, name, value)


class TestSupervisorPolicy:
    """The respawn backoff the supervisor constants define."""

    def test_backoff_doubles_per_consecutive_death(self, monkeypatch):
        _constants(monkeypatch, BACKOFF_BASE=0.1, BACKOFF_CAP=10.0)
        assert backoff(1) == pytest.approx(0.1)
        assert backoff(2) == pytest.approx(0.2)
        assert backoff(3) == pytest.approx(0.4)
        assert backoff(5) == pytest.approx(1.6)

    def test_backoff_is_capped(self, monkeypatch):
        _constants(monkeypatch, BACKOFF_BASE=0.1, BACKOFF_CAP=0.5)
        assert backoff(10) == pytest.approx(0.5)

    def test_zeroth_and_first_death_pay_the_base(self, monkeypatch):
        _constants(monkeypatch, BACKOFF_BASE=0.25)
        assert backoff(0) == pytest.approx(0.25)
        assert backoff(1) == pytest.approx(0.25)


class TestWorkerSupervisor:
    def _supervisor(self, monkeypatch, **constants):
        _constants(monkeypatch, **constants)
        return WorkerSupervisor()

    def test_death_schedules_respawn_after_backoff(self, monkeypatch):
        sup = self._supervisor(monkeypatch, BACKOFF_BASE=0.5)
        assert not sup.record_death(slot=0, now=100.0)
        assert sup.pending_slots() == [0]
        assert sup.due_slots(now=100.1) == []
        assert sup.due_slots(now=100.6) == [0]
        # Popping a due slot removes it from the schedule.
        assert sup.pending_slots() == []

    def test_consecutive_deaths_back_off_exponentially(self, monkeypatch):
        sup = self._supervisor(monkeypatch, BACKOFF_BASE=1.0,
                               BACKOFF_CAP=60.0, BREAKER_DEATHS=10)
        sup.record_death(0, now=0.0)
        sup.record_death(0, now=0.0)
        # Second consecutive death: 1.0 * 2^(2-1) = 2 seconds out.
        assert sup.next_due_in(now=0.0) == pytest.approx(2.0)

    def test_completion_resets_the_streak(self, monkeypatch):
        sup = self._supervisor(monkeypatch, BREAKER_DEATHS=3)
        sup.record_death(0, now=0.0)
        sup.record_death(1, now=0.0)
        sup.record_completion()
        assert sup.consecutive_deaths == 0
        assert not sup.record_death(0, now=0.0)
        assert sup.deaths == 3  # lifetime count never resets

    def test_breaker_trips_on_unbroken_death_streak(self, monkeypatch):
        sup = self._supervisor(monkeypatch, BREAKER_DEATHS=3)
        assert not sup.record_death(0, now=0.0)
        assert not sup.record_death(1, now=0.0)
        assert sup.record_death(2, now=0.0)
        assert sup.tripped

    def test_tripped_breaker_stops_respawns(self, monkeypatch):
        sup = self._supervisor(monkeypatch, BACKOFF_BASE=0.0,
                               BREAKER_DEATHS=2)
        sup.record_death(0, now=0.0)
        sup.record_death(1, now=0.0)
        assert sup.tripped
        assert sup.due_slots(now=10.0) == []
        assert sup.next_due_in(now=10.0) is None


class TestGracefulDrain:
    def test_programmatic_request_sets_every_probe(self):
        drain = GracefulDrain()
        assert not drain.requested and not drain()
        drain.request()
        assert drain.requested and drain()

    def test_sigterm_requests_a_drain_instead_of_dying(self):
        with GracefulDrain() as drain:
            os.kill(os.getpid(), signal.SIGTERM)
            deadline = time.monotonic() + 2.0
            while not drain.requested and time.monotonic() < deadline:
                time.sleep(0.01)
            assert drain.requested

    def test_first_signal_restores_previous_dispositions(self):
        # The escape hatch: after the first signal the previous handler
        # is back, so a second signal means immediate death again.
        before = signal.getsignal(signal.SIGTERM)
        with GracefulDrain() as drain:
            assert signal.getsignal(signal.SIGTERM) != before
            os.kill(os.getpid(), signal.SIGTERM)
            deadline = time.monotonic() + 2.0
            while not drain.requested and time.monotonic() < deadline:
                time.sleep(0.01)
            assert signal.getsignal(signal.SIGTERM) == before
        assert signal.getsignal(signal.SIGTERM) == before

    def test_exit_restores_handlers_even_unfired(self):
        before = signal.getsignal(signal.SIGINT)
        with GracefulDrain():
            pass
        assert signal.getsignal(signal.SIGINT) == before


class TestThrottle:
    def test_unset_means_off(self, monkeypatch):
        monkeypatch.delenv(THROTTLE_ENV, raising=False)
        assert throttle_seconds() == 0.0

    def test_value_parses_as_seconds(self, monkeypatch):
        monkeypatch.setenv(THROTTLE_ENV, "0.25")
        assert throttle_seconds() == pytest.approx(0.25)

    def test_garbage_is_off_not_fatal(self, monkeypatch):
        monkeypatch.setenv(THROTTLE_ENV, "not-a-number")
        assert throttle_seconds() == 0.0


class TestHeartbeat:
    def test_beats_flow_until_stopped(self):
        beats = queue.Queue()
        stop = start_heartbeat(beats, worker_id=3, interval=0.01)
        try:
            kind, index, worker = beats.get(timeout=2.0)
            assert (kind, index, worker) == ("heartbeat", -1, 3)
        finally:
            stop.set()
        # Drain whatever was in flight; after the stop no new beats.
        time.sleep(0.05)
        while not beats.empty():
            beats.get_nowait()
        time.sleep(0.05)
        assert beats.empty()


class TestTailText:
    def test_missing_file_is_empty(self, tmp_path):
        assert tail_text(str(tmp_path / "absent.log")) == ""

    def test_short_file_comes_back_whole(self, tmp_path):
        path = tmp_path / "short.log"
        path.write_text("two lines\nof stderr\n")
        assert tail_text(str(path)) == "two lines\nof stderr\n"

    def test_long_file_yields_only_the_tail(self, tmp_path):
        path = tmp_path / "long.log"
        path.write_text("x" * 5000 + "THE END")
        tail = tail_text(str(path), limit=100)
        assert len(tail) == 100
        assert tail.endswith("THE END")

    def test_invalid_utf8_is_replaced_not_fatal(self, tmp_path):
        path = tmp_path / "binary.log"
        path.write_bytes(b"\xff\xfe broken \xff")
        assert "broken" in tail_text(str(path))

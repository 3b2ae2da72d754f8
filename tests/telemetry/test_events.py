"""TraceEvent serialization and the bounded ring buffer."""

import pytest

from repro.telemetry.events import TraceEvent
from repro.telemetry.packed import PH_INSTANT, PackedRingBuffer


class TestTraceEvent:
    def test_minimal_dict(self):
        event = TraceEvent("work", "X", 12.3456789, 1, 2, dur=3.14159)
        data = event.to_dict()
        assert data["name"] == "work"
        assert data["ph"] == "X"
        assert data["ts"] == 12.346
        assert data["dur"] == 3.142
        assert data["pid"] == 1 and data["tid"] == 2
        assert "cat" not in data and "args" not in data and "id" not in data

    def test_optional_fields(self):
        event = TraceEvent("q", "b", 1.0, 1, 1, cat="ipc",
                           args={"kind": "mouse"}, id=7)
        data = event.to_dict()
        assert data["cat"] == "ipc"
        assert data["args"] == {"kind": "mouse"}
        assert data["id"] == 7

    def test_instant_is_thread_scoped(self):
        assert TraceEvent("tick", "i", 0.0, 1, 1).to_dict()["s"] == "t"


def _fill(buffer, numbers):
    for number in numbers:
        buffer.append(PH_INSTANT, str(number), None, 1, 1, 0.0, None, None,
                      None, None)


def _numbers(events):
    return [int(event.name) for event in events]


class TestRingBuffer:
    """The tracer's bounded ring, through the surface batch slicing uses."""

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            PackedRingBuffer(0)

    def test_appends_within_capacity(self):
        buffer = PackedRingBuffer(4)
        _fill(buffer, range(3))
        assert _numbers(buffer) == [0, 1, 2]
        assert buffer.total == 3
        assert buffer.dropped == 0

    def test_drops_oldest_when_full(self):
        buffer = PackedRingBuffer(3)
        _fill(buffer, range(5))
        assert _numbers(buffer) == [2, 3, 4]
        assert buffer.total == 5
        assert buffer.dropped == 2

    def test_since_slices_incrementally(self):
        buffer = PackedRingBuffer(10)
        _fill(buffer, range(4))
        mark = buffer.total
        _fill(buffer, range(4, 7))
        assert _numbers(buffer.since(mark)) == [4, 5, 6]
        assert _numbers(buffer.since(0)) == [0, 1, 2, 3, 4, 5, 6]

    def test_since_survives_eviction(self):
        buffer = PackedRingBuffer(3)
        _fill(buffer, range(3))
        mark = buffer.total  # 3; events 0..2 held
        _fill(buffer, range(3, 8))  # evicts everything pre-mark and more
        assert _numbers(buffer.since(mark)) == [5, 6, 7]

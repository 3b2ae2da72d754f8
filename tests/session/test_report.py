"""Report taxonomy across the wire: error classes and retry counts.

Pool workers ship ReplayReports to the parent as WR3 blobs
(:mod:`repro.session.wire`), so everything self-healing adds to a
report — per-command retry counts, error severity, the halt error,
recovery totals — must survive an encode/decode round trip intact.
"""

from repro.core.commands import ClickCommand
from repro.core.trace import WarrTrace
from repro.session.report import CommandResult, RemoteError, ReplayReport
from repro.session.wire import decode_report, encode_report
from repro.util.errors import (
    FATAL,
    PERMANENT,
    TRANSIENT,
    NetworkFaultError,
    ReplayError,
    classify,
    is_transient,
)


def _trace():
    return WarrTrace(start_url="http://t.example/", label="rt",
                     commands=[ClickCommand("//a", 1, 2)])


def _wire(report):
    """``report`` after one trip through the WR3 codec."""
    return decode_report(encode_report(report), report.trace)


def _wire_result(result):
    """``result`` after one trip through the WR3 codec."""
    report = ReplayReport(_trace())
    report.results = [result]
    return _wire(report).results[0]


class TestCommandResultRoundTrip:
    def test_retries_survive(self):
        result = CommandResult(ClickCommand("//a", 1, 2), CommandResult.OK,
                               retries=3)
        rebuilt = _wire_result(result)
        assert rebuilt.retries == 3
        assert rebuilt.succeeded

    def test_error_class_survives(self):
        result = CommandResult(ClickCommand("//a", 1, 2),
                               CommandResult.FAILED,
                               error=NetworkFaultError("injected"),
                               retries=2)
        assert result.error_class == TRANSIENT
        rebuilt = _wire_result(result)
        assert rebuilt.error_class == TRANSIENT
        assert is_transient(rebuilt.error)
        assert rebuilt.error.type_name == "NetworkFaultError"
        assert str(rebuilt.error) == "injected"
        assert rebuilt.retries == 2

    def test_permanent_default_for_plain_errors(self):
        result = CommandResult(ClickCommand("//a", 1, 2),
                               CommandResult.FAILED,
                               error=ReplayError("nope"))
        rebuilt = _wire_result(result)
        assert rebuilt.error_class == PERMANENT

    def test_error_class_none_without_error(self):
        result = CommandResult(ClickCommand("//a", 1, 2), CommandResult.OK)
        assert result.error_class is None
        assert _wire_result(result).error_class is None


class TestReplayReportRoundTrip:
    def _report(self):
        report = ReplayReport(_trace())
        report.results = [
            CommandResult(ClickCommand("//a", 1, 2), CommandResult.OK,
                          retries=1),
            CommandResult(ClickCommand("//b", 3, 4), CommandResult.FAILED,
                          error=NetworkFaultError("flaky"), retries=3),
        ]
        report.halted = True
        report.halt_reason = "per-trace timeout"
        report.halt_error = RemoteError("per-trace timeout",
                                        type_name="TimeoutError",
                                        severity=FATAL)
        report.recoveries = 2
        return report

    def test_taxonomy_fields_round_trip(self):
        rebuilt = _wire(self._report())
        assert rebuilt.retry_count == 4
        assert [r.retries for r in rebuilt.results] == [1, 3]
        assert rebuilt.results[1].error_class == TRANSIENT
        assert rebuilt.recoveries == 2
        assert rebuilt.halt_error.type_name == "TimeoutError"
        assert classify(rebuilt.halt_error) == FATAL
        assert str(rebuilt.halt_error) == "per-trace timeout"

    def test_round_trip_is_stable(self):
        # A second trip through the wire changes nothing.
        report = self._report()
        once = _wire(report)
        assert once.to_dict() == report.to_dict()
        assert _wire(once).to_dict() == report.to_dict()

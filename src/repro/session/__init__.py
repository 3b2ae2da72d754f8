"""The policy-driven session layer.

One execution pipeline — schedule → locate → act → observe — shared by
every tool that drives a browser: WaRR replay, WebErr's error-injection
campaigns, AUsER's developer-side reproductions, and the fidelity
baselines. The :class:`SessionEngine` runs the pipeline; policy objects
configure each stage; every run writes a :class:`ReplayReport`, which
is what the tools that drive the engine read, and narrates its steps to
the installed tracer, if any (:mod:`repro.telemetry.observer`).
"""

from repro.session.policies import (
    FailurePolicy,
    Location,
    LocatorPolicy,
    TimingPolicy,
)
from repro.session.report import CommandResult, RemoteError, ReplayReport
from repro.session.observers import PerfCountersObserver
from repro.session.engine import SessionEngine, SessionRun
from repro.session.batch import BatchReport, BatchRunner, TraceRun
from repro.session.pool import (
    PoolOutcome,
    WorkerPool,
    WorkerSpec,
    resolve_factory,
)
from repro.session.journal import (
    JournalError,
    RunJournal,
    read_journal,
    trace_digest,
    verify_exactly_once,
)
from repro.session.supervisor import (
    GracefulDrain,
    WorkerSupervisor,
)
from repro.session.wire import WireError, decode_report, encode_report

__all__ = [
    "TimingPolicy",
    "LocatorPolicy",
    "Location",
    "FailurePolicy",
    "CommandResult",
    "ReplayReport",
    "PerfCountersObserver",
    "SessionEngine",
    "SessionRun",
    "BatchRunner",
    "BatchReport",
    "TraceRun",
    "RemoteError",
    "PoolOutcome",
    "WorkerPool",
    "WorkerSpec",
    "resolve_factory",
    "JournalError",
    "RunJournal",
    "read_journal",
    "trace_digest",
    "verify_exactly_once",
    "GracefulDrain",
    "WorkerSupervisor",
    "WireError",
    "decode_report",
    "encode_report",
]

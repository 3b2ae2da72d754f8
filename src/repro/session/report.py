"""Per-session result objects: command outcomes and the replay report.

These are the value objects a :class:`~repro.session.engine.SessionRun`
writes as it replays. They live here (not in the replayer) so every
engine consumer — WaRR replay, WebErr campaigns, AUsER reproductions,
batch runs — shares one report vocabulary.

Reports cross process boundaries as WR3 blobs
(:mod:`repro.session.wire`), so everything in a report must survive
one: live exception objects (which may drag browser internals along)
are carried as :class:`RemoteError` stand-ins preserving the original
type name, message and severity. :meth:`ReplayReport.to_dict` renders a
report as a plain dict: the wire codec's test oracle.
"""


from repro.util.errors import classify


class RemoteError(Exception):
    """A worker-side error carried across a process boundary.

    Printing matches the original (``str(error)`` is the original
    message); :attr:`type_name` preserves the worker-side class for
    classification, and :attr:`severity` the worker-side taxonomy bucket
    (so :func:`repro.util.errors.classify` keeps working on the parent
    side of the wire).
    """

    def __init__(self, message, type_name="Exception", severity=None):
        super().__init__(message)
        self.type_name = type_name
        if severity is not None:
            self.severity = severity

    def __repr__(self):
        return "RemoteError(%s: %s)" % (self.type_name, self)


def _error_to_dict(error):
    if error is None:
        return None
    type_name = getattr(error, "type_name", None) or type(error).__name__
    return {"type": type_name, "message": str(error),
            "severity": classify(error)}


class CommandResult:
    """Outcome of replaying one command."""

    OK = "ok"
    RELAXED = "relaxed"
    COORDINATE = "coordinate-fallback"
    FAILED = "failed"

    def __init__(self, command, status, detail="", error=None, retries=0):
        self.command = command
        self.status = status
        self.detail = detail
        self.error = error
        #: How many extra attempts self-healing spent on this command
        #: (0 = succeeded or failed on the first try).
        self.retries = retries

    @property
    def succeeded(self):
        return self.status in (self.OK, self.RELAXED, self.COORDINATE)

    @property
    def error_class(self):
        """Taxonomy bucket of the error (``transient``/``permanent``/
        ``fatal``), or None when the command succeeded without error."""
        if self.error is None:
            return None
        return classify(self.error)

    def to_dict(self):
        """A picklable/JSON-able dict (command on its wire format)."""
        return {
            "command": self.command.to_line(),
            "status": self.status,
            "detail": self.detail,
            "error": _error_to_dict(self.error),
            "retries": self.retries,
        }

    def __repr__(self):
        return "CommandResult(%s, %r)" % (self.status, self.command.to_line())


#: The network-fidelity slice every report carries: requests that
#: ultimately failed, requests that timed out, and playback requests
#: with no matching tape entry.
EMPTY_NET_FIDELITY = {"failed_fetches": 0, "timeouts": 0, "tape_misses": 0}


class ReplayReport:
    """Everything a developer (or WebErr's oracle) needs after replay."""

    def __init__(self, trace):
        self.trace = trace
        self.results = []
        self.halted = False
        self.halt_reason = ""
        #: The error behind the halt (a live exception or RemoteError),
        #: so batch consumers can classify aborts (e.g. a pool timeout
        #: vs. a worker crash); None when not halted or unknown.
        self.halt_error = None
        self.page_errors = []
        self.final_url = None
        #: Renderer-crash recoveries (tab reload + checkpoint resume).
        self.recoveries = 0
        #: Fast-path cache activity during this replay:
        #: {cache: {"hits": h, "misses": m, "hit_rate": r}}.
        self.perf_counters = {}
        #: Network-fidelity slice (ROADMAP item 5's scoreboard, first
        #: installment): what the wire did to this session.
        self.net_fidelity = dict(EMPTY_NET_FIDELITY)

    @property
    def replayed_count(self):
        return sum(1 for r in self.results if r.succeeded)

    @property
    def failed_count(self):
        return sum(1 for r in self.results if not r.succeeded)

    @property
    def retry_count(self):
        """Total extra attempts self-healing spent across all commands."""
        return sum(r.retries for r in self.results)

    @property
    def relaxed_count(self):
        return sum(1 for r in self.results
                   if r.status in (CommandResult.RELAXED, CommandResult.COORDINATE))

    @property
    def complete(self):
        """True if every command was replayed successfully."""
        return not self.halted and self.failed_count == 0

    def failures(self):
        return [r for r in self.results if not r.succeeded]

    def perf_summary(self):
        """One line per cache: ``name 98% (492 hits / 8 misses)``."""
        lines = []
        for name in sorted(self.perf_counters):
            counts = self.perf_counters[name]
            lines.append(
                "%s %.0f%% (%d hits / %d misses)"
                % (name, 100.0 * counts["hit_rate"], counts["hits"],
                   counts["misses"])
            )
        return lines

    def to_dict(self):
        """A picklable/JSON-able dict of the whole report."""
        return {
            "trace": self.trace.to_text(),
            "results": [result.to_dict() for result in self.results],
            "halted": self.halted,
            "halt_reason": self.halt_reason,
            "halt_error": _error_to_dict(self.halt_error),
            "page_errors": [_error_to_dict(error)
                            for error in self.page_errors],
            "final_url": self.final_url,
            "recoveries": self.recoveries,
            "perf_counters": self.perf_counters,
            "net_fidelity": dict(self.net_fidelity),
        }

    def summary(self):
        return (
            "replayed %d/%d commands (%d relaxed, %d failed%s); "
            "%d page error(s)"
            % (self.replayed_count, len(self.trace), self.relaxed_count,
               self.failed_count, ", HALTED" if self.halted else "",
               len(self.page_errors))
        )

    def __repr__(self):
        return "ReplayReport(%s)" % self.summary()

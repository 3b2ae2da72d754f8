"""The chaos matrix: replay bundled workloads under every fault profile.

``python -m repro chaos`` drives this harness: for each (application,
profile, seed) cell it records the app's canonical scripted session on a
quiet browser, then replays it on a fresh browser with the fault
injector installed, and scores the outcome — complete, failed (some
commands lost), or halted (session aborted). The aggregated
:class:`SurvivalReport` is the headline artifact: survival rate per
profile, per-layer fault counts, retries, recoveries, and aborts.

Everything is virtual-time and seed-driven, so a cell is exactly
reproducible from ``(app, profile, seed)`` — two runs of the same
matrix produce identical reports.
"""

from repro import chaos
from repro.session.engine import SessionEngine
from repro.session.policies import RetryPolicy, TimingPolicy


def default_workloads():
    """The bundled (name, app_class, session, start_url) workloads."""
    from repro.cli import APPS

    return [(name,) + APPS[name] for name in sorted(APPS)]


def record_workload(app_class, session, start_url, label=""):
    """Record one scripted session on a quiet (chaos-free) browser."""
    from repro.apps.framework import make_browser
    from repro.core.recorder import WarrRecorder

    browser, _ = make_browser([app_class], seed=0)
    recorder = WarrRecorder().attach(browser)
    recorder.begin(start_url, label=label)
    session(browser)
    recorder.detach()
    return recorder.trace


class SessionOutcome:
    """One matrix cell: an app's trace replayed under (profile, seed)."""

    COMPLETE = "complete"
    FAILED = "failed"
    HALTED = "halted"

    def __init__(self, app, profile_name, seed, report, injector_summary):
        self.app = app
        self.profile = profile_name
        self.seed = seed
        if report.halted:
            self.status = self.HALTED
        elif report.failed_count:
            self.status = self.FAILED
        else:
            self.status = self.COMPLETE
        self.commands = len(report.trace)
        self.replayed = report.replayed_count
        self.failed = report.failed_count
        self.retries = report.retry_count
        self.recoveries = report.recoveries
        self.halt_reason = report.halt_reason
        #: {"total_faults": n, "faults": {layer: {kind: n}}, ...}
        self.injector = injector_summary

    @property
    def survived(self):
        return self.status == self.COMPLETE

    @property
    def total_faults(self):
        return self.injector.get("total_faults", 0)

    def to_dict(self):
        return {
            "app": self.app,
            "profile": self.profile,
            "seed": self.seed,
            "status": self.status,
            "commands": self.commands,
            "replayed": self.replayed,
            "failed": self.failed,
            "retries": self.retries,
            "recoveries": self.recoveries,
            "halt_reason": self.halt_reason,
            "faults": self.injector.get("faults", {}),
            "total_faults": self.total_faults,
        }

    def __repr__(self):
        return "SessionOutcome(%s/%s seed=%d: %s)" % (
            self.app, self.profile, self.seed, self.status)


class SurvivalReport:
    """The chaos matrix rolled up: survival and recovery per profile."""

    def __init__(self, retry_enabled):
        self.retry_enabled = retry_enabled
        self.outcomes = []

    def add(self, outcome):
        self.outcomes.append(outcome)

    def by_profile(self):
        """{profile: [outcomes]} preserving insertion order."""
        grouped = {}
        for outcome in self.outcomes:
            grouped.setdefault(outcome.profile, []).append(outcome)
        return grouped

    def profile_stats(self, profile):
        """Aggregate numbers for one profile's row of the matrix."""
        cells = [o for o in self.outcomes if o.profile == profile]
        total = len(cells)
        survived = sum(1 for o in cells if o.survived)
        return {
            "sessions": total,
            "survived": survived,
            "survival_rate": survived / total if total else None,
            "halted": sum(1 for o in cells if o.status == o.HALTED),
            "failed": sum(1 for o in cells if o.status == o.FAILED),
            "faults": sum(o.total_faults for o in cells),
            "retries": sum(o.retries for o in cells),
            "recoveries": sum(o.recoveries for o in cells),
        }

    @property
    def session_count(self):
        return len(self.outcomes)

    @property
    def survived_count(self):
        return sum(1 for o in self.outcomes if o.survived)

    def to_dict(self):
        """JSON-able report (the CI artifact)."""
        return {
            "retry_enabled": self.retry_enabled,
            "sessions": self.session_count,
            "survived": self.survived_count,
            "profiles": {profile: self.profile_stats(profile)
                         for profile in self.by_profile()},
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }

    def summary_lines(self):
        """Human-readable matrix rows for the CLI."""
        lines = ["chaos matrix: %d session(s), retries %s"
                 % (self.session_count,
                    "on" if self.retry_enabled else "off")]
        for profile in self.by_profile():
            stats = self.profile_stats(profile)
            lines.append(
                "%-16s survived %d/%d (%.0f%%)  faults=%d retries=%d "
                "recoveries=%d halted=%d"
                % (profile, stats["survived"], stats["sessions"],
                   100.0 * (stats["survival_rate"] or 0.0), stats["faults"],
                   stats["retries"], stats["recoveries"], stats["halted"]))
        return lines

    def __repr__(self):
        return "SurvivalReport(%d/%d survived)" % (
            self.survived_count, self.session_count)


def replay_under_chaos(trace, app_class, profile, seed, retry=None,
                       timing=None):
    """Replay one recorded trace with the fault injector installed.

    Returns ``(report, injector)``. The injector is installed only
    around the replay — recording and scoring stay quiet — and its
    stream is bound to the replay browser's virtual clock so fault
    records carry virtual timestamps.
    """
    from repro.apps.framework import make_browser

    browser, _ = make_browser([app_class], seed=0, developer_mode=True)
    engine = SessionEngine(
        browser,
        timing=timing if timing is not None else TimingPolicy.recorded(),
        retry=retry)
    with chaos.active(profile, seed=seed, clock=browser.clock) as injector:
        report = engine.run(trace)
    return report, injector


def run_chaos_matrix(profiles, seeds=3, workloads=None, retry=None,
                     timing=None, progress=None):
    """Replay every workload under every (profile, seed); returns a
    :class:`SurvivalReport`.

    ``profiles`` is a list of :class:`~repro.chaos.profile.FaultProfile`
    objects or bundled profile names; ``seeds`` is a count (seeds 0..N-1)
    or an explicit list of seeds. ``retry`` defaults to
    :meth:`RetryPolicy.default` — pass :meth:`RetryPolicy.none` to
    measure how the un-hardened replayer dies. ``progress`` is an
    optional callable receiving one line per completed cell.
    """
    profiles = [chaos.get_profile(p) if isinstance(p, str) else p
                for p in profiles]
    seed_list = list(seeds) if not isinstance(seeds, int) else list(range(seeds))
    if retry is None:
        retry = RetryPolicy.default()
    if workloads is None:
        workloads = default_workloads()
    report = SurvivalReport(retry_enabled=retry.enabled)
    for name, app_class, session, start_url in workloads:
        trace = record_workload(app_class, session, start_url,
                                label="%s chaos workload" % name)
        for profile in profiles:
            for seed in seed_list:
                replay_report, injector = replay_under_chaos(
                    trace, app_class, profile, seed,
                    retry=retry, timing=timing)
                outcome = SessionOutcome(name, profile.name, seed,
                                         replay_report, injector.summary())
                report.add(outcome)
                if progress is not None:
                    progress("[%s/%s seed=%d] %s: %d fault(s), %d "
                             "retr%s, %d recover%s"
                             % (name, profile.name, seed, outcome.status,
                                outcome.total_faults, outcome.retries,
                                "y" if outcome.retries == 1 else "ies",
                                outcome.recoveries,
                                "y" if outcome.recoveries == 1 else "ies"))
    return report


# -- resilience soak ----------------------------------------------------------
#
# The chaos matrix above breaks components *inside* one browser; the
# soak breaks the batch farm itself. Each scenario launches a real
# ``python -m repro batch --journal`` subprocess, injures it the way an
# operator's machine would (SIGTERM, SIGKILL'd parent, chaos-killed
# workers), resumes from the journal, and then audits the journal for
# the one invariant durability promises: every trace finished exactly
# once — nothing lost, nothing double-counted.

SOAK_SCENARIOS = ("drain", "kill-worker", "crash-parent")
SOAK_MODES = ("serial", "pooled")

_MODE_ARGS = {
    "serial": (),
    "pooled": ("--workers", "2"),
}


class SoakOutcome:
    """One soak cell: a (scenario, mode) pair and its audit verdict."""

    def __init__(self, scenario, mode, passed, detail, verdict=None,
                 interrupted_exit=None, resume_exit=None):
        self.scenario = scenario
        self.mode = mode
        self.passed = bool(passed)
        self.detail = detail
        #: The final :func:`~repro.session.journal.verify_exactly_once`
        #: audit (None when the scenario died before producing one).
        self.verdict = verdict
        self.interrupted_exit = interrupted_exit
        self.resume_exit = resume_exit

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "passed": self.passed,
            "detail": self.detail,
            "verdict": self.verdict,
            "interrupted_exit": self.interrupted_exit,
            "resume_exit": self.resume_exit,
        }

    def __repr__(self):
        return "SoakOutcome(%s/%s: %s)" % (
            self.scenario, self.mode, "pass" if self.passed else "FAIL")


class SoakReport:
    """Every soak cell rolled up; ``passed`` is the CI gate."""

    def __init__(self):
        self.outcomes = []

    def add(self, outcome):
        self.outcomes.append(outcome)

    @property
    def passed(self):
        return bool(self.outcomes) and all(o.passed for o in self.outcomes)

    def to_dict(self):
        return {
            "passed": self.passed,
            "cells": len(self.outcomes),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    def summary_lines(self):
        lines = ["soak: %d cell(s), %s"
                 % (len(self.outcomes),
                    "all passed" if self.passed else "FAILURES")]
        for o in self.outcomes:
            lines.append("%-14s %-8s %s  %s"
                         % (o.scenario, o.mode,
                            "pass" if o.passed else "FAIL", o.detail))
        return lines

    def __repr__(self):
        return "SoakReport(%d cells, %s)" % (
            len(self.outcomes), "passed" if self.passed else "failed")


def _soak_env(throttle, tmpdir):
    """Subprocess environment: importable ``repro``, soak throttle, and
    ``TMPDIR`` set to ``tmpdir``, so what a killed batch leaves in its
    temp dir (a pool's ``repro-pool-*`` stderr directory) stays inside
    the soak's work dir, where the harness removes it."""
    import os
    import repro
    from repro.session.supervisor import THROTTLE_ENV

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env["TMPDIR"] = tmpdir
    if throttle:
        env[THROTTLE_ENV] = "%g" % throttle
    else:
        env.pop(THROTTLE_ENV, None)
    return env


def _batch_command(trace_paths, app, mode, journal, resume=False,
                   chaos_profile=None, chaos_seed=0):
    import sys

    cmd = [sys.executable, "-m", "repro", "batch"]
    cmd += list(trace_paths)
    cmd += ["--app", app, "--no-wait", "--journal", journal]
    cmd += list(_MODE_ARGS[mode])
    if resume:
        cmd.append("--resume")
    if chaos_profile:
        cmd += ["--chaos", chaos_profile, "--chaos-seed", str(chaos_seed)]
    return cmd


def _journal_finishes(path):
    """Finished-trace count right now (0 while the file is unborn)."""
    from repro.session import journal as run_journal

    try:
        return len(run_journal.read_journal(path).finish_by_index())
    except (OSError, run_journal.JournalError):
        return 0


def _wait_for_finishes(path, minimum, timeout=60.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if _journal_finishes(path) >= minimum:
            return True
        time.sleep(0.02)
    return False


def _run_to_completion(proc, verbose, progress):
    stdout, stderr = proc.communicate()
    if verbose and progress is not None:
        for line in (stdout or "").splitlines():
            progress("  | " + line)
        for line in (stderr or "").splitlines():
            progress("  ! " + line)
    return proc.returncode


def _kill_tree(proc):
    """SIGKILL the subprocess and its whole session (pool workers)."""
    import os
    import signal as signal_module

    try:
        os.killpg(os.getpgid(proc.pid), signal_module.SIGKILL)
    except (ProcessLookupError, PermissionError, OSError):
        try:
            proc.kill()
        except OSError:
            pass


def run_soak(app="sites", mode=None, traces=12, seed=0, throttle=0.15,
             scenarios=None, journal_dir=None, verbose=False,
             progress=None):
    """Run the resilience soak matrix; returns a :class:`SoakReport`.

    Scenarios (each per batch backend unless noted):

    - ``drain`` — SIGTERM the running batch after its first finish; it
      must exit 75 with a resumable journal, leave at least one trace
      unfinished, and the resume run completes.
    - ``kill-worker`` (pooled only) — run under the ``farm`` chaos
      profile so worker processes die between traces, holding their
      next; containment, requeue, and quarantine must keep the journal
      exactly-once.
    - ``crash-parent`` — SIGKILL the whole batch process tree mid-run
      (no drain, no cleanup); the resume run picks up from the torn
      journal and completes.

    Every cell's final audit is
    :func:`repro.session.journal.verify_exactly_once`: all traces
    finished, no duplicates — the zero-lost / zero-double-counted
    invariant.
    """
    import os
    import shutil
    import signal as signal_module
    import subprocess
    import tempfile

    from repro.cli import APPS
    from repro.session import journal as run_journal

    modes = list(mode) if mode else list(SOAK_MODES)
    chosen = list(scenarios) if scenarios else list(SOAK_SCENARIOS)
    workdir = journal_dir or tempfile.mkdtemp(prefix="repro-soak-")
    os.makedirs(workdir, exist_ok=True)
    app_class, session, start_url = APPS[app]
    trace = record_workload(app_class, session, start_url,
                            label="%s soak workload" % app)
    trace_paths = []
    for index in range(traces):
        path = os.path.join(workdir, "soak-%d.warr" % index)
        trace.save(path)
        trace_paths.append(path)

    cell_tmp = os.path.join(workdir, "tmp")

    def launch(journal, mode_name, resume=False, chaos_profile=None,
               slow=True):
        cmd = _batch_command(trace_paths, app, mode_name, journal,
                             resume=resume, chaos_profile=chaos_profile,
                             chaos_seed=seed)
        return subprocess.Popen(
            cmd, env=_soak_env(throttle if slow else 0.0, cell_tmp),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)

    def audit(journal):
        return run_journal.verify_exactly_once(
            journal, expected_labels=trace_paths)

    def all_replayed(journal):
        """True when every journaled trace finished status=replayed.

        Replay-quality signal independent of the batch exit code: a
        workload with pre-existing page errors still exits nonzero,
        but durability only promises the traces *ran* exactly once.
        """
        finishes = run_journal.read_journal(journal).finish_by_index()
        return all(record.status == run_journal.REPLAYED
                   for record in finishes.values())

    report = SoakReport()
    for mode_name in modes:
        for scenario in chosen:
            if scenario == "kill-worker" and mode_name != "pooled":
                continue
            os.makedirs(cell_tmp, exist_ok=True)
            journal = os.path.join(
                workdir, "%s-%s.wj2" % (scenario, mode_name))
            if progress is not None:
                progress("soak %s/%s ..." % (scenario, mode_name))
            if scenario == "drain":
                proc = launch(journal, mode_name)
                _wait_for_finishes(journal, 1)
                proc.send_signal(signal_module.SIGTERM)
                first_exit = _run_to_completion(proc, verbose, progress)
                partial = _journal_finishes(journal)
                if first_exit not in (75, 0):
                    _kill_tree(proc)
                    report.add(SoakOutcome(
                        scenario, mode_name, False,
                        "drain exited %s (wanted 75)" % first_exit,
                        interrupted_exit=first_exit))
                    shutil.rmtree(cell_tmp, ignore_errors=True)
                    continue
                resume_exit = _run_to_completion(
                    launch(journal, mode_name, resume=True, slow=False),
                    verbose, progress)
                verdict = audit(journal)
                # A drain that finished every trace cancelled nothing,
                # so the resume path it exists to test never ran.
                passed = (partial < traces
                          and resume_exit in (0, 1)
                          and verdict["exactly_once"]
                          and all_replayed(journal))
                detail = ("drained at %d/%d, resumed %d, exactly-once=%s"
                          % (partial, traces, traces - partial,
                             verdict["exactly_once"]))
                if partial >= traces:
                    detail += ": nothing was left to resume"
            elif scenario == "crash-parent":
                proc = launch(journal, mode_name)
                _wait_for_finishes(journal, 1)
                _kill_tree(proc)
                first_exit = _run_to_completion(proc, verbose, progress)
                partial = _journal_finishes(journal)
                resume_exit = _run_to_completion(
                    launch(journal, mode_name, resume=True, slow=False),
                    verbose, progress)
                verdict = audit(journal)
                passed = (resume_exit in (0, 1)
                          and verdict["exactly_once"]
                          and all_replayed(journal))
                detail = ("killed at %d/%d, resumed %d, exactly-once=%s"
                          % (partial, traces, traces - partial,
                             verdict["exactly_once"]))
            else:  # kill-worker
                proc = launch(journal, mode_name, chaos_profile="farm",
                              slow=False)
                first_exit = _run_to_completion(proc, verbose, progress)
                resume_exit = None
                verdict = audit(journal)
                quarantined = sum(
                    1 for record in run_journal.read_journal(journal)
                    .finish_by_index().values()
                    if record.status == run_journal.QUARANTINED)
                passed = (first_exit in (0, 1)
                          and verdict["exactly_once"])
                detail = ("farm chaos: exit %s, %d quarantined, "
                          "exactly-once=%s"
                          % (first_exit, quarantined,
                             verdict["exactly_once"]))
            report.add(SoakOutcome(scenario, mode_name, passed, detail,
                                   verdict=verdict,
                                   interrupted_exit=first_exit,
                                   resume_exit=resume_exit))
            if progress is not None:
                progress("soak %s/%s: %s (%s)"
                         % (scenario, mode_name,
                            "pass" if passed else "FAIL", detail))
            shutil.rmtree(cell_tmp, ignore_errors=True)
    if journal_dir is None:
        shutil.rmtree(workdir, ignore_errors=True)
    return report

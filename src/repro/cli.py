"""Command-line interface.

The workflows a downstream user runs from a shell::

    python -m repro record  --app sites  --out session.warr
    python -m repro replay  session.warr --app sites [--no-wait]
                            [--stock-driver] [--no-relaxation]
                            [--trace-out trace.json]
                            [--tape net.tape [--tape-mode record]]
    python -m repro batch   a.warr b.warr c.warr d.warr --app sites
                            [--workers 4] [--trace-timeout 30]
                            [--trace-dir traces/]
                            [--journal run.wj2 [--resume]]
                            [--chaos farm --chaos-seed 7]
    python -m repro journal run.wj2
    python -m repro soak    [--mode pooled] [--scenario kill-worker]
                            [--out soak.json]
    python -m repro inspect session.warr
    python -m repro weberr  session.warr --app sites --campaign timing
    python -m repro chaos   --profile default flaky_net --seeds 5
                            [--no-retry] [--out report.json]
    python -m repro tape inspect net.tape [--json net.json] [--entries]
    python -m repro tape compact net.tape [--out smaller.tape]

``replay`` is the one single-trace replay command. ``--tape PATH
--tape-mode record`` replays against the live application while
snapshotting every HTTP exchange onto a network tape; ``--tape PATH``
alone (playback) replays the same trace hermetically — page scripts
run but no application servers are registered, every response comes
off the tape. ``batch`` takes the same pair, treating PATH as a
directory holding one ``<label>.tape`` per trace.

``batch --journal`` appends every trace's start and final outcome to a
crash-safe run journal; after a crash, a SIGTERM drain (exit code 75),
or a kill, ``--resume`` replays completed traces from the journal and
executes only the remainder. ``journal`` inspects one, and ``soak``
runs the whole failure matrix — killed workers, drained runs, crashed
parents — asserting exactly-once accounting on both batch backends
(serial and pooled).

``replay --trace-out`` records a Chrome trace-event timeline of the
replay (IPC, dispatch, layout, XPath, session pipeline) and prints a
summary of it — load the JSON in ``chrome://tracing`` or
https://ui.perfetto.dev. ``batch --trace-dir`` writes one trace per
session plus a merged ``batch.trace.json``. Both accept
``--trace-categories`` (``all`` / ``production`` / a comma-separated
list) to filter what records — ``production`` keeps the session, net,
chaos, and recorder lanes at <10% replay overhead.

Because this reproduction has no interactive UI, ``record`` drives the
application's canonical scripted session (the same ones the paper's
experiments use) with the recorder attached.
"""

import argparse
import math
import os
import sys

from repro import telemetry
from repro.apps.dashboard import DashboardApplication
from repro.apps.docs import DocsApplication
from repro.apps.framework import make_browser
from repro.apps.gmail import GmailApplication
from repro.apps.portal import PortalApplication
from repro.apps.sites import SitesApplication
from repro.core.analysis import analyze_trace
from repro.core.chromedriver import ChromeDriverConfig
from repro.core.recorder import WarrRecorder
from repro.core.replayer import TimingMode, WarrReplayer
from repro.core.trace import WarrTrace
from repro.net.tape import Tape, TapeError
from repro.net.transport import PLAYBACK, RECORD, TapeConfig
from repro.session.batch import BatchRunner
from repro.session.journal import JournalError
from repro.session.wire import WireError
from repro.util.errors import TraceFormatError
from repro.weberr.runner import WebErr
from repro.workloads.sessions import (
    dashboard_session,
    docs_edit_session,
    gmail_compose_session,
    portal_authenticate_session,
    sites_edit_session,
)

#: app name -> (application class, scripted session, start URL)
APPS = {
    "sites": (SitesApplication, sites_edit_session,
              "http://sites.example.com/edit/home"),
    "gmail": (GmailApplication, gmail_compose_session,
              "http://mail.example.com/"),
    "portal": (PortalApplication, portal_authenticate_session,
               "http://portal.example.com/"),
    "docs": (DocsApplication, docs_edit_session,
             "http://docs.example.com/sheet/budget"),
    "dashboard": (DashboardApplication, dashboard_session,
                  "http://dashboard.example.com/"),
}


class UnreadableInput(Exception):
    """An input file the command could not open or read."""


def _read_input(loader, path):
    """``loader(path)``, reporting an unreadable ``path`` as an input
    error (``cannot read PATH: reason``) rather than a traceback."""
    try:
        return loader(path)
    except OSError as error:
        raise UnreadableInput("cannot read %s: %s"
                              % (path, error.strerror or error))


def _check_playback_tapes(tape, labels=(None,)):
    """Report a playback tape that cannot be read before any replay
    starts: one ``cannot read PATH`` input error, not a traceback."""
    if tape is None or tape.mode != PLAYBACK:
        return
    for label in labels:
        _read_input(lambda path: open(path, "rb").close(),
                    tape.tape_path(label))


def _positive_count(text):
    """``--workers``, ``soak --traces``: a whole number of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            "need a whole number >= 1, got %r" % text)
    return value


def _timeout_seconds(text):
    """``--trace-timeout``: a finite number of seconds above 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (0 < value < math.inf):
        raise argparse.ArgumentTypeError(
            "need a finite number of seconds > 0, got %r" % text)
    return value


def _throttle_seconds(text):
    """``soak --throttle``: a finite number of seconds, 0 or more."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (0 <= value < math.inf):
        raise argparse.ArgumentTypeError(
            "need a finite number of seconds >= 0, got %r" % text)
    return value


def _app_entry(name):
    try:
        return APPS[name]
    except KeyError:
        raise SystemExit("unknown app %r; choose from %s"
                         % (name, ", ".join(sorted(APPS))))


def cmd_record(args, out):
    app_class, session, start_url = _app_entry(args.app)
    browser, _ = make_browser([app_class], seed=args.seed)
    recorder = WarrRecorder().attach(browser)
    recorder.begin(start_url, label="%s scripted session" % args.app)
    session(browser)
    recorder.detach()
    recorder.trace.save(args.out)
    print("recorded %d commands to %s"
          % (len(recorder.trace), args.out), file=out)
    return 0


def _tape_config_from_args(args):
    """Build the TapeConfig a ``--tape``/``--tape-mode`` pair asks for."""
    if not args.tape:
        if args.tape_mode:
            raise SystemExit("--tape-mode needs --tape PATH")
        return None
    mode = args.tape_mode or PLAYBACK
    stamp = {"app": args.app, "seed": args.seed}
    if mode == RECORD:
        return TapeConfig.record(args.tape, stamp=stamp)
    return TapeConfig.playback(args.tape, stamp=stamp)


def _print_tape_outcome(tape_session, out):
    """The status line(s) summarizing what the attached tape did."""
    tape = tape_session.tape
    if tape_session.config.mode == RECORD:
        stats = tape.stats()
        print("tape: recorded %d exchange(s) (%d unique bodies, "
              "dedup %.3f) to %s"
              % (stats["entries"], stats["unique_bodies"],
                 stats["dedup_ratio"], tape_session.path), file=out)
        return
    if tape.chaos_profile is not None:
        print("tape: recorded under chaos profile %r seed %s"
              % (tape.chaos_profile, tape.chaos_seed), file=out)
    transport = tape_session.transport
    print("tape: playback %d hit(s) / %d miss(es) from %s"
          % (transport.hits, transport.misses, tape_session.path), file=out)


def cmd_replay(args, out):
    app_class, _, _ = _app_entry(args.app)
    trace = _read_input(WarrTrace.load, args.trace)
    tape = _tape_config_from_args(args)
    _check_playback_tapes(tape)
    playback = tape is not None and tape.mode == PLAYBACK
    browser, _ = make_browser([app_class], seed=args.seed,
                              developer_mode=not args.user_browser,
                              client_only=playback)
    config = (ChromeDriverConfig.stock() if args.stock_driver
              else ChromeDriverConfig.warr())
    replayer = WarrReplayer(browser, config=config,
                            relaxation=not args.no_relaxation,
                            timing=_timing_from_args(args))
    tape_session = (tape.attach(browser.network) if tape is not None
                    else None)
    try:
        if args.trace_out:
            with telemetry.tracing(
                    clock=browser.clock,
                    categories=args.trace_categories) as tracer:
                report = replayer.replay(trace)
            trace_dict = telemetry.tracer_to_dict(tracer)
            telemetry.write_trace_dict(args.trace_out, trace_dict)
            print("trace: wrote %s" % args.trace_out, file=out)
            for line in telemetry.trace_summary(trace_dict):
                print(line, file=out)
        else:
            report = replayer.replay(trace)
    finally:
        if tape_session is not None:
            tape_session.finish()
    if tape_session is not None:
        _print_tape_outcome(tape_session, out)
    print(report.summary(), file=out)
    for line in report.perf_summary():
        print("perf: %s" % line, file=out)
    for error in report.page_errors:
        print("page error: %s" % error, file=out)
    for result in report.failures():
        print("failed: %s (%s)" % (result.command.to_line(), result.error),
              file=out)
    return 0 if report.complete and not report.page_errors else 1


def _timing_from_args(args):
    timing = TimingMode.no_wait() if args.no_wait else TimingMode.recorded()
    if args.scale is not None:
        timing = TimingMode.scaled(args.scale)
    return timing


def batch_browser_factory(app, seed=0, client_only=False):
    """Build the per-session browser factory for ``batch`` workers.

    Referenced by dotted name from the worker-pool spec, so each worker
    process reconstructs its own factory — live browsers never cross
    the process boundary. ``client_only`` builds the hermetic playback
    environment: page scripts, no application servers.
    """
    app_class, _, _ = _app_entry(app)

    def factory():
        browser, _ = make_browser([app_class], seed=seed,
                                  developer_mode=True,
                                  client_only=client_only)
        return browser

    return factory


def _chaos_scope_from_args(args):
    """``chaos.active(...)`` for ``--chaos PROFILE``, or a no-op scope."""
    import contextlib

    if not getattr(args, "chaos", None):
        return contextlib.nullcontext()
    from repro import chaos

    return chaos.active(chaos.get_profile(args.chaos),
                        seed=getattr(args, "chaos_seed", 0))


def cmd_batch(args, out):
    """Replay many traces, each on an isolated browser instance."""
    from repro.session.supervisor import GracefulDrain

    _app_entry(args.app)  # validate before any worker inherits the name
    if args.resume and not args.journal:
        raise SystemExit("--resume needs --journal PATH")
    traces = [_read_input(WarrTrace.load, path) for path in args.traces]
    tape = _tape_config_from_args(args)
    _check_playback_tapes(tape, args.traces)
    playback = tape is not None and tape.mode == PLAYBACK

    if args.workers > 1:
        from repro.session.pool import WorkerSpec

        factory = WorkerSpec("repro.cli:batch_browser_factory",
                             factory_args=(args.app,),
                             factory_kwargs={"seed": args.seed,
                                             "client_only": playback})
    else:
        factory = batch_browser_factory(args.app, seed=args.seed,
                                        client_only=playback)
    runner = BatchRunner(factory, timing=_timing_from_args(args),
                         workers=args.workers,
                         trace_timeout=args.trace_timeout, tape=tape,
                         trace_categories=args.trace_categories,
                         journal=args.journal, resume=args.resume)
    with _chaos_scope_from_args(args):
        with GracefulDrain() as drain:
            batch = runner.run(traces, labels=args.traces,
                               trace_dir=args.trace_dir, drain=drain)
    if args.trace_dir:
        print("traces: wrote %d per-session trace(s) + batch.trace.json "
              "to %s" % (batch.trace_count, args.trace_dir), file=out)
    for run in batch.runs:
        resumed = " (resumed from journal)" if run.resumed else ""
        print("[%s] %s%s" % (run.label, run.report.summary(), resumed),
              file=out)
        if args.failures:
            for result in run.report.failures():
                print("[%s] failed: %s (%s)"
                      % (run.label, result.command.to_line(), result.error),
                      file=out)
    print(batch.summary(), file=out)
    for diagnosis in batch.quarantined:
        print("quarantined: %s after %d attempt(s) on workers %s — %s"
              % (diagnosis.get("label"), diagnosis.get("attempts", 0),
                 diagnosis.get("workers"), diagnosis.get("reason")),
              file=out)
        tail = (diagnosis.get("stderr_tail") or "").strip()
        if tail:
            print("quarantined: last stderr: %s"
                  % tail.splitlines()[-1], file=out)
    for name in sorted(batch.perf_counters):
        counts = batch.perf_counters[name]
        print("perf: %s %d hits / %d misses"
              % (name, counts["hits"], counts["misses"]), file=out)
    if batch.drained:
        if args.journal:
            print("drained: run interrupted; resume with "
                  "--journal %s --resume" % args.journal, file=out)
        else:
            print("drained: run interrupted (no journal; a re-run "
                  "starts from scratch)", file=out)
        return 75  # EX_TEMPFAIL: incomplete but cleanly resumable
    return 0 if batch.complete and batch.page_error_count == 0 else 1


def cmd_journal(args, out):
    """Inspect a WJ2 run journal and verify exactly-once accounting."""
    from repro.session import journal as run_journal

    snapshot = _read_input(run_journal.read_journal, args.journal)
    config = snapshot.config or {}
    print("journal: %s" % args.journal, file=out)
    if config:
        print("mode: %s; %d trace(s)"
              % (config.get("mode", "?"), len(config.get("entries", ()))),
              file=out)
    finishes = snapshot.finish_by_index()
    for index in sorted(finishes):
        record = finishes[index]
        worker = ("worker %d" % record.worker_id
                  if record.worker_id is not None else "in-process")
        print("[%s] %s after %d attempt(s) on %s"
              % (record.label, record.status, record.attempts, worker),
              file=out)
    for event in snapshot.events:
        print("event: %s %s" % (event.kind, event.payload or ""), file=out)
    verdict = run_journal.verify_exactly_once(args.journal)
    print("finished %d/%d; duplicates: %s; torn bytes: %d"
          % (verdict["finished"], verdict["traces"],
             verdict["duplicates"] or "none", verdict["torn_bytes"]),
          file=out)
    if verdict["missing"]:
        print("unfinished: %s" % ", ".join(verdict["missing"]), file=out)
    print("exactly-once: %s" % ("yes" if verdict["exactly_once"] else "NO"),
          file=out)
    return 0 if verdict["exactly_once"] else 1


def cmd_soak(args, out):
    """Kill-and-resume soak: prove no trace is lost or double-counted."""
    from repro.chaos.harness import run_soak

    report = run_soak(app=args.app, mode=args.mode, traces=args.traces,
                      seed=args.seed, throttle=args.throttle,
                      scenarios=args.scenario, journal_dir=args.keep_journals,
                      verbose=args.verbose,
                      progress=lambda line: print(line, file=out))
    for line in report.summary_lines():
        print(line, file=out)
    if args.out:
        import json

        with open(args.out, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print("soak report written to %s" % args.out, file=out)
    return 0 if report.passed else 1


def cmd_inspect(args, out):
    trace = _read_input(WarrTrace.load, args.trace)
    print("trace: %s" % args.trace, file=out)
    print("start url: %s" % trace.start_url, file=out)
    if trace.label:
        print("label: %s" % trace.label, file=out)
    for line in analyze_trace(trace).lines():
        print(line, file=out)
    if args.commands:
        print("", file=out)
        for command in trace:
            print(command.to_line(), file=out)
    return 0


def cmd_weberr(args, out):
    trace = _read_input(WarrTrace.load, args.trace)
    weberr = WebErr(batch_browser_factory(args.app, seed=args.seed),
                    max_tests=args.max_tests)
    if args.campaign in ("timing", "both"):
        report = weberr.run_timing_campaign(trace)
        print("[timing] %s" % report.summary(), file=out)
        for outcome in report.bugs:
            print("[timing] BUG %s: %s"
                  % (outcome.description, outcome.verdict.reason), file=out)
    if args.campaign in ("navigation", "both"):
        report = weberr.run_navigation_campaign(trace, label=args.app)
        print("[navigation] %s" % report.summary(), file=out)
        for outcome in report.bugs:
            print("[navigation] BUG %s: %s"
                  % (outcome.description, outcome.verdict.reason), file=out)
    return 0


def cmd_chaos(args, out):
    # Imported lazily: the harness reaches back into this module for the
    # APPS table, so a top-level import would be circular.
    import json

    from repro.chaos.harness import default_workloads, run_chaos_matrix
    from repro.session.policies import RetryPolicy

    workloads = default_workloads()
    if args.app:
        workloads = [w for w in workloads if w[0] in args.app]
    if args.quick:
        workloads = workloads[:1]
    retry = RetryPolicy.none() if args.no_retry else RetryPolicy.default()
    progress = (lambda line: print(line, file=out)) if args.verbose else None
    report = run_chaos_matrix(args.profile, seeds=args.seeds,
                              workloads=workloads, retry=retry,
                              progress=progress)
    for line in report.summary_lines():
        print(line, file=out)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print("survival report written to %s" % args.out, file=out)
    return 0 if report.session_count else 1


def cmd_tape_inspect(args, out):
    """Print tape statistics; optionally export the JSON form."""
    import json

    tape = _read_input(Tape.load, args.tape)
    stats = tape.stats()
    print("tape: %s" % args.tape, file=out)
    if tape.label:
        print("label: %s" % tape.label, file=out)
    if tape.config:
        print("config: %s" % json.dumps(tape.config, sort_keys=True),
              file=out)
    if tape.chaos_profile is not None:
        print("chaos: profile %r seed %s"
              % (tape.chaos_profile, tape.chaos_seed), file=out)
    print("entries: %d (%d unique fingerprints)"
          % (stats["entries"], stats["fingerprints"]), file=out)
    print("bodies: %d blob(s), %d stored bytes, %d logical bytes, "
          "dedup %.3f" % (stats["unique_bodies"], stats["stored_bytes"],
                          stats["logical_bytes"], stats["dedup_ratio"]),
          file=out)
    if args.entries:
        print("", file=out)
        for entry in tape.entries:
            print("#%d %s %s -> %d %s" % (entry.ordinal, entry.method,
                                          entry.url, entry.status,
                                          entry.content_type), file=out)
    if args.json:
        tape.export_json(args.json)
        print("json: wrote %s" % args.json, file=out)
    return 0


def cmd_tape_compact(args, out):
    """Drop orphaned blobs and rewrite the tape."""
    import os

    tape = _read_input(Tape.load, args.tape)
    dropped = tape.compact()
    destination = args.out or args.tape
    tape.save(destination)
    print("compacted %s -> %s: dropped %d orphaned blob(s), %d bytes "
          "on disk" % (args.tape, destination, dropped,
                       os.path.getsize(destination)), file=out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WaRR: record and replay web application interaction")
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("record", help="record a scripted session")
    record.add_argument("--app", required=True, choices=sorted(APPS))
    record.add_argument("--out", required=True)
    record.add_argument("--seed", type=int, default=0)
    record.set_defaults(func=cmd_record)

    replay = sub.add_parser("replay", help="replay a trace file")
    replay.add_argument("trace")
    replay.add_argument("--app", required=True, choices=sorted(APPS))
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument("--no-wait", action="store_true",
                        help="replay with no inter-command delays")
    replay.add_argument("--scale", type=float, default=None,
                        help="scale recorded delays by this factor")
    replay.add_argument("--no-relaxation", action="store_true",
                        help="disable XPath relaxation")
    replay.add_argument("--stock-driver", action="store_true",
                        help="use pre-WaRR ChromeDriver (no fixes)")
    replay.add_argument("--user-browser", action="store_true",
                        help="replay in a non-developer browser")
    replay.add_argument("--trace-out", default=None, metavar="PATH",
                        help="record a Chrome trace-event timeline of "
                             "the replay to PATH")
    replay.add_argument("--trace-categories", default=None, metavar="SPEC",
                        help="trace category filter: 'all' (default), "
                             "'production', or a comma-separated list; "
                             "a term may carry a deterministic sampling "
                             "rate (e.g. 'session,dispatch:0.1')")
    replay.add_argument("--tape", default=None, metavar="PATH",
                        help="network tape file to record to / play "
                             "back from")
    replay.add_argument("--tape-mode", default=None,
                        choices=["record", "playback"],
                        help="record the network to --tape, or serve "
                             "every response from it (default: playback "
                             "when --tape is given)")
    replay.set_defaults(func=cmd_replay)

    batch = sub.add_parser("batch",
                           help="replay many traces on isolated browsers")
    batch.add_argument("traces", nargs="+",
                       help="trace files, one isolated session each")
    batch.add_argument("--app", required=True, choices=sorted(APPS))
    batch.add_argument("--seed", type=int, default=0)
    batch.add_argument("--no-wait", action="store_true",
                       help="replay with no inter-command delays")
    batch.add_argument("--scale", type=float, default=None,
                       help="scale recorded delays by this factor")
    batch.add_argument("--failures", action="store_true",
                       help="also list every failed command")
    batch.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="write per-session Chrome traces plus a "
                            "merged batch.trace.json into DIR")
    batch.add_argument("--trace-categories", default=None, metavar="SPEC",
                       help="trace category filter for --trace-dir: 'all' "
                            "(default), 'production', or a comma-"
                            "separated list, with optional 'name:rate' "
                            "sampling terms")
    batch.add_argument("--workers", type=_positive_count, default=1,
                       metavar="N",
                       help="replay across N worker processes "
                            "(default 1 = in-process)")
    batch.add_argument("--trace-timeout", type=_timeout_seconds,
                       default=None, metavar="SECONDS",
                       help="with --workers > 1: kill and re-queue (once) "
                            "any trace replaying longer than this")
    batch.add_argument("--tape", default=None, metavar="DIR",
                       help="tape directory (one <label>.tape per trace) "
                            "to record to / play back from")
    batch.add_argument("--tape-mode", default=None,
                       choices=["record", "playback"],
                       help="record every session's network, or replay "
                            "hermetically from the tapes (default: "
                            "playback when --tape is given)")
    batch.add_argument("--journal", default=None, metavar="PATH",
                       help="append every trace's start and outcome to a "
                            "crash-safe WJ2 run journal at PATH")
    batch.add_argument("--resume", action="store_true",
                       help="with --journal: replay completed traces from "
                            "the journal and run only the remainder")
    batch.add_argument("--chaos", default=None, metavar="PROFILE",
                       help="run the batch under a fault profile (e.g. "
                            "'farm' kills worker processes between "
                            "traces)")
    batch.add_argument("--chaos-seed", type=int, default=0, metavar="N",
                       help="seed for --chaos (fault schedule is "
                            "deterministic per (profile, seed))")
    batch.set_defaults(func=cmd_batch)

    journal = sub.add_parser(
        "journal",
        help="inspect a batch run journal and verify exactly-once "
             "accounting")
    journal.add_argument("journal", help="WJ2 journal file (see "
                                         "batch --journal)")
    journal.set_defaults(func=cmd_journal)

    soak = sub.add_parser(
        "soak",
        help="resilience soak: kill workers and the batch itself "
             "mid-run, resume from the journal, verify exactly-once")
    soak.add_argument("--app", default="sites", choices=sorted(APPS))
    soak.add_argument("--mode", nargs="*", default=None,
                      choices=["serial", "pooled"],
                      help="batch backend(s) to soak (default: both)")
    soak.add_argument("--scenario", nargs="*", default=None,
                      choices=["drain", "kill-worker", "crash-parent"],
                      help="failure scenario(s) to run (default: all)")
    soak.add_argument("--traces", type=_positive_count, default=6,
                      metavar="N",
                      help="traces per soak run")
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument("--throttle", type=_throttle_seconds, default=0.15,
                      metavar="SECONDS",
                      help="per-trace slowdown so signals land mid-run")
    soak.add_argument("--keep-journals", default=None, metavar="DIR",
                      help="keep every scenario's journal under DIR")
    soak.add_argument("--out", default=None, metavar="PATH",
                      help="write the JSON soak report to PATH")
    soak.add_argument("--verbose", action="store_true",
                      help="echo each subprocess's output")
    soak.set_defaults(func=cmd_soak)

    inspect = sub.add_parser("inspect", help="print trace statistics")
    inspect.add_argument("trace")
    inspect.add_argument("--commands", action="store_true",
                         help="also list every command")
    inspect.set_defaults(func=cmd_inspect)

    weberr = sub.add_parser("weberr",
                            help="inject human errors and test the app")
    weberr.add_argument("trace")
    weberr.add_argument("--app", required=True, choices=sorted(APPS))
    weberr.add_argument("--campaign", default="both",
                        choices=["timing", "navigation", "both"])
    weberr.add_argument("--max-tests", type=int, default=50)
    weberr.add_argument("--seed", type=int, default=0)
    weberr.set_defaults(func=cmd_weberr)

    chaos_cmd = sub.add_parser(
        "chaos",
        help="replay bundled workloads under fault injection and report "
             "survival")
    chaos_cmd.add_argument("--profile", nargs="+", default=["default"],
                           help="fault profile name(s) "
                                "(see repro.chaos.PROFILES)")
    chaos_cmd.add_argument("--seeds", type=int, default=3, metavar="N",
                           help="run seeds 0..N-1 per (app, profile) cell")
    chaos_cmd.add_argument("--app", nargs="*", default=None,
                           choices=sorted(APPS),
                           help="restrict the matrix to these app(s)")
    chaos_cmd.add_argument("--quick", action="store_true",
                           help="smoke mode: one workload only")
    chaos_cmd.add_argument("--no-retry", action="store_true",
                           help="replay without self-healing (measure how "
                                "the un-hardened replayer dies)")
    chaos_cmd.add_argument("--out", default=None, metavar="PATH",
                           help="write the JSON survival report to PATH")
    chaos_cmd.add_argument("--verbose", action="store_true",
                           help="print one line per matrix cell")
    chaos_cmd.set_defaults(func=cmd_chaos)

    tape = sub.add_parser(
        "tape", help="inspect and compact network tapes")
    tape_sub = tape.add_subparsers(dest="tape_command", required=True)

    tape_inspect = tape_sub.add_parser(
        "inspect", help="print tape statistics")
    tape_inspect.add_argument("tape")
    tape_inspect.add_argument("--entries", action="store_true",
                              help="also list every recorded exchange")
    tape_inspect.add_argument("--json", default=None, metavar="PATH",
                              help="export the tape as JSON to PATH")
    tape_inspect.set_defaults(func=cmd_tape_inspect)

    tape_compact = tape_sub.add_parser(
        "compact", help="drop orphaned blobs and rewrite a tape")
    tape_compact.add_argument("tape")
    tape_compact.add_argument("--out", default=None, metavar="PATH",
                              help="write the compacted tape here "
                                   "(default: in place)")
    tape_compact.set_defaults(func=cmd_tape_compact)
    return parser


#: What the file decoders raise on malformed input, and what an
#: unreadable input path raises: reported as one error line and exit
#: status 2, like a bad argument, not a traceback.
INPUT_ERRORS = (JournalError, TraceFormatError, TapeError, WireError,
                UnreadableInput)


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # The reader went away (``repro ... | head``): stop quietly with
        # 128 + SIGPIPE, as a shell reports a writer the pipe killed.
        # The stream now writes to devnull, so the exit flush cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, out.fileno())
        except (OSError, ValueError):
            pass
        os.close(devnull)
        return 141
    except INPUT_ERRORS as error:
        print("%s: error: %s" % (parser.prog, error), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

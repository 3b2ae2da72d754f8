"""The session engine: one execution pipeline for every driving tool.

WaRR replay, WebErr's error-injection campaigns, AUsER's developer-side
reproductions, and the fidelity baselines all drive a browser the same
way: schedule a command on the replay timeline, locate its target
element, act on it, and observe what happened. :class:`SessionEngine`
owns that per-command pipeline once; each stage is configured by a
policy object (:mod:`repro.session.policies`) and every step is
narrated on a structured event stream (:mod:`repro.session.events`)
that observers subscribe to.

Two entry points:

- :meth:`SessionEngine.run` replays a whole trace and returns the
  :class:`~repro.session.report.ReplayReport` its :class:`SessionRun`
  wrote;
- :meth:`SessionEngine.start` returns a :class:`SessionRun` for callers
  that need to interleave their own observation between commands
  (WebErr's grammar inference snapshots the page after every step).
"""

from contextlib import nullcontext
from time import perf_counter

from repro import chaos, perf, telemetry
from repro.session.checkpoint import ReplayCheckpoint
from repro.session.events import EventStream, SessionEvent
from repro.telemetry.tracks import SESSION_TRACK
from repro.session.policies import (
    FailurePolicy,
    LocatorPolicy,
    RetryPolicy,
    TimingPolicy,
)
from repro.session.report import CommandResult, ReplayReport
from repro.util.errors import (
    DriverError,
    ElementNotFoundError,
    NavigationError,
    NetworkError,
    RendererCrashError,
    ReplayError,
    ReplayHaltedError,
    XPathSyntaxError,
)


class SessionEngine:
    """Runs traces through the schedule → locate → act → observe pipeline.

    The engine holds only configuration (policies, driver config,
    standing observers); per-session state lives on the
    :class:`SessionRun`, so one engine can run many sessions — serially
    or, via the batch runner, across isolated browser instances.
    """

    def __init__(self, browser, driver_config=None, timing=None,
                 locator=None, failure=None, retry=None, observers=None):
        self.browser = browser
        self.driver_config = driver_config
        self.timing = timing if timing is not None else TimingPolicy.recorded()
        self.locator = locator if locator is not None else LocatorPolicy()
        self.failure = failure if failure is not None else FailurePolicy()
        #: Self-healing: RetryPolicy.none() preserves fail-fast behaviour.
        self.retry = retry if retry is not None else RetryPolicy.none()
        #: Standing observers, subscribed to every run's event stream.
        self.observers = list(observers or [])

    # -- driver wiring ------------------------------------------------------

    def new_driver(self):
        """A fresh WebDriver session configured by this engine's policies."""
        from repro.core.chromedriver import ChromeDriverConfig
        from repro.core.webdriver import WebDriver

        config = (self.driver_config if self.driver_config is not None
                  else ChromeDriverConfig.warr())
        return WebDriver(self.browser, config=config, locator=self.locator)

    def current_document(self):
        """The active page's document, or None before any page loaded.

        The engine is the one sanctioned reader of page state for its
        consumers: AUsER snapshots through this instead of reaching into
        tab/renderer internals.
        """
        tab = self.browser.active_tab
        if tab is None or tab.renderer is None:
            return None
        return tab.document

    # -- whole-trace execution ----------------------------------------------

    def run(self, trace, observers=(), on_step=None):
        """Replay ``trace`` from its start URL; returns a ReplayReport.

        ``on_step``, if given, is called with no arguments after each
        step: a progress count that builds no event (the pool worker's).
        """
        run = self.start(trace, observers=observers)
        if not run.halted:
            for command in trace:
                run.step(command)
                if on_step is not None:
                    on_step()
                if run.stopped:
                    break
        return run.finish()

    def start(self, trace, observers=()):
        """Open a stepping session (navigates to the trace's start URL)."""
        run = SessionRun(self, trace, observers=observers)
        run.begin()
        return run

    # -- per-command execution ----------------------------------------------

    def execute(self, driver, command, stream):
        """Run one command through locate → act; returns a CommandResult.

        Stateless with respect to the run. Events go to ``stream``,
        each built only when its kind has a handler there. Raises
        :class:`ReplayHaltedError` when the driver has lost its active
        client and :class:`ReplayError` for unreplayable commands.
        """
        if command.action == "switchframe":
            return self._execute_switch(driver, command, stream)
        if command.action not in ("click", "doubleclick", "type", "drag"):
            raise ReplayError("cannot replay command %r" % (command,))

        # -- locate stage ---------------------------------------------------
        # A command built in code (not parsed from a .warr file, whose
        # parser rejects bad locators) can carry an XPath that does not
        # compile: that fails the command, not the session.
        try:
            location = self.locator.resolve(driver, command.xpath)
        except ReplayHaltedError:
            raise
        except ElementNotFoundError as error:
            return self._locate_fallback(driver, command, error, stream)
        except (DriverError, XPathSyntaxError) as error:
            return self._fail(command, error, stream)
        handlers = stream.handlers
        relaxed = location.relaxed
        kind = SessionEvent.RELAXED if relaxed else SessionEvent.LOCATED
        if handlers[kind]:
            stream.emit(SessionEvent(kind, command=command,
                                     detail=location.detail,
                                     data={"element": location.element}))

        # -- act stage ------------------------------------------------------
        # NavigationError/NetworkError join the catch set because an
        # action can trigger a navigation whose fetch fails — under
        # chaos that is a transient the retry loop must get to see as a
        # CommandResult, not an exception unwinding the session.
        try:
            self._act(location, command)
        except ReplayHaltedError:
            raise
        except (ElementNotFoundError, DriverError,
                NavigationError, NetworkError) as error:
            return self._fail(command, error, stream)
        if handlers[SessionEvent.ACTED]:
            stream.emit(SessionEvent(SessionEvent.ACTED, command=command,
                                     detail=location.detail))
        if relaxed:
            return CommandResult(command, CommandResult.RELAXED,
                                 detail=location.detail)
        return CommandResult(command, CommandResult.OK)

    def _locate_fallback(self, driver, command, error, stream):
        """Backup element identification: the recorded click position."""
        position = self.locator.fallback_position(command)
        if position is None:
            return self._fail(command, error, stream)
        try:
            driver.click_at(*position)
        except ReplayHaltedError:
            raise
        except Exception as fallback_error:
            return self._fail(command, fallback_error, stream)
        detail = "clicked at recorded (%d,%d)" % position
        stream.emit(SessionEvent(SessionEvent.ACTED, command=command,
                                 detail=detail))
        return CommandResult(command, CommandResult.COORDINATE, detail=detail)

    @staticmethod
    def _act(location, command):
        client, element = location.client, location.element
        if command.action == "doubleclick":
            client.double_click(element)
        elif command.action == "click":
            client.click(element)
        elif command.action == "type":
            client.send_key(element, command.key, command.code)
        else:
            client.drag(element, command.dx, command.dy)

    def _execute_switch(self, driver, command, stream):
        try:
            if command.is_default:
                driver.switch_to_default()
            else:
                driver.switch_to_frame(command.xpath)
        except ReplayHaltedError:
            raise
        except (DriverError, ElementNotFoundError, XPathSyntaxError) as error:
            return self._fail(command, error, stream)
        stream.emit(SessionEvent(SessionEvent.ACTED, command=command))
        return CommandResult(command, CommandResult.OK)

    @staticmethod
    def _fail(command, error, stream):
        stream.emit(SessionEvent(SessionEvent.FAILED, command=command,
                                 error=error))
        return CommandResult(command, CommandResult.FAILED, error=error)


class SessionRun:
    """One session in flight: driver, timeline anchor, event stream.

    Use :meth:`step` to execute commands one at a time (the engine's
    ``run`` does exactly this in a loop), then :meth:`finish` to settle
    the page and close out the report.

    The run writes its own :class:`ReplayReport` and updates it before
    emitting the event that narrates each change, so an observer always
    sees the report up to date: a halt is on it by ``halted``, and it
    is complete by ``session-finished``.
    """

    def __init__(self, engine, trace, observers=()):
        self.engine = engine
        self.trace = trace
        self.report = ReplayReport(trace)
        # Every run carries a TracingObserver; it handles no kind while
        # tracing is off, so the stream never calls it then (the stream
        # is retuned to the installed tracer at begin, at every step and
        # at finish).
        from repro.telemetry.observer import TracingObserver

        self.stream = EventStream(
            list(engine.observers) + list(observers) + [TracingObserver()])
        self.driver = None
        self.stopped = False
        self._navigation_failed = False
        self._anchor = 0.0
        #: Whether the tracer the stream is keyed on records the
        #: schedule span. A tracer's category set is immutable, so this
        #: is resolved in :meth:`_retune`, once per installed tracer.
        self._trace_schedule = False
        self._error_base = 0
        self._perf_base = None
        self._net_base = None
        self._finished = False
        #: Crash-recovery resume point (last committed URL + commands).
        self.checkpoint = ReplayCheckpoint()
        self._backoff_seq = engine.retry.new_sequence()

    @property
    def halted(self):
        return self.report.halted

    @property
    def browser(self):
        return self.engine.browser

    def begin(self):
        """Create the driver and navigate to the trace's start URL."""
        browser = self.browser
        self._error_base = len(browser.page_errors)
        self._perf_base = perf.snapshot()
        self._net_base = self._net_snapshot()
        self.driver = self.engine.new_driver()
        # Recording starts its timeline at begin(), i.e. just before the
        # initial navigation — anchor the replay timeline the same way.
        self._anchor = browser.clock.now()
        self._retune(telemetry.current())
        self.stream.emit(SessionEvent(
            SessionEvent.SESSION_STARTED,
            data={"trace": self.trace, "browser": browser,
                  "driver": self.driver}))
        # The initial navigation heals like any command: a transient
        # failure (e.g. an injected network fault) retries with backoff
        # instead of stranding the whole session before it starts.
        retry = self.engine.retry
        attempt = 1
        while True:
            try:
                self.driver.get(self.trace.start_url)
                break
            except Exception as error:
                if retry.should_retry(error, attempt):
                    self.stream.emit(SessionEvent(
                        SessionEvent.RETRYING, detail=str(error),
                        error=error, data={"attempt": attempt}))
                    self.driver.wait(self._backoff_seq.delay_ms(attempt))
                    attempt += 1
                    continue
                self._navigation_failed = True
                self._halt("navigation to %r failed: %s"
                           % (self.trace.start_url, error), error)
                return self
        self.checkpoint.committed(self.trace.start_url)
        self.stream.emit(SessionEvent(
            SessionEvent.NAVIGATED, detail=self.trace.start_url,
            data={"url": self.trace.start_url, "driver": self.driver}))
        return self

    def step(self, command):
        """Schedule and execute one command; returns its CommandResult.

        A driver halt (no active client left) is recorded on the report
        and marks the run halted; it is not re-raised, so stepping
        callers can keep iterating and simply observe ``self.halted``.
        """
        engine = self.engine
        stream = self.stream
        handlers = stream.handlers
        clock = engine.browser.clock
        target = engine.timing.target(self._anchor, command)
        wait_ms = max(0.0, target - clock.now())
        tracer = telemetry.current()
        if tracer is not handlers.tracer:
            self._retune(tracer)
        if not self._trace_schedule:
            self.driver.wait(wait_ms)
        else:
            with tracer.span("session.schedule", track=SESSION_TRACK,
                             cat="session.phase",
                             args={"wait_ms": wait_ms, "due_vt_ms": target}):
                self.driver.wait(wait_ms)
        self._anchor = clock.now()
        # The finish event carries the command's start, so a tracer
        # needs no start event. The clock is read before command-started
        # goes out: a span that event opens must start inside it.
        finished = handlers[SessionEvent.COMMAND_FINISHED]
        if finished:
            started_at = perf_counter()
        if handlers[SessionEvent.COMMAND_STARTED]:
            stream.emit(SessionEvent(SessionEvent.COMMAND_STARTED,
                                     command=command, data={"due": target}))
        healing = engine.retry.enabled
        halt = None
        try:
            if healing:
                result = self._execute_healing(command, stream)
            else:
                result = engine.execute(self.driver, command, stream)
        except ReplayHaltedError as error:
            result = CommandResult(command, CommandResult.FAILED, error=error)
            halt = error
        self.report.results.append(result)
        if finished:
            stream.emit(SessionEvent(
                SessionEvent.COMMAND_FINISHED, command=command, result=result,
                data={"due": target, "started_at": started_at}))
        if halt is not None:
            self._halt(str(halt), halt)
            return result
        if result.succeeded:
            # Only crash recovery reads the checkpoint, and only the
            # healing loop recovers crashes.
            if healing:
                url = self.driver.tab.url if self.driver.has_session else None
                self.checkpoint.advance(command, url)
            return result
        decision = engine.failure.decide(result)
        if decision == FailurePolicy.STOP:
            self.stopped = True
        elif decision == FailurePolicy.HALT:
            self._halt("command failed: %s" % command.to_line(), result.error)
        return result

    def _halt(self, reason, error):
        """Halt the run: put it on the report, then narrate it."""
        report = self.report
        report.halted = True
        report.halt_reason = reason
        report.halt_error = error
        self.stopped = True
        self.stream.emit(SessionEvent(SessionEvent.HALTED, detail=reason,
                                      error=error))

    def _retune(self, tracer):
        """Key the event stream (and the schedule span) on ``tracer``."""
        self.stream.retune(tracer)
        self._trace_schedule = (tracer is not None
                                and tracer.wants("session.phase"))

    # -- self-healing -------------------------------------------------------

    def _execute_healing(self, command, stream):
        """Execute with the engine's RetryPolicy: retry transients,
        recover renderer crashes from the replay checkpoint.

        Backoff "sleeps" run through ``driver.wait`` so they advance
        only the virtual clock (timers and AJAX fire during them, as
        they would while a real client backs off).
        """
        retry = self.engine.retry
        attempt = 1
        while True:
            result = self.engine.execute(self.driver, command, stream)
            result.retries = attempt - 1
            error = result.error
            if result.succeeded or error is None:
                return result
            if not retry.should_retry(error, attempt):
                return result
            if isinstance(error, RendererCrashError) and not retry.recover_crashes:
                return result
            stream.emit(SessionEvent(SessionEvent.RETRYING, command=command,
                                     detail=str(error), error=error,
                                     data={"attempt": attempt}))
            if isinstance(error, RendererCrashError):
                self._recover_from_crash(error, stream)
            self.driver.wait(self._backoff_seq.delay_ms(attempt))
            attempt += 1

    def _recover_from_crash(self, error, stream):
        """Tab reload + checkpoint resume after a renderer crash.

        Fault injection is suppressed for the whole recovery pass: the
        reload and the checkpoint re-execution are repair work, not part
        of the replay under test, so they must neither fault nor consume
        the chaos schedule. Re-executed commands report to no observers
        (the session already recorded their first, successful run).
        """
        checkpoint = self.checkpoint
        stream.emit(SessionEvent(
            SessionEvent.RECOVERING, detail=checkpoint.url or "",
            error=error,
            data={"url": checkpoint.url, "depth": checkpoint.depth}))
        injector = chaos.current()
        guard = injector.suppressed() if injector is not None else nullcontext()
        silent = EventStream([])
        with guard:
            try:
                self.driver.get(checkpoint.url)
            except Exception as reload_error:
                raise ReplayHaltedError(
                    "recovery reload of %r failed: %s"
                    % (checkpoint.url, reload_error))
            for past in checkpoint.commands:
                try:
                    self.engine.execute(self.driver, past, silent)
                except ReplayHaltedError:
                    raise
                except ReplayError:
                    # Best effort: the retried command's own outcome
                    # decides whether the session proceeds.
                    pass
        self.report.recoveries += 1
        stream.emit(SessionEvent(
            SessionEvent.RECOVERED,
            data={"url": checkpoint.url, "depth": checkpoint.depth}))

    def _net_snapshot(self):
        """The browser network's cumulative fidelity counters now.

        Deltas against this baseline (taken at :meth:`begin`) attribute
        wire trouble to *this* session even when many sessions share a
        process; browsers without a network report zeros.
        """
        network = getattr(self.browser, "network", None)
        return (getattr(network, "failed_fetch_count", 0),
                getattr(network, "timeout_count", 0),
                getattr(network, "tape_miss_count", 0))

    def _net_delta(self):
        base = self._net_base or (0, 0, 0)
        now = self._net_snapshot()
        return {"failed_fetches": now[0] - base[0],
                "timeouts": now[1] - base[1],
                "tape_misses": now[2] - base[2]}

    def finish(self):
        """Settle the page, collect errors and counters, close the run."""
        report = self.report
        if self._finished:
            return report
        self._finished = True
        self._retune(telemetry.current())
        stream = self.stream
        browser = self.browser
        if not self._navigation_failed:
            # Let in-flight work (XHRs fired by the last action, timers)
            # complete, as a user letting the page settle would.
            browser.event_loop.run_until_idle()
            errors = browser.page_errors[self._error_base:]
            report.page_errors.extend(errors)
            if stream.handlers[SessionEvent.PAGE_ERROR]:
                for error in errors:
                    stream.emit(SessionEvent(SessionEvent.PAGE_ERROR,
                                             data={"error": error}))
            if self.driver.has_session:
                report.final_url = self.driver.tab.url
        report.perf_counters = perf.delta(self._perf_base)
        report.net_fidelity = self._net_delta()
        stream.emit(SessionEvent(SessionEvent.PERF_DELTA,
                                 data={"counters": report.perf_counters}))
        stream.emit(SessionEvent(
            SessionEvent.SESSION_FINISHED,
            data={"browser": browser, "driver": self.driver,
                  "final_url": report.final_url, "report": report}))
        return report

    def __repr__(self):
        return "SessionRun(%d commands, halted=%r)" % (
            len(self.trace), self.halted)

"""The session engine: one execution pipeline for every driving tool.

WaRR replay, WebErr's error-injection campaigns, AUsER's developer-side
reproductions, and the fidelity baselines all drive a browser the same
way: schedule a command on the replay timeline, locate its target
element, act on it, and observe what happened. :class:`SessionEngine`
owns that per-command pipeline once; each stage is configured by a
policy object (:mod:`repro.session.policies`). The run writes its own
:class:`~repro.session.report.ReplayReport`, and while a tracer is
installed it narrates every step to a
:class:`~repro.telemetry.observer.TracingNarrator`. Tools that judge a
whole session read the report :meth:`SessionEngine.run` returns and
the page the engine is left on (:meth:`SessionEngine.current_document`).

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
from repro.telemetry.observer import TracingNarrator
from repro.telemetry.tracks import SESSION_TRACK
from repro.session.policies import (
    FailurePolicy,
    Location,
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

    The engine holds only configuration (policies, driver config);
    per-session state lives on the :class:`SessionRun`, so one engine
    can run many sessions — serially or, via the batch runner, across
    isolated browser instances.
    """

    def __init__(self, browser, driver_config=None, timing=None,
                 locator=None, failure=None, retry=None):
        self.browser = browser
        self.driver_config = driver_config
        self.timing = timing if timing is not None else TimingPolicy.recorded()
        self.locator = locator if locator is not None else LocatorPolicy()
        self.failure = failure if failure is not None else FailurePolicy()
        #: Self-healing: RetryPolicy.none() preserves fail-fast behaviour.
        self.retry = retry if retry is not None else RetryPolicy.none()

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

    def run(self, trace, on_step=None):
        """Replay ``trace`` from its start URL; returns a ReplayReport.

        ``on_step``, if given, is called with no arguments after each
        step (the pool worker's progress count).
        """
        run = self.start(trace)
        if not run.halted:
            for command in trace:
                run.step(command)
                if on_step is not None:
                    on_step()
                if run.stopped:
                    break
        return run.finish()

    def start(self, trace):
        """Open a stepping session (navigates to the trace's start URL)."""
        run = SessionRun(self, trace)
        run.begin()
        return run

    # -- per-command execution ----------------------------------------------

    def execute(self, driver, command, phases=None):
        """Run one command through locate → act; returns a CommandResult.

        Stateless with respect to the run. ``phases`` is the run's
        :class:`~repro.telemetry.observer.TracingNarrator` while the
        tracer records the locate/act phase spans, else None. A failed
        command comes back as a FAILED result, which the run narrates.
        Raises :class:`ReplayHaltedError` when the driver has lost its
        active client and :class:`ReplayError` for unreplayable
        commands.
        """
        if command.action == "switchframe":
            return self._execute_switch(driver, command, phases)
        act = command.act
        if act is None:
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
            return self._locate_fallback(driver, command, error, phases)
        except (DriverError, XPathSyntaxError) as error:
            return _failed(command, error)
        if phases is not None:
            phases.located(location.detail)

        # -- act stage ------------------------------------------------------
        # NavigationError/NetworkError join the catch set because an
        # action can trigger a navigation whose fetch fails — under
        # chaos that is a transient the retry loop must get to see as a
        # CommandResult, not an exception unwinding the session.
        try:
            act(location.client, location.element)
        except ReplayHaltedError:
            raise
        except (ElementNotFoundError, DriverError,
                NavigationError, NetworkError) as error:
            return _failed(command, error)
        if phases is not None:
            phases.acted(location.detail)
        if location.strategy == Location.RELAXED:
            return CommandResult(command, CommandResult.RELAXED,
                                 detail=location.detail)
        return CommandResult(command, CommandResult.OK)

    def _locate_fallback(self, driver, command, error, phases):
        """Backup element identification: the recorded click position."""
        position = self.locator.fallback_position(command)
        if position is None:
            return _failed(command, error)
        try:
            driver.click_at(*position)
        except ReplayHaltedError:
            raise
        except Exception as fallback_error:
            return _failed(command, fallback_error)
        detail = "clicked at recorded (%d,%d)" % position
        if phases is not None:
            phases.acted(detail)
        return CommandResult(command, CommandResult.COORDINATE, detail=detail)

    def _execute_switch(self, driver, command, phases):
        try:
            if command.is_default:
                driver.switch_to_default()
            else:
                driver.switch_to_frame(command.xpath)
        except ReplayHaltedError:
            raise
        except (DriverError, ElementNotFoundError, XPathSyntaxError) as error:
            return _failed(command, error)
        if phases is not None:
            phases.acted()
        return CommandResult(command, CommandResult.OK)


def _failed(command, error):
    return CommandResult(command, CommandResult.FAILED, error=error)


class SessionRun:
    """One session in flight: driver, timeline anchor, report.

    Use :meth:`step` to execute commands one at a time (the engine's
    ``run`` does exactly this in a loop), then :meth:`finish` to settle
    the page and close out the report.

    The run writes its own :class:`ReplayReport`: a halt is on it as
    soon as the run halts, and it is complete once :meth:`finish`
    returns. While a tracer is installed, the run narrates each step
    to a :class:`~repro.telemetry.observer.TracingNarrator` bound to
    it; the narrator is rebuilt when a different tracer is installed
    (checked at begin, at every step and at finish) and is None while
    tracing is off.
    """

    def __init__(self, engine, trace):
        self.engine = engine
        self.trace = trace
        self.report = ReplayReport(trace)
        self.driver = None
        self.stopped = False
        self._navigation_failed = False
        self._anchor = 0.0
        #: The installed tracer the narrator below was built for.
        self._tracer = None
        self._narrator = None
        #: The narrator while its tracer records ``session.phase``
        #: (the locate/act phases and the schedule span), else None.
        self._phases = None
        self._error_base = 0
        self._perf_base = None
        self._net_base = None
        self._finished = False
        #: Crash-recovery resume point (last committed URL + commands).
        self.checkpoint = ReplayCheckpoint()
        self._backoff_seq = engine.retry.new_sequence()
        # Facts fixed for the whole session, resolved once instead of
        # on every step: the timing policy's due-time rule, the
        # browser's clock, its event loop and that loop's task heap
        # (the step peeks at the earliest task), and whether commands
        # heal. :meth:`begin` adds the driver's ChromeDriver master and,
        # when steps may act from the locate memo, its ``recall``.
        self._fixed_delay, self._delay_scale = engine.timing.due_rule()
        browser = engine.browser
        self._clock = browser.clock
        loop = browser.event_loop
        self._run_for = loop.run_for
        self._queue = loop._queue
        self._healing = engine.retry.enabled
        self._master = None
        self._recall = None

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
        driver = self.driver = self.engine.new_driver()
        self._master = driver.master
        # Without an implicit wait, the locator policy answers a command
        # whose resolution is memoized from the memo alone, and so can
        # a step that does not heal (:meth:`step`).
        if self.engine.locator.implicit_wait_ms <= 0 and not self._healing:
            self._recall = driver.relaxation.recall
        # Recording starts its timeline at begin(), i.e. just before the
        # initial navigation — anchor the replay timeline the same way.
        self._anchor = browser.clock.now()
        self._retune(telemetry.current())
        if self._narrator is not None:
            self._narrator.session_started(self.trace)
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
                    self.driver.wait(self._backoff_seq.delay_ms(attempt))
                    attempt += 1
                    continue
                self._navigation_failed = True
                self._halt("navigation to %r failed: %s"
                           % (self.trace.start_url, error), error)
                return self
        self.checkpoint.committed(self.trace.start_url)
        if self._narrator is not None:
            self._narrator.navigated(self.trace.start_url)
        return self

    def step(self, command):
        """Schedule and execute one command; returns its CommandResult.

        A driver halt (no active client left) is recorded on the report
        and marks the run halted; it is not re-raised, so stepping
        callers can keep iterating and simply observe ``self.halted``.

        The step reads the virtual clock once. When no event-loop task
        falls due by the command's due time, the clock moves straight
        to it and the event loop is not run. A command whose locator
        resolution is memoized (see
        :meth:`~repro.core.relaxation.RelaxationEngine.recall`) goes
        from the memo straight to its ``act``; every other command,
        every healing step and every step under phase tracing takes the
        whole locate chain (:meth:`SessionEngine.execute`).
        """
        clock = self._clock
        delay = self._fixed_delay
        if delay is None:
            delay = command.elapsed_ms * self._delay_scale
        target = self._anchor + delay
        now = clock.now()
        wait_ms = target - now if target > now else 0.0
        tracer = telemetry._tracer
        if tracer is not self._tracer:
            self._retune(tracer)
        narrator = self._narrator
        phases = self._phases
        if phases is not None:
            with tracer.span("session.schedule", track=SESSION_TRACK,
                             cat="session.phase",
                             args={"wait_ms": wait_ms, "due_vt_ms": target}):
                self._run_for(wait_ms)
            now = clock.now()
        else:
            # The deadline as EventLoop.run_for computes it.
            deadline = now + wait_ms
            queue = self._queue
            if queue and queue[0][0] <= deadline:
                self._run_for(wait_ms)
                now = clock.now()
            elif wait_ms:
                clock.advance_to(deadline)
                now = deadline
        self._anchor = now
        # The command's record carries its start, read before the
        # locate span opens: a span inside the command must start
        # inside it.
        if narrator is not None:
            started_at = perf_counter()
            if phases is not None:
                phases.locating()
        healing = self._healing
        halt = None
        try:
            found = None
            act = command.act
            recall = self._recall
            if recall is not None and act is not None and phases is None:
                client = self._master._active
                if client is not None:
                    root = client.root_element
                    found = recall(command.xpath, root if root is not None
                                   else client.engine.document)
            if found is not None:
                element, detail = found
                try:
                    act(client, element, now)
                except (ElementNotFoundError, DriverError,
                        NavigationError, NetworkError) as error:
                    result = _failed(command, error)
                else:
                    result = (CommandResult(command, CommandResult.OK)
                              if detail == "original" else
                              CommandResult(command, CommandResult.RELAXED,
                                            detail=detail))
            elif healing:
                result = self._execute_healing(command)
            else:
                result = self.engine.execute(self.driver, command, phases)
            if narrator is not None and not healing \
                    and result.status == CommandResult.FAILED:
                narrator.failed(result.error)
        except ReplayHaltedError as error:
            result = CommandResult(command, CommandResult.FAILED, error=error)
            halt = error
        self.report.results.append(result)
        if narrator is not None:
            narrator.command_finished(command, target, result, started_at)
        if halt is not None:
            self._halt(str(halt), halt)
            return result
        if result.status != CommandResult.FAILED:
            # Only crash recovery reads the checkpoint, and only the
            # healing loop recovers crashes.
            if healing:
                url = self.driver.tab.url if self.driver.has_session else None
                self.checkpoint.advance(command, url)
            return result
        decision = self.engine.failure.decide(result)
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
        if self._narrator is not None:
            self._narrator.halted(reason)

    def _retune(self, tracer):
        """Bind the narration to ``tracer`` (the installed one)."""
        if tracer is self._tracer:
            return
        if self._narrator is not None:
            # Records batched for the previous tracer go to its buffer.
            self._narrator.flush()
        self._tracer = tracer
        narrator = self._narrator = (TracingNarrator(tracer)
                                     if tracer is not None else None)
        self._phases = (narrator if narrator is not None and narrator.phases
                        else None)

    # -- self-healing -------------------------------------------------------

    def _execute_healing(self, command):
        """Execute with the engine's RetryPolicy: retry transients,
        recover renderer crashes from the replay checkpoint.

        Backoff "sleeps" run through ``driver.wait`` so they advance
        only the virtual clock (timers and AJAX fire during them, as
        they would while a real client backs off). Retries and
        recoveries are counted on the result and the report.
        """
        retry = self.engine.retry
        narrator = self._narrator
        attempt = 1
        while True:
            result = self.engine.execute(self.driver, command, self._phases)
            result.retries = attempt - 1
            if result.succeeded:
                return result
            error = result.error
            if narrator is not None:
                narrator.failed(error)
            if not retry.should_retry(error, attempt):
                return result
            if isinstance(error, RendererCrashError):
                if not retry.recover_crashes:
                    return result
                self._recover_from_crash()
            self.driver.wait(self._backoff_seq.delay_ms(attempt))
            attempt += 1

    def _recover_from_crash(self):
        """Tab reload + checkpoint resume after a renderer crash.

        Fault injection is suppressed for the whole recovery pass: the
        reload and the checkpoint re-execution are repair work, not part
        of the replay under test, so they must neither fault nor consume
        the chaos schedule. Re-executed commands are not narrated (the
        session already recorded their first, successful run).
        """
        checkpoint = self.checkpoint
        injector = chaos.current()
        guard = injector.suppressed() if injector is not None else nullcontext()
        with guard:
            try:
                self.driver.get(checkpoint.url)
            except Exception as reload_error:
                raise ReplayHaltedError(
                    "recovery reload of %r failed: %s"
                    % (checkpoint.url, reload_error))
            for past in checkpoint.commands:
                try:
                    self.engine.execute(self.driver, past)
                except ReplayHaltedError:
                    raise
                except ReplayError:
                    # Best effort: the retried command's own outcome
                    # decides whether the session proceeds.
                    pass
        self.report.recoveries += 1

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
        browser = self.browser
        if not self._navigation_failed:
            # Let in-flight work (XHRs fired by the last action, timers)
            # complete, as a user letting the page settle would.
            browser.event_loop.run_until_idle()
            report.page_errors.extend(browser.page_errors[self._error_base:])
            if self.driver.has_session:
                report.final_url = self.driver.tab.url
        report.perf_counters = perf.delta(self._perf_base)
        report.net_fidelity = self._net_delta()
        if self._narrator is not None:
            self._narrator.session_finished(report)
        return report

    def __repr__(self):
        return "SessionRun(%d commands, halted=%r)" % (
            len(self.trace), self.halted)

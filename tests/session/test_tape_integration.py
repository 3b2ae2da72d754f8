"""Tape determinism: record → playback equivalence across the stack.

The hermeticity acceptance property: a session recorded to tape replays
in PLAYBACK mode with *zero* live requests — no application servers
registered at all — and produces a ReplayReport equivalent to the live
run. Plus: playback-under-chaos equivalence via the stamped
``(profile, seed)``, and tape-driven batch runs agreeing with live
replay on the serial and pooled backends.
"""

import pytest

from repro import chaos
from repro.chaos.profile import get_profile
from repro.cli import APPS, batch_browser_factory
from repro.core.recorder import WarrRecorder
from repro.core.replayer import TimingMode, WarrReplayer
from repro.net.transport import TapeConfig
from repro.session.batch import BatchRunner


def make_trace(app_name):
    app_class, session, start_url = APPS[app_name]
    browser, _ = make_app_browser(app_name)
    recorder = WarrRecorder().attach(browser)
    recorder.begin(start_url, label="%s tape test" % app_name)
    session(browser)
    recorder.detach()
    return recorder.trace


def make_app_browser(app_name, client_only=False):
    from repro.apps.framework import make_browser

    app_class, _, _ = APPS[app_name]
    return make_browser([app_class], seed=0, developer_mode=True,
                        client_only=client_only)


def replay(app_name, trace, tape=None, client_only=False):
    """One replay; returns (report, finished TapeSession or None)."""
    browser, _ = make_app_browser(app_name, client_only=client_only)
    session = tape.attach(browser.network) if tape is not None else None
    replayer = WarrReplayer(browser, timing=TimingMode.no_wait())
    try:
        report = replayer.replay(trace)
    finally:
        if session is not None:
            session.finish()
    return report, session


def report_key(report):
    """The comparable surface of a report.

    Full perf_counters are excluded on purpose: playback adds a
    ``net.tape`` counter that live runs cannot have.
    """
    return {
        "results": [(r.command.to_line(), r.status, r.retries)
                    for r in report.results],
        "final_url": report.final_url,
        "page_errors": [str(e) for e in report.page_errors],
        "halted": report.halted,
        "recoveries": report.recoveries,
        "net_fidelity": dict(report.net_fidelity),
    }


class TestRecordPlaybackEquivalence:
    @pytest.mark.parametrize("app_name", ["dashboard", "gmail"])
    def test_playback_report_matches_live(self, app_name, tmp_path):
        trace = make_trace(app_name)
        path = str(tmp_path / ("%s.tape" % app_name))

        live_report, record_session = replay(
            app_name, trace, tape=TapeConfig.record(path))
        assert len(record_session.tape.entries) > 0

        playback_report, playback_session = replay(
            app_name, trace, tape=TapeConfig.playback(path),
            client_only=True)

        assert report_key(playback_report) == report_key(live_report)
        assert playback_report.net_fidelity["tape_misses"] == 0

    @pytest.mark.parametrize("app_name", ["dashboard", "gmail"])
    def test_playback_is_hermetic(self, app_name, tmp_path):
        """Zero live requests: no servers registered, every response
        from tape, and the displaced live transport never performs."""
        trace = make_trace(app_name)
        path = str(tmp_path / "run.tape")
        replay(app_name, trace, tape=TapeConfig.record(path))

        browser, _ = make_app_browser(app_name, client_only=True)
        assert browser.network._servers == {}  # truly no app zoo
        session = TapeConfig.playback(path).attach(browser.network)
        report = WarrReplayer(
            browser, timing=TimingMode.no_wait()).replay(trace)
        session.finish()
        assert session.previous.performed == 0
        assert session.transport.hits > 0
        assert session.transport.misses == 0
        assert report.complete


class TestPlaybackUnderChaos:
    def test_stamped_profile_and_seed_replay_identically(self, tmp_path):
        """A tape recorded under chaos carries (profile, seed); playing
        it back under the same injector reproduces the same report —
        fault draws land on the same requests in the same order."""
        app_name = "dashboard"
        trace = make_trace(app_name)
        path = str(tmp_path / "chaotic.tape")
        profile = get_profile("flaky_net")

        browser, _ = make_app_browser(app_name)
        session = TapeConfig.record(path).attach(browser.network)
        with chaos.active(profile, seed=3, clock=browser.clock):
            live_report = WarrReplayer(
                browser, timing=TimingMode.no_wait()).replay(trace)
        tape = session.finish()
        assert tape.chaos_profile == profile.name
        assert tape.chaos_seed == 3

        browser, _ = make_app_browser(app_name, client_only=True)
        session = TapeConfig.playback(path).attach(browser.network)
        with chaos.active(get_profile(tape.chaos_profile),
                          seed=tape.chaos_seed, clock=browser.clock):
            playback_report = WarrReplayer(
                browser, timing=TimingMode.no_wait()).replay(trace)
        session.finish()

        assert report_key(playback_report) == report_key(live_report)

    def test_chaos_stamp_absent_without_injector(self, tmp_path):
        path = str(tmp_path / "calm.tape")
        trace = make_trace("dashboard")
        _, session = replay("dashboard", trace,
                            tape=TapeConfig.record(path))
        assert session.tape.chaos_profile is None
        assert session.tape.chaos_seed is None


class TestTapeBatchBackends:
    def record_tapes(self, trace, tmp_path):
        tape_dir = str(tmp_path / "tapes")
        runner = BatchRunner(batch_browser_factory("dashboard"),
                             timing=TimingMode.no_wait(),
                             tape=TapeConfig.record(tape_dir))
        live = runner.run([trace, trace], labels=["a", "b"])
        assert live.complete
        return tape_dir, live

    def playback_runner(self, tape_dir):
        return BatchRunner(
            batch_browser_factory("dashboard", client_only=True),
            timing=TimingMode.no_wait(),
            tape=TapeConfig.playback(tape_dir))

    def assert_matches(self, live, played):
        assert played.complete
        assert [report_key(run.report) for run in played.runs] \
            == [report_key(run.report) for run in live.runs]

    def test_serial_playback_matches_live(self, tmp_path):
        trace = make_trace("dashboard")
        tape_dir, live = self.record_tapes(trace, tmp_path)
        serial = self.playback_runner(tape_dir) \
            .run([trace, trace], labels=["a", "b"])
        self.assert_matches(live, serial)

    def test_pooled_playback_matches_live(self, tmp_path):
        from repro.session.pool import WorkerSpec

        trace = make_trace("dashboard")
        tape_dir, live = self.record_tapes(trace, tmp_path)
        spec = WorkerSpec("repro.cli:batch_browser_factory",
                          factory_args=("dashboard",),
                          factory_kwargs={"client_only": True})
        pooled = BatchRunner(spec, timing=TimingMode.no_wait(), workers=2,
                             tape=TapeConfig.playback(tape_dir)) \
            .run([trace, trace], labels=["a", "b"])
        self.assert_matches(live, pooled)

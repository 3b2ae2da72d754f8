"""AUsER reports end to end."""

import pytest

from repro.apps.framework import make_browser
from repro.apps.portal import PortalApplication
from repro.auser.crypto import ToyRSA
from repro.auser.report import AUsER, PERCEPTION_THRESHOLD_MS
from repro.core.recorder import WarrRecorder
from repro.core.replayer import WarrReplayer
from repro.dom.serialize import serialize
from repro.workloads.sessions import portal_authenticate_session


@pytest.fixture
def session():
    browser, app = make_browser([PortalApplication])
    recorder = WarrRecorder().attach(browser)
    recorder.begin("http://portal.example.com/")
    portal_authenticate_session(browser)
    return browser, recorder


class TestReportAssembly:
    def test_report_contains_description_trace_snapshot(self, session):
        browser, recorder = session
        auser = AUsER(recorder, browser)
        report = auser.report_problem("Greeting shows wrong name")
        text = report.to_text()
        assert "Greeting shows wrong name" in text
        assert "#! warr-trace v1" in text
        assert "snapshot (full page)" in text
        assert report in auser.reports

    def test_partial_snapshot(self, session):
        browser, recorder = session
        auser = AUsER(recorder, browser)
        report = auser.report_problem(
            "wrong greeting", region_xpath='//div[@id="greeting"]')
        assert "Welcome, jane" in report.snapshot.html
        assert "news" not in report.snapshot.html

    def test_hidden_xpaths_redact(self, session):
        browser, recorder = session
        auser = AUsER(recorder, browser)
        report = auser.report_problem(
            "bug", hidden_xpaths=['//ul[contains(@class, "news")]'])
        assert "Markets rally" not in report.snapshot.html
        assert "Welcome, jane" in report.snapshot.html

    def test_scrubbing_on_by_default(self, session):
        browser, recorder = session
        report = AUsER(recorder, browser).report_problem("bug")
        assert report.scrubbed
        assert "[s,83]" not in report.to_text()  # no password keys
        assert "[*,0]" in report.to_text()

    def test_scrubbing_can_be_disabled(self, session):
        browser, recorder = session
        report = AUsER(recorder, browser).report_problem("bug", scrub=False)
        assert "[s,83]" in report.to_text()


class TestEncryptedReports:
    def test_encrypt_decrypt_round_trip(self, session):
        browser, recorder = session
        report = AUsER(recorder, browser).report_problem("bug")
        keys = ToyRSA.generate(seed=5)
        ciphertext = report.encrypt(keys.public)
        assert ToyRSA.decrypt(ciphertext, keys.private) == report.to_text()


class TestScrubbedTraceStillReplays:
    def test_scrubbed_trace_exercises_same_path(self, session):
        """The anonymized trace leads the application along the same
        execution path (the paper's [29] reference): same pages visited,
        same number of login attempts — just with dummy keystrokes."""
        browser, recorder = session
        report = AUsER(recorder, browser).report_problem("bug")
        replay_browser, (app,) = make_browser([PortalApplication],
                                              developer_mode=True)
        result = WarrReplayer(replay_browser).replay(report.trace)
        assert result.complete
        assert app.login_attempts == ["jane"]  # login survived; password dummy
        assert "Invalid" in replay_browser.tabs[0].document.text_content


class TestDeveloperReproduction:
    def test_reproduce_snapshots_the_replays_final_page(self, session):
        browser, recorder = session
        report = AUsER(recorder, browser).report_problem("bug", scrub=False)
        browsers = []

        def factory():
            replay_browser, _ = make_browser([PortalApplication],
                                             developer_mode=True)
            browsers.append(replay_browser)
            return replay_browser

        replayed, full = AUsER.reproduce(report, factory)
        assert replayed.complete
        final_page = browsers[-1].active_tab.document
        assert full.html == serialize(final_page)
        assert full.url == replayed.final_url == final_page.url
        assert not full.is_partial
        assert "Welcome, jane" in full.html and "Markets rally" in full.html

        _, region = AUsER.reproduce(report, factory,
                                    region_xpath='//div[@id="greeting"]')
        assert region.is_partial
        assert region.region_xpath == '//div[@id="greeting"]'
        assert "Welcome, jane" in region.html
        assert "Markets rally" not in region.html

        _, redacted = AUsER.reproduce(
            report, factory, hidden_xpaths=['//ul[contains(@class, "news")]'])
        assert 'data-redacted="true"' in redacted.html
        assert "Markets rally" not in redacted.html
        assert "Welcome, jane" in redacted.html
        assert len(browsers) == 3


class TestOverheadGate:
    def test_recorder_overhead_below_perception(self, session):
        browser, recorder = session
        auser = AUsER(recorder, browser)
        assert recorder.overhead_samples_us  # something was measured
        assert auser.recorder_overhead_acceptable()
        assert recorder.mean_overhead_us() / 1000.0 < PERCEPTION_THRESHOLD_MS

    def test_threshold_is_the_papers_100ms(self):
        assert PERCEPTION_THRESHOLD_MS == 100.0

"""WaRR: high-fidelity web application record and replay.

A complete Python reproduction of *"WaRR: A Tool for High-Fidelity Web
Application Record and Replay"* (Andrica & Candea, DSN 2011), including
every substrate the paper depends on: a WebKit-style browser engine
(DOM, HTML parser, XPath, events, layout), a Chrome-like multi-process
browser, a simulated network, the WaRR Recorder and Replayer, the
WebDriver/ChromeDriver stack with WaRR's fixes, the WebErr human-error
testing tool, the AUsER user-experience reporter, baseline recorders
(Selenium IDE, Fiddler), and clones of the evaluated web applications.

Quickstart::

    from repro import make_browser, WarrRecorder, WarrReplayer
    from repro.apps.sites import SitesApplication
    from repro.workloads import sites_edit_session

    browser, _ = make_browser([SitesApplication])
    recorder = WarrRecorder().attach(browser)
    recorder.begin("http://sites.example.com/edit/home")
    sites_edit_session(browser, text="Hello world!")

    replay_browser, _ = make_browser([SitesApplication], developer_mode=True)
    report = WarrReplayer(replay_browser).replay(recorder.trace)
    assert report.complete
"""

from repro.apps.framework import AppEnvironment, WebApplication, make_browser
from repro.browser.window import Browser, BrowserWindow
from repro.core.chromedriver import ChromeDriverConfig
from repro.core.commands import (
    ClickCommand,
    DoubleClickCommand,
    DragCommand,
    SwitchFrameCommand,
    TypeCommand,
    WarrCommand,
)
from repro.core.recorder import WarrRecorder
from repro.core.replayer import ReplayReport, TimingMode, WarrReplayer
from repro.core.trace import WarrTrace
from repro.core.webdriver import WebDriver
from repro.session import (
    BatchRunner,
    FailurePolicy,
    LocatorPolicy,
    SessionEngine,
    TimingPolicy,
)

__version__ = "1.0.0"

__all__ = [
    "AppEnvironment",
    "WebApplication",
    "make_browser",
    "Browser",
    "BrowserWindow",
    "ChromeDriverConfig",
    "WarrCommand",
    "ClickCommand",
    "DoubleClickCommand",
    "DragCommand",
    "TypeCommand",
    "SwitchFrameCommand",
    "WarrRecorder",
    "WarrReplayer",
    "ReplayReport",
    "TimingMode",
    "WarrTrace",
    "WebDriver",
    "SessionEngine",
    "TimingPolicy",
    "LocatorPolicy",
    "FailurePolicy",
    "BatchRunner",
    "__version__",
]

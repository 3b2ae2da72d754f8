"""Exception hierarchy and failure taxonomy for the WaRR reproduction.

The hierarchy mirrors the layers of the system: DOM/XPath errors come from
the engine substrate, script errors model JavaScript runtime failures (the
Google Sites bug in the paper manifests as a ``JSReferenceError``), and
replay errors come from the WaRR Replayer and its ChromeDriver simulation.

Every error additionally carries a **severity** — the structured taxonomy
the self-healing replay engine keys retries on:

- ``transient`` — the failure is environmental and a retry may succeed
  (a dropped fetch, a crashed renderer, an injected fault);
- ``permanent`` — retrying the same command cannot help (a locator the
  whole relaxation ladder missed, a malformed trace);
- ``fatal`` — the session itself is unrecoverable (no active
  ChromeDriver client left).

Severity is a class attribute, so ``classify()`` works on any exception;
non-:class:`ReproError` exceptions classify as permanent.
"""

#: Severity levels of the failure taxonomy.
TRANSIENT = "transient"
PERMANENT = "permanent"
FATAL = "fatal"


def classify(error):
    """Severity of ``error``: ``transient``, ``permanent``, or ``fatal``.

    Instances may override their class's severity by assigning a
    ``severity`` attribute (e.g. a :class:`NavigationError` wrapping a
    transient network fault stays retryable).
    """
    return getattr(error, "severity", PERMANENT)


def is_transient(error):
    """True when a retry of the failed operation may succeed."""
    return classify(error) == TRANSIENT


class ReproError(Exception):
    """Base class for every error raised by this library."""

    #: Default taxonomy bucket; subclasses (or instances) override.
    severity = PERMANENT


class DomError(ReproError):
    """Invalid DOM manipulation (bad hierarchy, detached node, ...)."""


class XPathError(ReproError):
    """Base class for XPath engine errors."""


class XPathSyntaxError(XPathError):
    """The XPath expression could not be parsed."""


class ElementNotFoundError(XPathError):
    """No element in the document matches the given locator."""


class NavigationError(ReproError):
    """The browser could not navigate to the requested URL.

    The severity follows the underlying cause: a navigation that failed
    because the network faulted transiently is itself transient (the
    caller re-raising should copy the cause's severity onto the
    instance).
    """


class NetworkError(ReproError):
    """The simulated network failed the request (no route, bad status)."""


class NetworkFaultError(NetworkError):
    """A transient network failure (injected fault, flaky backend).

    Distinct from the base :class:`NetworkError` (which covers permanent
    conditions like "no server registered") so the retry machinery never
    wastes attempts on unroutable requests.
    """

    severity = TRANSIENT


class NetworkTimeoutError(NetworkError):
    """The request exceeded the network's configured timeout."""

    severity = TRANSIENT


class TapeMissError(NetworkError):
    """Playback found no tape entry matching the request fingerprint.

    Permanent by design: replaying the same request against the same
    tape cannot start matching, so burning retry attempts (and backoff
    time) on a miss would only delay the inevitable failure.
    """


class ScriptError(ReproError):
    """A page script raised during execution.

    Carries the underlying JS-level error so tools built on WaRR (e.g.
    WebErr's oracle) can classify failures.
    """

    def __init__(self, message, cause=None):
        super().__init__(message)
        self.cause = cause


class JSReferenceError(ScriptError):
    """Use of an undefined variable inside a page script.

    This is the class of bug WebErr found in Google Sites: interacting
    before asynchronous initialization finished makes the page script read
    a variable that was never assigned.
    """


class JSTypeError(ScriptError):
    """A page script called/accessed a value of the wrong type."""


class InjectedScriptError(ScriptError):
    """A page-script exception injected by :mod:`repro.chaos`.

    Kept distinct from organic script failures so oracles (and the
    chaos survival report) can tell injected noise from real bugs.
    """

    severity = TRANSIENT


class ReadOnlyPropertyError(ReproError):
    """Attempt to set a read-only JavaScript event property.

    User-facing WebKit browsers make certain ``KeyboardEvent`` properties
    read-only; the WaRR Replayer's developer browser lifts the restriction
    (paper, Section IV-C).
    """


class ReplayError(ReproError):
    """The WaRR Replayer failed to replay a command."""


class ReplayHaltedError(ReplayError):
    """Replay halted because no active ChromeDriver client exists.

    Models the ChromeDriver unresponsiveness described in Section IV-C:
    after a page change, the master may fail to elect a new active client
    unless WaRR's fix is enabled.
    """

    severity = FATAL


class DriverError(ReproError):
    """Browser-driver (WebDriver/ChromeDriver) protocol failure."""


class RendererCrashError(DriverError):
    """The renderer process behind the page died (Chrome's "sad tab").

    Transient by design: the tab can be reloaded and the session resumed
    from its replay checkpoint, which is exactly what the engine's
    recovery path does when a :class:`~repro.session.policies.RetryPolicy`
    is active.
    """

    severity = TRANSIENT


class RendererHangError(DriverError):
    """The renderer stopped responding to input for longer than allowed."""

    severity = TRANSIENT


class TraceFormatError(ReproError):
    """A serialized WaRR Command trace could not be parsed."""


class GrammarError(ReproError):
    """Invalid user-interaction grammar (WebErr)."""

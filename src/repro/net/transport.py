"""The transport seam: where a request becomes a response.

Every request in the system — page navigation, iframe subresources,
AJAX — funnels through :class:`~repro.net.server.Network`, and the
network obtains each response from exactly one place: its installed
:class:`Transport`. The seam is deliberately narrow (one method,
``perform(request) -> response``) because everything *around* it —
latency, timeouts, retries, chaos injection — is policy the network
owns regardless of where bytes come from. Swapping the transport swaps
the world behind the wire:

- :class:`LiveTransport` dispatches to the registered application
  servers (today's behavior);
- :class:`RecordTransport` wraps a live transport and snapshots every
  exchange onto a :class:`~repro.net.tape.Tape`;
- :class:`PlaybackTransport` serves exclusively from a tape — no
  application servers, no app state, hermetic replay.

Requests are matched to tape entries by **fingerprint**: method +
canonical URL + body hash, with volatile headers excluded (the VCR
pattern). Identical requests repeated over a session play back their
recorded responses in order, so stateful backends (a counter endpoint,
a mailbox filling up) replay faithfully.

With a telemetry tracer installed, transport activity lands on the
``net`` track (``net.tape.record`` / ``net.tape.hit`` /
``net.tape.miss`` instants plus per-exchange spans), and playback
hit/miss totals ride the :mod:`repro.perf` counter pipeline into every
:class:`~repro.session.report.ReplayReport` as a ``net.tape`` counter.
"""

import hashlib

from repro import perf, telemetry
from repro.net.http import build_url, parse_url
from repro.telemetry.tracks import NET_TRACK
from repro.util.errors import NetworkError, TapeMissError

#: Transport modes (``Transport.mode``). A TapeConfig is RECORD or
#: PLAYBACK; a session with no TapeConfig (``tape=None``) stays LIVE.
LIVE = "live"
RECORD = "record"
PLAYBACK = "playback"

#: Headers excluded from fingerprints: they vary between otherwise
#: identical requests (clocks, request ids, credentials) and would make
#: every replayed request a tape miss.
VOLATILE_HEADERS = frozenset((
    "authorization",
    "cookie",
    "date",
    "if-modified-since",
    "if-none-match",
    "user-agent",
    "x-correlation-id",
    "x-request-id",
))


def canonical_url(url):
    """The URL with lowercased scheme/host and query keys sorted.

    Two spellings of the same request (``?a=1&b=2`` vs ``?b=2&a=1``)
    must fingerprint identically, or tape playback depends on the
    incidental iteration order of whoever built the query string.
    """
    scheme, host, path, query = parse_url(url)
    ordered = {key: query[key] for key in sorted(query)}
    return build_url(scheme, host, path, ordered)


def body_hash(body):
    """Content hash of a request/response body (sha-256 hex)."""
    if isinstance(body, str):
        body = body.encode("utf-8")
    return hashlib.sha256(body).hexdigest()


def stable_headers_hash(headers):
    """Hash of the non-volatile headers, order-independent."""
    stable = sorted(
        (name.lower(), str(value))
        for name, value in (headers or {}).items()
        if name.lower() not in VOLATILE_HEADERS
    )
    digest = hashlib.sha256()
    for name, value in stable:
        digest.update(("%s:%s\n" % (name, value)).encode("utf-8"))
    return digest.hexdigest()


#: Memoized fingerprints. Sessions re-issue the same handful of
#: requests thousands of times across a batch; the sha-256 and URL
#: canonicalization are pure functions of the key below, so paying
#: them once per distinct request keeps playback at live speed.
_fingerprint_memo = {}
_FINGERPRINT_MEMO_CAP = 4096


def request_fingerprint(request):
    """The identity of a request on tape.

    ``method + canonical URL + body hash + stable-headers hash``,
    space-joined. A pure function of the request's replay-relevant
    content: volatile headers and query-key order do not perturb it.
    """
    headers = request.headers
    if headers:
        stable = tuple(sorted((name.lower(), str(value))
                              for name, value in headers.items()
                              if name.lower() not in VOLATILE_HEADERS))
    else:
        stable = ()  # the overwhelmingly common case: no headers at all
    key = (request.method, request.url, request.body, stable)
    fingerprint = _fingerprint_memo.get(key)
    if fingerprint is None:
        fingerprint = " ".join((
            request.method,
            canonical_url(request.url),
            body_hash(request.body),
            stable_headers_hash(request.headers),
        ))
        if len(_fingerprint_memo) >= _FINGERPRINT_MEMO_CAP:
            _fingerprint_memo.clear()
        _fingerprint_memo[key] = fingerprint
    return fingerprint


class Transport:
    """One side of the seam: turns a request into a response.

    Subclasses implement :meth:`_perform`; the public :meth:`perform`
    adds the shared accounting (exchange counter, telemetry span) so
    every transport reports through the same instruments.
    """

    #: One of ``LIVE`` / ``RECORD`` / ``PLAYBACK``.
    mode = LIVE

    def __init__(self):
        #: Exchanges this transport completed (responses returned).
        self.performed = 0

    def perform(self, request):
        """Produce the response for ``request`` (or raise NetworkError)."""
        tracer = telemetry.current()
        if tracer is None or not tracer.wants("net"):
            response = self._perform(request)
            self.performed += 1
            return response
        with tracer.span("net.transport.%s" % self.mode, track=NET_TRACK,
                         cat="net", args={"url": request.url,
                                          "method": request.method}) as args:
            response = self._perform(request)
            args["status"] = response.status
        self.performed += 1
        return response

    def _perform(self, request):
        raise NotImplementedError

    def describe(self):
        return self.mode

    def __repr__(self):
        return "%s(%d exchange(s))" % (type(self).__name__, self.performed)


class LiveTransport(Transport):
    """Dispatch to the application servers registered on a network.

    This is the only place in the stack that invokes a
    :meth:`~repro.net.server.WebServer.handle` — the acceptance
    property the seam tests pin: navigation, subresources, and AJAX all
    reach application code through here or not at all.
    """

    mode = LIVE

    def __init__(self, resolver):
        """``resolver(host) -> WebServer or None`` (the network's table)."""
        super().__init__()
        self._resolver = resolver

    def _perform(self, request):
        server = self._resolver(request.host)
        if server is None:
            raise NetworkError(
                "no server registered for host %r" % request.host)
        return server.handle(request)


class RecordTransport(Transport):
    """Live dispatch plus a snapshot of every exchange onto a tape."""

    mode = RECORD

    def __init__(self, inner, tape):
        super().__init__()
        self.inner = inner
        self.tape = tape

    def _perform(self, request):
        self._stamp_chaos()
        response = self.inner._perform(request)
        self.tape.record(request, response)
        tracer = telemetry.current()
        if tracer is not None and tracer.wants("net"):
            tracer.instant("net.tape.record", track=NET_TRACK, cat="net",
                           args={"fingerprint": request_fingerprint(request),
                                 "status": response.status})
        return response

    def _stamp_chaos(self):
        """Stamp the active ``(profile, seed)`` onto the tape once.

        Recorded lazily at exchange time because chaos is typically
        installed *around* the replay, after the transport is built; a
        tape carrying the stamp replays its crash byte-identically.
        """
        if self.tape.chaos_profile is not None:
            return
        from repro import chaos

        injector = chaos.current()
        if injector is not None:
            self.tape.stamp_chaos(injector.profile.name, injector.seed)


class PlaybackTransport(Transport):
    """Serve exclusively from a tape; the application zoo is not needed.

    Entries are matched by fingerprint; repeated identical requests
    play their recorded responses back in recording order (a stateful
    backend's evolving answers replay faithfully). When a fingerprint's
    recorded responses run out, the last one repeats — self-healing
    retries may lawfully re-issue a request more often than the
    recording did. A fingerprint with **no** entries at all is a tape
    miss and raises :class:`~repro.util.errors.TapeMissError`.
    """

    mode = PLAYBACK

    def __init__(self, tape):
        super().__init__()
        self.tape = tape
        self._cursors = {}
        #: Playback accounting (also mirrored as perf counter net.tape).
        self.hits = 0
        self.misses = 0

    def _perform(self, request):
        fingerprint = request_fingerprint(request)
        entries = self.tape.entries_for(fingerprint)
        tracer = telemetry.current()
        if tracer is not None and not tracer.wants("net"):
            tracer = None
        if not entries:
            self.misses += 1
            perf.record("net.tape", hit=False)
            if tracer is not None:
                tracer.instant("net.tape.miss", track=NET_TRACK, cat="net",
                               args={"fingerprint": fingerprint,
                                     "url": request.url})
            raise TapeMissError(
                "no tape entry for %s %s" % (request.method, request.url))
        position = self._cursors.get(fingerprint, 0)
        entry = entries[min(position, len(entries) - 1)]
        self._cursors[fingerprint] = position + 1
        self.hits += 1
        perf.record("net.tape", hit=True)
        if tracer is not None:
            tracer.instant("net.tape.hit", track=NET_TRACK, cat="net",
                           args={"fingerprint": fingerprint,
                                 "ordinal": entry.ordinal})
        return self.tape.response_for(entry)


class TapeConfig:
    """Picklable recipe for wiring a tape mode onto a session's network.

    This is the object the scale-out stack ships around: the batch
    runner applies it per trace, and the worker pool sends it to
    worker processes with each batch (strings
    only, so it crosses the boundary for free). ``path`` is a tape file
    for single-session runs, or a directory (one ``<label>.tape`` per
    session) for batch runs. ``stamp`` is a JSON-able dict of engine
    config recorded onto every tape (timing mode, app, seed, ...) so a
    tape documents the configuration that produced it.
    """

    def __init__(self, mode, path=None, stamp=None):
        if mode not in (RECORD, PLAYBACK):
            raise ValueError("tape mode must be %s or %s, got %r"
                             % (RECORD, PLAYBACK, mode))
        if path is None:
            raise ValueError("%s mode needs a tape path" % mode)
        self.mode = mode
        self.path = path
        self.stamp = dict(stamp or {})

    @classmethod
    def record(cls, path, stamp=None):
        return cls(RECORD, path, stamp=stamp)

    @classmethod
    def playback(cls, path, stamp=None):
        return cls(PLAYBACK, path, stamp=stamp)

    def tape_path(self, label=None):
        """The tape file behind ``label`` (directory paths get one per
        label; ``.tape`` paths are used as-is)."""
        import os

        if self.path.endswith(".tape") or label is None:
            return self.path
        return os.path.join(self.path, "%s.tape" % _safe_stem(label))

    #: Decoded playback tapes, keyed by (path, mtime_ns, size). Tapes
    #: are immutable once written and playback never mutates one
    #: (cursors live on the transport), so every session replaying the
    #: same recording shares one decoded Tape instead of re-parsing the
    #: file per attach — the difference between playback running at
    #: and below live speed in the tape bench.
    _playback_cache = {}

    def _load_playback_tape(self, path):
        import os

        from repro.net.tape import Tape

        try:
            stat = os.stat(path)
            key = (os.path.abspath(path), stat.st_mtime_ns, stat.st_size)
        except OSError:
            return Tape.load(path)  # surface the usual open() error
        tape = self._playback_cache.get(key)
        if tape is None:
            if len(self._playback_cache) >= 64:
                self._playback_cache.clear()
            tape = self._playback_cache[key] = Tape.load(path)
        return tape

    def attach(self, network, label=None):
        """Install the configured transport on ``network``.

        Returns a :class:`TapeSession` whose :meth:`~TapeSession.finish`
        persists a recording (and restores the previous transport).
        """
        from repro.net.tape import Tape

        path = self.tape_path(label)
        if self.mode == RECORD:
            tape = Tape(label=label, config=self.stamp)
            transport = RecordTransport(network.transport, tape)
        else:
            transport = PlaybackTransport(self._load_playback_tape(path))
        previous = network.use_transport(transport)
        return TapeSession(network, transport, previous, self, path=path)


class TapeSession:
    """One attached tape: live for the session, persisted on finish."""

    def __init__(self, network, transport, previous, config, path=None):
        self.network = network
        self.transport = transport
        self.previous = previous
        self.config = config
        self.path = path
        self.finished = False

    @property
    def tape(self):
        return self.transport.tape

    def finish(self):
        """Save a recording (RECORD mode) and restore the old transport.

        Returns the tape. Idempotent, so callers can finish in
        ``finally`` blocks without double-saving.
        """
        if self.finished:
            return self.tape
        self.finished = True
        self.network.use_transport(self.previous)
        if self.config.mode == RECORD:
            import os

            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self.tape.save(self.path)
        return self.tape


def _safe_stem(label):
    """A filesystem-safe stem for a per-label tape file."""
    return "".join(c if c.isalnum() or c in "-._" else "_"
                   for c in str(label)) or "tape"

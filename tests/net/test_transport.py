"""The transport seam: fingerprints, mode wiring, and seam coverage."""

import os

import pytest

from repro.net.http import HttpRequest, HttpResponse
from repro.net.server import Network, RouteServer
from repro.net.transport import (
    LIVE,
    PLAYBACK,
    RECORD,
    LiveTransport,
    PlaybackTransport,
    RecordTransport,
    TapeConfig,
    canonical_url,
    request_fingerprint,
)
from repro.util.clock import VirtualClock
from repro.util.errors import NetworkError, TapeMissError
from repro.util.event_loop import EventLoop


@pytest.fixture
def network():
    return Network(EventLoop(VirtualClock()), default_latency_ms=50.0)


def make_server():
    server = RouteServer()

    @server.route("/")
    def home(request):
        return "<p>home</p>"

    @server.route("/data")
    def data(request):
        return HttpResponse.json('{"n": 1}')

    return server


class TestFingerprint:
    def test_query_key_order_is_canonical(self):
        assert canonical_url("http://h.example/p?b=2&a=1") == \
            canonical_url("http://h.example/p?a=1&b=2")

    def test_scheme_and_host_case_fold(self):
        assert canonical_url("HTTP://H.Example/p") == \
            canonical_url("http://h.example/p")

    def test_identical_requests_fingerprint_identically(self):
        a = HttpRequest("http://h.example/p?a=1&b=2", body="x")
        b = HttpRequest("http://h.example/p?b=2&a=1", body="x")
        assert request_fingerprint(a) == request_fingerprint(b)

    def test_method_body_and_url_perturb(self):
        base = HttpRequest("http://h.example/p")
        assert request_fingerprint(base) != request_fingerprint(
            HttpRequest("http://h.example/p", method="POST"))
        assert request_fingerprint(base) != request_fingerprint(
            HttpRequest("http://h.example/p", body="x"))
        assert request_fingerprint(base) != request_fingerprint(
            HttpRequest("http://h.example/q"))

    def test_volatile_headers_excluded(self):
        a = HttpRequest("http://h.example/p",
                        headers={"Cookie": "session=1",
                                 "X-Request-Id": "abc",
                                 "User-Agent": "warr"})
        b = HttpRequest("http://h.example/p",
                        headers={"Cookie": "session=2",
                                 "X-Request-Id": "xyz"})
        assert request_fingerprint(a) == request_fingerprint(b)

    def test_stable_headers_included(self):
        a = HttpRequest("http://h.example/p",
                        headers={"Accept": "text/html"})
        b = HttpRequest("http://h.example/p",
                        headers={"Accept": "application/json"})
        assert request_fingerprint(a) != request_fingerprint(b)

    def test_header_name_case_and_order_do_not_matter(self):
        a = HttpRequest("http://h.example/p",
                        headers={"Accept": "x", "X-Warr": "y"})
        b = HttpRequest("http://h.example/p",
                        headers={"x-warr": "y", "ACCEPT": "x"})
        assert request_fingerprint(a) == request_fingerprint(b)


class TestSeamRouting:
    def test_network_dispatches_through_installed_transport(self, network):
        network.register("h.example", make_server())
        assert network.transport.mode == LIVE
        network.fetch("http://h.example/")
        assert network.transport.performed == 1

    def test_use_transport_swaps_and_returns_previous(self, network):
        previous = network.transport
        replacement = LiveTransport(network._servers.get)
        assert network.use_transport(replacement) is previous
        assert network.transport is replacement

    def test_async_fetch_uses_the_seam_too(self, network):
        network.register("h.example", make_server())
        results = []
        network.fetch_async("http://h.example/data", results.append)
        network.event_loop.run_until_idle()
        assert results and results[0].ok
        assert network.transport.performed == 1

    def test_live_transport_unknown_host_raises(self, network):
        with pytest.raises(NetworkError):
            network.fetch("http://ghost.example/")
        assert network.failed_fetch_count == 1

    def test_every_handle_call_site_is_behind_the_seam(self):
        """The seam property, statically: application servers are only
        invoked from LiveTransport._perform, or by another registered
        WebServer delegating upstream (the UsaProxy baseline) — no
        module reaches around the transport to call ``server.handle``
        directly."""
        allowed_suffixes = (
            os.path.join("net", "transport.py"),     # the seam itself
            os.path.join("baselines", "usaproxy.py"),  # server -> server
        )
        root = os.path.join(os.path.dirname(__file__), "..", "..",
                            "src", "repro")
        offenders = []
        for dirpath, _, filenames in os.walk(os.path.abspath(root)):
            for filename in filenames:
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                with open(path) as handle:
                    for number, line in enumerate(handle, 1):
                        if ".handle(request)" in line \
                                and not line.lstrip().startswith("#") \
                                and not path.endswith(allowed_suffixes):
                            offenders.append((path, number))
        assert not offenders, \
            "server.handle called outside the transport seam: %r" \
            % (offenders,)


class TestRecordPlaybackTransports:
    def test_record_wraps_live_and_snapshots(self, network):
        from repro.net.tape import Tape

        network.register("h.example", make_server())
        tape = Tape(label="t")
        network.use_transport(RecordTransport(network.transport, tape))
        network.fetch("http://h.example/")
        network.fetch("http://h.example/data")
        assert len(tape.entries) == 2
        assert tape.entries[0].url == "http://h.example/"
        assert tape.entries[1].content_type == "application/json"

    def test_playback_serves_without_servers(self, network):
        from repro.net.tape import Tape

        network.register("h.example", make_server())
        tape = Tape(label="t")
        network.use_transport(RecordTransport(network.transport, tape))
        live_body = network.fetch("http://h.example/").body

        # A second, empty network: no servers at all.
        hermetic = Network(EventLoop(VirtualClock()))
        hermetic.use_transport(PlaybackTransport(tape))
        assert hermetic.fetch("http://h.example/").body == live_body

    def test_playback_miss_raises_and_counts(self, network):
        from repro.net.tape import Tape

        playback = PlaybackTransport(Tape(label="empty"))
        network.use_transport(playback)
        with pytest.raises(TapeMissError):
            network.fetch("http://h.example/")
        assert playback.misses == 1
        assert network.tape_miss_count == 1
        assert network.failed_fetch_count == 1

    def test_playback_replays_stateful_sequences_in_order(self):
        """Identical requests play back their recorded responses FIFO;
        the last repeats once the recording runs out (retries may
        lawfully re-ask)."""
        from repro.net.tape import Tape

        tape = Tape(label="t")
        request = HttpRequest("http://h.example/counter")
        for n in (1, 2, 3):
            tape.record(request, HttpResponse(body="count=%d" % n))
        playback = PlaybackTransport(tape)
        seen = [playback.perform(request).body for _ in range(5)]
        assert seen == ["count=1", "count=2", "count=3",
                        "count=3", "count=3"]
        assert playback.hits == 5


class TestTapeConfig:
    def test_modes_validate(self):
        with pytest.raises(ValueError):
            TapeConfig("vhs")
        with pytest.raises(ValueError):
            TapeConfig(RECORD)  # record needs a path
        with pytest.raises(ValueError):
            TapeConfig(PLAYBACK)
        with pytest.raises(ValueError):
            TapeConfig(LIVE, "run.tape")  # live is tape=None, not a mode

    def test_tape_path_file_vs_directory(self):
        config = TapeConfig.record("/tapes/run.tape")
        assert config.tape_path("anything") == "/tapes/run.tape"
        config = TapeConfig.record("/tapes")
        assert config.tape_path("a/b.warr") == "/tapes/a_b.warr.tape"
        assert config.tape_path() == "/tapes"

    def test_record_attach_roundtrip(self, network, tmp_path):
        network.register("h.example", make_server())
        path = str(tmp_path / "run.tape")
        session = TapeConfig.record(path, stamp={"app": "test"}) \
            .attach(network)
        network.fetch("http://h.example/")
        tape = session.finish()
        assert network.transport.mode == LIVE  # previous restored
        assert os.path.exists(path)
        assert tape.config == {"app": "test"}
        # finish() is idempotent: a second call must not re-save.
        assert session.finish() is tape

    def test_playback_attach_loads_tape(self, network, tmp_path):
        network.register("h.example", make_server())
        path = str(tmp_path / "run.tape")
        session = TapeConfig.record(path).attach(network)
        body = network.fetch("http://h.example/data").body
        session.finish()

        fresh = Network(EventLoop(VirtualClock()))
        playback = TapeConfig.playback(path).attach(fresh)
        assert fresh.fetch("http://h.example/data").body == body
        assert playback.transport.mode == PLAYBACK
        playback.finish()

"""Simulated network: HTTP messages, servers, transports, and XHR.

Stands in for the HTTP(S) traffic between browser and application server.
Latency is simulated on the discrete-event loop, which is what makes
AJAX-driven pages vulnerable to the *timing errors* WebErr injects
(paper, Section V-B). HTTPS is modeled as an opacity flag: the Fiddler
baseline can log encrypted exchanges but not read them, reproducing the
paper's argument for in-browser recording.

Every request reaches its server through the **transport seam**
(:mod:`repro.net.transport`): swap the network's transport and the same
session records to — or replays hermetically from — a content-addressed
:class:`~repro.net.tape.Tape` instead of touching live servers.
"""

from repro.net.http import HttpRequest, HttpResponse, parse_url, build_url
from repro.net.server import ExchangeLog, Network, RouteServer, WebServer
from repro.net.transport import (
    LIVE,
    PLAYBACK,
    RECORD,
    LiveTransport,
    PlaybackTransport,
    RecordTransport,
    TapeConfig,
    Transport,
    canonical_url,
    request_fingerprint,
)
from repro.net.tape import BlobStore, Tape, TapeEntry
from repro.net.ajax import XmlHttpRequest

__all__ = [
    "HttpRequest",
    "HttpResponse",
    "parse_url",
    "build_url",
    "WebServer",
    "RouteServer",
    "Network",
    "ExchangeLog",
    "XmlHttpRequest",
    "Transport",
    "LiveTransport",
    "RecordTransport",
    "PlaybackTransport",
    "TapeConfig",
    "Tape",
    "TapeEntry",
    "BlobStore",
    "canonical_url",
    "request_fingerprint",
    "LIVE",
    "RECORD",
    "PLAYBACK",
]

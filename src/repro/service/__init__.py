"""terpd — the multi-tenant PMO service layer.

The reproduction's core is a single-process library; this package
turns it into a daemon.  ``terpd`` serves the full Table I API
(`PMO_create`/`attach`/`detach`/`pmalloc`/`pfree`/`read`/`write`/
`psync`/`destroy`) over a length-prefixed JSON protocol on TCP or Unix
sockets, multiplexing many client *sessions* onto one
:class:`~repro.pmo.api.PmoLibrary`.  Each session is mapped to a TERP
entity, so the EW-conscious semantics, the permission matrix, and the
arch engine's window combining are enforced *across* clients — and a
background sweeper force-detaches any session whose exposure budget
elapses, including clients that crash or disconnect mid-attach.

Modules:

``protocol``   the wire format (framing, requests, responses, errors)
``ops``        the op table: every wire op declared once
``sessions``   sessions as TERP entities: state, registry (the one
               ``hello``), and the daemon's lifecycle manager
``metrics``    the metric table: every series declared once, plus the
               ``metrics`` / ``--metrics-dump`` report assembly
``conn``       per-connection plumbing the daemon and the cluster
               router share (admission, response queue, shutdown)
``server``     the asyncio daemon (``TerpService``) and thread harness
``launch``     the settings table (every tuning flag declared once) and
               the one serve-until-signalled loop
``sweeping``   the exposure sweeper (session budgets + engine sweep)
``recovery``   session journal and warm restart
``client``     asyncio and blocking clients with pipelining support
``retry``      retry policy and circuit breaker for the clients

Observability lives in :mod:`repro.obs`: the daemon's counters and
latency histograms are instruments in a
:class:`~repro.obs.registry.MetricsRegistry` (JSON dump via
``--metrics-dump``, Prometheus text via the ``prometheus`` op), every
request and sweep is traced, and the exposure-window audit timeline
(``trace`` op) records who held which PMO for how long.

Run the daemon with ``python -m repro.service``.
"""

from repro.service.client import RemoteError, SyncTerpClient, TerpClient
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    MAX_FRAME_BYTES, WireError, decode_frame, encode_frame)
from repro.service.server import ServiceThread, TerpService
from repro.service.sessions import Session, SessionRegistry

__all__ = [
    "MAX_FRAME_BYTES",
    "RemoteError",
    "ServiceMetrics",
    "ServiceThread",
    "Session",
    "SessionRegistry",
    "SyncTerpClient",
    "TerpClient",
    "TerpService",
    "WireError",
    "decode_frame",
    "encode_frame",
]

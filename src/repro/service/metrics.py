"""Service observability: registry-backed counters and latencies.

Two granularities, mirroring what an operator of a multi-tenant PMO
daemon needs:

* :class:`ServiceMetrics` — daemon-wide, every series living in a
  :class:`~repro.obs.registry.MetricsRegistry` (so the same numbers
  are available as the ``metrics`` op's JSON payload, the
  ``--metrics-dump`` document, and Prometheus text exposition):
  request totals per op, attach/forced-detach tallies, sweep runs, and
  request/sweep latency histograms with reservoir percentiles.
* :class:`SessionMetrics` — per session: request count, bytes moved,
  attaches, forced detaches, errors.  Deliberately plain counters —
  sessions are ephemeral and numerous, so they stay out of the
  registry's long-lived series namespace.

:class:`LatencyRecorder` is the historical name of the seeded
reservoir now provided by :class:`repro.obs.registry.Reservoir`; it
remains as a thin subclass with nanosecond-flavoured accessors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.obs.registry import (
    Counter, Histogram, MetricsRegistry, Reservoir)

#: Request/sweep latency buckets (ns): 1us .. 1s.
LATENCY_BUCKETS_NS = (
    1_000, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 5_000_000, 10_000_000, 50_000_000, 100_000_000,
    500_000_000, 1_000_000_000,
)


class LatencyRecorder(Reservoir):
    """Reservoir-sampled latency population with percentile queries."""

    @property
    def total_ns(self) -> int:
        return self.total

    @property
    def max_ns(self) -> int:
        return self.max_value

    @property
    def mean_ns(self) -> float:
        return self.mean

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_us": self.mean / 1e3,
            "p50_us": (self.percentile(50) or 0) / 1e3,
            "p99_us": (self.percentile(99) or 0) / 1e3,
            "max_us": self.max_value / 1e3,
        }


def _histogram_latency_dict(hist: Histogram) -> Dict[str, float]:
    """A histogram's latency summary in the wire-report shape (us)."""
    return {
        "count": hist.count,
        "mean_us": hist.mean / 1e3,
        "p50_us": (hist.percentile(50) or 0) / 1e3,
        "p99_us": (hist.percentile(99) or 0) / 1e3,
        "max_us": hist.max_value / 1e3,
    }


class WireCounters:
    """The writes a serve loop made to its clients and the response
    frames they carried — frames per flush is how well pipelined
    bursts coalesce.  The daemon and the cluster router each keep a
    pair for their own hop."""

    def __init__(self, registry: MetricsRegistry,
                 labels: Optional[Dict[str, str]] = None) -> None:
        self.flushes = registry.counter(
            "terpd_wire_flushes_total", "writes of queued response "
            "frames to a client connection", labels)
        self.frames = registry.counter(
            "terpd_wire_frames_total", "response frames written to "
            "client connections", labels)

    def note_flush(self, frames: int) -> None:
        self.flushes.inc()
        self.frames.inc(frames)

    def to_dict(self) -> Dict[str, int]:
        return {"wire_flushes": self.flushes.value,
                "wire_frames": self.frames.value}


@dataclass
class SessionMetrics:
    """One session's share of the daemon's work."""

    requests: int = 0
    errors: int = 0
    attaches: int = 0
    detaches: int = 0
    forced_detaches: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "attaches": self.attaches,
            "detaches": self.detaches,
            "forced_detaches": self.forced_detaches,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }


class ServiceMetrics:
    """Daemon-wide series, the ``metrics`` op's payload.

    Every counter and histogram is an instrument in ``registry``;
    the attribute-style accessors (``metrics.requests`` …) read the
    live registry values, and ``to_dict()`` keeps the wire shape the
    clients, tests, and the throughput bench already consume.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None
                 ) -> None:
        self.registry = (registry if registry is not None
                         else MetricsRegistry())
        reg = self.registry
        self._requests = reg.counter(
            "terpd_requests_total", "requests dispatched")
        self._errors = reg.counter(
            "terpd_request_errors_total", "requests answered with an "
            "error")
        self._batches = reg.counter(
            "terpd_batches_total", "array frames received")
        self._sessions_opened = reg.counter(
            "terpd_sessions_opened_total", "sessions bound by hello")
        self._sessions_closed = reg.counter(
            "terpd_sessions_closed_total", "sessions ended")
        self._attaches = reg.counter(
            "terpd_attaches_total", "successful attach ops")
        self._detaches = reg.counter(
            "terpd_detaches_total", "successful detach ops")
        self._forced_detaches = reg.counter(
            "terpd_forced_detaches_total", "windows closed by the "
            "sweeper or the arch engine on a session's behalf")
        self._disconnect_detaches = reg.counter(
            "terpd_disconnect_detaches_total", "holdings released on "
            "connection teardown")
        self._sweep_runs = reg.counter(
            "terpd_sweep_runs_total", "sweeper passes")
        self._faults_injected = reg.counter(
            "terpd_faults_injected_total", "fault-injection rules "
            "fired across every site")
        self._sessions_resumed = reg.counter(
            "terpd_sessions_resumed_total", "sessions rebound after a "
            "connection drop")
        self._replays_served = reg.counter(
            "terpd_replays_served_total", "responses served from the "
            "idempotent replay cache")
        self._scrub_pages_verified = reg.counter(
            "terpd_scrub_pages_verified_total", "at-rest pages CRC-"
            "verified by the sweep-integrated scrubber")
        self._scrub_pages_repaired = reg.counter(
            "terpd_scrub_pages_repaired_total", "pages repaired from "
            "the double-write journal (or the live resident copy)")
        self._pmos_quarantined = reg.counter(
            "terpd_pmos_quarantined_total", "PMOs quarantined after an "
            "unrepairable integrity failure")
        self._restarts_recovered = reg.counter(
            "terpd_restarts_recovered_total", "warm restarts that "
            "replayed the pool directory and session journal")
        self._sessions_recovered = reg.counter(
            "terpd_sessions_recovered_total", "sessions restored from "
            "the session journal at warm restart")
        self._recovery_forced_detaches = reg.counter(
            "terpd_recovery_forced_detaches_total", "holdings force-"
            "detached at recovery (EW elapsed during the outage)")
        self._batches_shipped = reg.counter(
            "terpd_repl_batches_shipped_total", "group-commit batches "
            "streamed to the standby")
        self._batches_ship_acked = reg.counter(
            "terpd_repl_batches_acked_total", "shipped batches the "
            "standby acked as fsynced")
        self._batches_ship_dropped = reg.counter(
            "terpd_repl_batches_dropped_total", "batches not "
            "replicated (standby absent, link down, or ack timeout)")
        self._replication_lag = reg.gauge(
            "terpd_repl_lag_batches", "batches shipped but not yet "
            "acked by the standby")
        self.wire = WireCounters(reg)
        self._op_counters: Dict[str, Counter] = {}
        self._fault_site_counters: Dict[str, Counter] = {}
        self.request_latency = reg.histogram(
            "terpd_request_latency_ns", "request service time",
            buckets=LATENCY_BUCKETS_NS, reservoir_capacity=8192, seed=7)
        self.sweep_latency = reg.histogram(
            "terpd_sweep_latency_ns", "sweeper pass duration",
            buckets=LATENCY_BUCKETS_NS, reservoir_capacity=2048,
            seed=11)
        self.ship_ack_latency = reg.histogram(
            "terpd_repl_ack_latency_ns", "ship-to-ack round trip",
            buckets=LATENCY_BUCKETS_NS, reservoir_capacity=4096,
            seed=13)

    # -- write side -------------------------------------------------------

    def note_request(self, op: str, latency_ns: int, *,
                     ok: bool) -> None:
        self._requests.inc()
        if not ok:
            self._errors.inc()
        counter = self._op_counters.get(op)
        if counter is None:
            counter = self.registry.counter(
                "terpd_op_total", "requests per op", labels={"op": op})
            self._op_counters[op] = counter
        counter.inc()
        self.request_latency.observe(latency_ns)

    def note_sweep(self, latency_ns: int) -> None:
        self._sweep_runs.inc()
        self.sweep_latency.observe(latency_ns)

    def note_batch(self) -> None:
        self._batches.inc()

    def note_session_opened(self) -> None:
        self._sessions_opened.inc()

    def note_session_closed(self) -> None:
        self._sessions_closed.inc()

    def note_attach(self) -> None:
        self._attaches.inc()

    def note_detach(self) -> None:
        self._detaches.inc()

    def note_forced_detach(self) -> None:
        self._forced_detaches.inc()

    def note_disconnect_detach(self) -> None:
        self._disconnect_detaches.inc()

    def note_fault(self, site: str) -> None:
        self._faults_injected.inc()
        counter = self._fault_site_counters.get(site)
        if counter is None:
            counter = self.registry.counter(
                "terpd_fault_site_total", "injections per site",
                labels={"site": site})
            self._fault_site_counters[site] = counter
        counter.inc()

    def note_session_resumed(self) -> None:
        self._sessions_resumed.inc()

    def note_replay_served(self) -> None:
        self._replays_served.inc()

    def note_scrub(self, *, verified: int, repaired: int,
                   quarantined: int) -> None:
        self._scrub_pages_verified.inc(verified)
        self._scrub_pages_repaired.inc(repaired)
        self._pmos_quarantined.inc(quarantined)

    def note_quarantine(self, count: int = 1) -> None:
        self._pmos_quarantined.inc(count)

    def note_recovery(self, *, sessions: int,
                      forced_detaches: int) -> None:
        self._restarts_recovered.inc()
        self._sessions_recovered.inc(sessions)
        self._recovery_forced_detaches.inc(forced_detaches)

    def note_ship(self) -> None:
        self._batches_shipped.inc()

    def note_ship_ack(self, latency_ns: int) -> None:
        self._batches_ship_acked.inc()
        self.ship_ack_latency.observe(latency_ns)

    def note_ship_drop(self) -> None:
        self._batches_ship_dropped.inc()

    def set_replication_lag(self, batches: int) -> None:
        self._replication_lag.set(batches)

    # -- read side --------------------------------------------------------

    @property
    def requests(self) -> int:
        return self._requests.value

    @property
    def errors(self) -> int:
        return self._errors.value

    @property
    def batches(self) -> int:
        return self._batches.value

    @property
    def sessions_opened(self) -> int:
        return self._sessions_opened.value

    @property
    def sessions_closed(self) -> int:
        return self._sessions_closed.value

    @property
    def attaches(self) -> int:
        return self._attaches.value

    @property
    def detaches(self) -> int:
        return self._detaches.value

    @property
    def forced_detaches(self) -> int:
        return self._forced_detaches.value

    @property
    def disconnect_detaches(self) -> int:
        return self._disconnect_detaches.value

    @property
    def sweep_runs(self) -> int:
        return self._sweep_runs.value

    @property
    def faults_injected(self) -> int:
        return self._faults_injected.value

    @property
    def sessions_resumed(self) -> int:
        return self._sessions_resumed.value

    @property
    def replays_served(self) -> int:
        return self._replays_served.value

    @property
    def scrub_pages_verified(self) -> int:
        return self._scrub_pages_verified.value

    @property
    def scrub_pages_repaired(self) -> int:
        return self._scrub_pages_repaired.value

    @property
    def pmos_quarantined(self) -> int:
        return self._pmos_quarantined.value

    @property
    def restarts_recovered(self) -> int:
        return self._restarts_recovered.value

    @property
    def sessions_recovered(self) -> int:
        return self._sessions_recovered.value

    @property
    def recovery_forced_detaches(self) -> int:
        return self._recovery_forced_detaches.value

    @property
    def batches_shipped(self) -> int:
        return self._batches_shipped.value

    @property
    def batches_ship_acked(self) -> int:
        return self._batches_ship_acked.value

    @property
    def batches_ship_dropped(self) -> int:
        return self._batches_ship_dropped.value

    @property
    def replication_lag(self) -> int:
        return int(self._replication_lag.value)

    @property
    def wire_flushes(self) -> int:
        return self.wire.flushes.value

    @property
    def wire_frames(self) -> int:
        return self.wire.frames.value

    @property
    def faults_by_site(self) -> Dict[str, int]:
        return {site: counter.value
                for site, counter in self._fault_site_counters.items()}

    @property
    def ops(self) -> Dict[str, int]:
        return {op: counter.value
                for op, counter in self._op_counters.items()}

    def to_dict(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "batches": self.batches,
            "sessions_opened": self.sessions_opened,
            "sessions_closed": self.sessions_closed,
            "attaches": self.attaches,
            "detaches": self.detaches,
            "forced_detaches": self.forced_detaches,
            "disconnect_detaches": self.disconnect_detaches,
            "sweep_runs": self.sweep_runs,
            "faults_injected": self.faults_injected,
            "faults_by_site": self.faults_by_site,
            "sessions_resumed": self.sessions_resumed,
            "replays_served": self.replays_served,
            "scrub_pages_verified": self.scrub_pages_verified,
            "scrub_pages_repaired": self.scrub_pages_repaired,
            "pmos_quarantined": self.pmos_quarantined,
            "restarts_recovered": self.restarts_recovered,
            "sessions_recovered": self.sessions_recovered,
            "recovery_forced_detaches": self.recovery_forced_detaches,
            "repl_batches_shipped": self.batches_shipped,
            "repl_batches_acked": self.batches_ship_acked,
            "repl_batches_dropped": self.batches_ship_dropped,
            "repl_lag": self.replication_lag,
            **self.wire.to_dict(),
            "ops": self.ops,
            "request_latency": _histogram_latency_dict(
                self.request_latency),
            "sweep_latency": _histogram_latency_dict(
                self.sweep_latency),
        }

"""Service observability: every terpd series, declared once.

:data:`SERIES` is the one statement of the daemon-wide metric set, a
row per series: the key it is read and reported under, its registry
family name, kind, help text, whether it appears in the ``metrics``
op's ``global`` section, and how shards' values combine behind a
router.  Everything else derives from the rows:
:class:`ServiceMetrics` builds one live instrument per row in a
:class:`~repro.obs.registry.MetricsRegistry` (so the same numbers are
the ``metrics`` op's JSON payload, the ``--metrics-dump`` document and
the Prometheus text exposition), and :data:`MERGE_RULES` — the rows'
rules plus those of the non-additive leaves in the report sections
:func:`metrics_report` assembles around the table — is what
:mod:`repro.cluster.aggregate` merges shard reports by.

Adding a series is adding a row (and a compound ``note_*`` writer if
several rows move together); adding a non-additive leaf to a report
section is adding its rule.  ``tests/service/test_metric_table.py``
fails on an instrument created anywhere else and on a float, string or
list leaf without a rule.

:class:`SessionMetrics` is the per-session share.  Deliberately plain
counters — sessions are ephemeral and numerous, so they stay out of
the registry's long-lived series namespace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple

from repro.core.record import asdict, record
from repro.obs.registry import Counter, MetricsRegistry, merge_histograms

if TYPE_CHECKING:
    from repro.service.server import TerpService
    from repro.service.sessions import Session

#: Series kinds.  A family is a set of counters told apart by one
#: label, its members created as their label values first occur.
COUNTER, GAUGE, HISTOGRAM, FAMILY = \
    "counter", "gauge", "histogram", "family"

#: Cross-shard merge rules, ``(kind, *parameters)``; a leaf with no
#: rule is an additive count.  ``WEIGHTED`` is the mean weighted by the
#: sum of the named sibling leaves; ``BUCKETS`` recomputes a latency
#: summary from the named histogram's merged raw buckets (a daemon's
#: own row is the same merge of its one histogram); ``OWNED`` is
#: a dict each of whose entries exactly one shard reports (a PMO name
#: hashes to one shard); ``PER_SHARD`` describes the answering shard
#: and has no cluster-wide value.
SUM, MAX, MIN, CONCAT, WEIGHTED, BUCKETS, OWNED, PER_SHARD = (
    "sum", "max", "min", "concat", "weighted", "buckets", "owned",
    "per_shard")


class CounterFamily:
    """A :data:`FAMILY` row's live instrument: one labelled counter
    per label value seen, read back as ``{label value: count}``."""

    def __init__(self, registry: MetricsRegistry,
                 row: "Series") -> None:
        self._registry = registry
        self._row = row
        self._members: Dict[str, Counter] = {}

    def inc(self, label_value: str) -> None:
        counter = self._members.get(label_value)
        if counter is None:
            counter = self._members[label_value] = \
                self._registry.counter(self._row.name, self._row.help,
                                       {self._row.label: label_value})
        counter.inc()

    @property
    def value(self) -> Dict[str, int]:
        return {label_value: counter.value
                for label_value, counter in self._members.items()}


@record(frozen=True)
class Series:
    #: what the series is read and reported as: ``metrics.<key>``,
    #: ``metrics.series[key]``, ``metrics()["global"][key]``.
    key: str
    #: the registry (and Prometheus) family name.
    name: str
    kind: str
    help: str
    #: reported in ``metrics()["global"]``.
    in_global: bool = True
    #: how shards' values combine (``BUCKETS`` takes this row's name).
    merge: str = SUM
    #: a family's distinguishing label.
    label: Optional[str] = None

    def create(self, registry: MetricsRegistry,
               labels: Optional[Mapping[str, str]] = None) -> Any:
        """This row's instrument in ``registry`` (get-or-create)."""
        if self.kind == FAMILY:
            return CounterFamily(registry, self)
        if self.kind == HISTOGRAM:
            return registry.histogram(self.name, self.help, labels)
        make = registry.gauge if self.kind == GAUGE else registry.counter
        return make(self.name, self.help, labels)

    def read(self, instrument: Any) -> Any:
        """The instrument's value in the wire-report shape."""
        if self.kind == HISTOGRAM:
            return merge_histograms([instrument.to_dict()])
        if self.kind == GAUGE:
            return int(instrument.value)
        return instrument.value


#: The daemon-wide series by key; the ``global`` rows in ``to_dict``
#: order.
SERIES: Dict[str, Series] = {row.key: row for row in (
    Series("requests", "terpd_requests_total", COUNTER,
           "requests dispatched"),
    Series("errors", "terpd_request_errors_total", COUNTER,
           "requests answered with an error"),
    Series("batches", "terpd_batches_total", COUNTER,
           "array frames received"),
    Series("sessions_opened", "terpd_sessions_opened_total", COUNTER,
           "sessions bound by hello"),
    Series("sessions_closed", "terpd_sessions_closed_total", COUNTER,
           "sessions ended"),
    Series("attaches", "terpd_attaches_total", COUNTER,
           "successful attach ops"),
    Series("detaches", "terpd_detaches_total", COUNTER,
           "successful detach ops"),
    Series("forced_detaches", "terpd_forced_detaches_total", COUNTER,
           "windows closed by the sweeper or the arch engine on a "
           "session's behalf"),
    Series("disconnect_detaches", "terpd_disconnect_detaches_total",
           COUNTER, "holdings released on connection teardown"),
    Series("sweep_runs", "terpd_sweep_runs_total", COUNTER,
           "sweeper passes"),
    Series("faults_injected", "terpd_faults_injected_total", COUNTER,
           "fault-injection rules fired across every site"),
    Series("faults_by_site", "terpd_fault_site_total", FAMILY,
           "injections per site", label="site"),
    Series("sessions_resumed", "terpd_sessions_resumed_total", COUNTER,
           "sessions rebound after a connection drop"),
    Series("replays_served", "terpd_replays_served_total", COUNTER,
           "responses served from the idempotent replay cache"),
    Series("scrub_pages_verified", "terpd_scrub_pages_verified_total",
           COUNTER, "at-rest pages CRC-verified by the sweep-integrated "
           "scrubber"),
    Series("scrub_pages_repaired", "terpd_scrub_pages_repaired_total",
           COUNTER, "pages repaired from the double-write journal (or "
           "the live resident copy)"),
    Series("pmos_quarantined", "terpd_pmos_quarantined_total", COUNTER,
           "PMOs quarantined after an unrepairable integrity failure"),
    Series("restarts_recovered", "terpd_restarts_recovered_total",
           COUNTER, "warm restarts that replayed the pool directory and "
           "session journal"),
    Series("sessions_recovered", "terpd_sessions_recovered_total",
           COUNTER, "sessions restored from the session journal at warm "
           "restart"),
    Series("recovery_forced_detaches",
           "terpd_recovery_forced_detaches_total", COUNTER,
           "holdings force-detached at recovery (EW elapsed during the "
           "outage)"),
    Series("repl_batches_shipped", "terpd_repl_batches_shipped_total",
           COUNTER, "group-commit batches streamed to the standby"),
    Series("repl_batches_acked", "terpd_repl_batches_acked_total",
           COUNTER, "shipped batches the standby acked as fsynced"),
    Series("repl_batches_dropped", "terpd_repl_batches_dropped_total",
           COUNTER, "batches not replicated (standby absent, link down, "
           "or ack timeout)"),
    Series("repl_lag", "terpd_repl_lag_batches", GAUGE,
           "batches shipped but not yet acked by the standby"),
    # The two wire rows: how well pipelined bursts coalesce is frames
    # per flush (see WireCounters — the router keeps its own pair).
    Series("wire_flushes", "terpd_wire_flushes_total", COUNTER,
           "writes of queued response frames to a client connection"),
    Series("wire_frames", "terpd_wire_frames_total", COUNTER,
           "response frames written to client connections"),
    Series("ops", "terpd_op_total", FAMILY, "requests per op",
           label="op"),
    Series("request_latency", "terpd_request_latency_ns", HISTOGRAM,
           "request service time", merge=BUCKETS),
    Series("sweep_latency", "terpd_sweep_latency_ns", HISTOGRAM,
           "sweeper pass duration", merge=BUCKETS),
    # Registry / Prometheus only: not part of the ``global`` section.
    Series("repl_ack_latency", "terpd_repl_ack_latency_ns", HISTOGRAM,
           "ship-to-ack round trip", in_global=False),
    # What of that round trip the commit did not hide behind its own
    # home fsync: far below the round trip when the overlap works.
    Series("repl_ack_wait", "terpd_repl_ack_wait_ns", HISTOGRAM,
           "time a commit parked on the standby ack after its own "
           "home fsync", in_global=False, merge=BUCKETS),
    Series("sessions", "terpd_sessions", GAUGE,
           "currently bound sessions", in_global=False),
)}

#: ``runtime`` section: these fields of the runtime's counters.
RUNTIME_FIELDS = ("attach_calls", "detach_calls", "silent_percent",
                  "randomizations", "faults", "accesses")
#: ``arch_cases`` section: these fields of the engine's case counters.
ARCH_CASE_FIELDS = ("case1_first_attach", "case3_silent_attach",
                    "case5_full_detach", "case6_delayed_detach",
                    "sweep_detaches", "sweep_randomizes")

#: ``metrics`` report path -> merge rule, for every leaf (or subtree)
#: that is not an additive count.
MERGE_RULES: Dict[str, Tuple[str, ...]] = {
    **{f"global.{row.key}": (row.merge, row.name)
       for row in SERIES.values()
       if row.in_global and row.merge != SUM},
    # A percentage of the calls it was computed over.
    "runtime.silent_percent": (WEIGHTED, "attach_calls",
                               "detach_calls"),
    "audit.held_mean_ns": (WEIGHTED, "windows"),
    "audit.held_max_ns": (MAX,),
    "audit.per_pmo": (OWNED,),
    # The cluster came up with its first shard and was down for as
    # long as its slowest one.
    "recovery.epoch_wall_ns": (MIN,),
    "recovery.downtime_ns": (MAX,),
    "recovery.pmos_quarantined": (CONCAT,),
    "recovery.pmos_denied": (CONCAT,),
    "shard": (PER_SHARD,),
    "registry": (PER_SHARD,),
}


class WireCounters:
    """The writes a serve loop made to its clients and the response
    frames they carried — frames per flush is how well pipelined
    bursts coalesce.  The daemon and the cluster router each keep a
    pair for their own hop."""

    KEYS = ("wire_flushes", "wire_frames")

    def __init__(self, registry: MetricsRegistry,
                 labels: Optional[Dict[str, str]] = None) -> None:
        self.flushes, self.frames = (
            SERIES[key].create(registry, labels) for key in self.KEYS)

    def note_flush(self, frames: int) -> None:
        self.flushes.inc()
        self.frames.inc(frames)

    def to_dict(self) -> Dict[str, int]:
        return dict(zip(self.KEYS,
                        (self.flushes.value, self.frames.value)))


@record
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
        return asdict(self)


class ServiceMetrics:
    """Daemon-wide series: one live instrument per :data:`SERIES` row.

    Call sites write through ``series[key]`` (``inc`` / ``set`` /
    ``observe``); ``metrics.<key>`` reads the current value in the
    wire-report shape; ``to_dict()`` is the ``global`` section.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None
                 ) -> None:
        self.registry = (registry if registry is not None
                         else MetricsRegistry())
        self.series: Dict[str, Any] = {
            key: row.create(self.registry)
            for key, row in SERIES.items()}
        self.wire = WireCounters(self.registry)

    # -- write side: what touches several rows at once ----------------------

    def note_request(self, op: str, latency_ns: int, *,
                     ok: bool) -> None:
        series = self.series
        series["requests"].inc()
        if not ok:
            series["errors"].inc()
        series["ops"].inc(op)
        series["request_latency"].observe(latency_ns)

    def note_sweep(self, latency_ns: int) -> None:
        self.series["sweep_runs"].inc()
        self.series["sweep_latency"].observe(latency_ns)

    def note_fault(self, site: str) -> None:
        self.series["faults_injected"].inc()
        self.series["faults_by_site"].inc(site)

    def note_scrub(self, *, verified: int, repaired: int,
                   quarantined: int) -> None:
        self.series["scrub_pages_verified"].inc(verified)
        self.series["scrub_pages_repaired"].inc(repaired)
        self.series["pmos_quarantined"].inc(quarantined)

    def note_recovery(self, *, sessions: int) -> None:
        self.series["restarts_recovered"].inc()
        self.series["sessions_recovered"].inc(sessions)

    def note_ship_ack(self, latency_ns: int) -> None:
        self.series["repl_batches_acked"].inc()
        self.series["repl_ack_latency"].observe(latency_ns)

    # -- read side ----------------------------------------------------------

    def __getattr__(self, key: str) -> Any:
        series = self.__dict__.get("series")
        if series is None or key not in series:
            raise AttributeError(key)
        return SERIES[key].read(series[key])

    def to_dict(self) -> Dict[str, object]:
        return {key: row.read(self.series[key])
                for key, row in SERIES.items() if row.in_global}


# -- the ``metrics`` / ``--metrics-dump`` documents ---------------------------

def _runtime_counters(service: "TerpService") -> Dict[str, Any]:
    counters = service.lib.runtime.counters
    return {name: getattr(counters, name) for name in RUNTIME_FIELDS}


def metrics_report(service: "TerpService", *, raw: bool,
                   session: Optional["Session"]) -> Dict[str, Any]:
    """The ``metrics`` op's payload, for the asking ``session``."""
    out: Dict[str, Any] = {
        "global": service.metrics.to_dict(),
        "sessions": len(service.sessions),
        "runtime": _runtime_counters(service),
        "arch_cases": {name: getattr(service.engine.cases, name)
                       for name in ARCH_CASE_FIELDS},
        "audit": service.obs.audit.summary(),
        "trace": service.obs.tracer.stats(),
    }
    if service.shard_index is not None:
        out["shard"] = service.shard_index
    if raw:
        # The full instrument registry (counters, gauges, and
        # histograms *with buckets*): what the cluster router fans
        # out for, so it can merge latency buckets exactly instead of
        # averaging percentiles.
        out["registry"] = service.obs.registry.to_dict()
    if service.recovery_report is not None:
        out["recovery"] = service.recovery_report.to_dict()
    if session is not None:
        out["session"] = session.metrics.to_dict()
    return out


def observability_dump(service: "TerpService") -> Dict[str, Any]:
    """The full registry/audit/trace state as one document — the
    payload of ``--metrics-dump`` and of embedders that want
    everything at once."""
    return service.obs.dump(extra={
        "service": service.metrics.to_dict(),
        "shard": service.shard_index,
        "sessions": len(service.sessions),
        "runtime": _runtime_counters(service),
    })

"""The run shape every workload shares, and the metrics it yields.

set-up (timed) → warm-up (one slice) → about one measured slice per
second → tenants stop → correctness checks → teardown.  Between two
slices the tenants are parked (each finishes its cycle and waits), so
no cycle straddles a boundary, the daemon is sampled from outside while
idle, and what crossed the loopback interface during a slice is exactly
what the slice's completed operations cost.

Two kinds of number come out of a slice.  **Costs per operation**
(bytes and packets on the wire) do not depend on how fast the host
happens to run; the run reports the median of its slices, and they carry
the regression bounds.  **Timings** (rates, latencies, CPU time) do: the
sandbox's CPUs lose a third to a half of their speed for seconds to
minutes at a time, which only ever makes a slice slower, so the run
reports the value at the best decile of its slices (the second best of
twelve) — and even that is not steady enough here to carry a bound
(README, *Steadiness*).  All of them come from untraced slices; a
``--trace 1`` run turns the span recorder on for every second slice.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import statistics
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.service.client import SyncTerpClient

from . import checks, probes
from .spans import SpanRecorder, self_time_by_name
from .topology import (
    Topology, cpu_seconds, loopback_counters, pin_to_one_cpu,
    rss_high_water_mib, self_cpu_seconds)
from .workloads import (
    BURST, HOLDER_BUDGET_US, PMO_BYTES, SMALL, TENANTS, WORKLOADS,
    CycleTenant, Gate, HolderTenant, ReaderTenant, Tenant, Workload,
    pick_names, populate, tenant_rng)

ROOT = Path(__file__).resolve().parents[2]
#: Scratch space lives inside the checkout (the benchmark contract
#: forbids writing anywhere else); it is git-ignored and removed after
#: every run.
TMP_ROOT = ROOT / ".terpbench-tmp"
MIN_SLICES = 5
#: What a tenant waits for and what serving it costs in time: every
#: run measures and prints them, but on this class of host none is
#: steady enough to carry a bound (README, *Steadiness*), so
#: ``BENCHMARK.json`` lists them with the per-layer metrics.
TIMINGS = ("ops_per_s", "cycle_p50_us", "cycle_p95_us", "psync_p50_us",
           "psync_p95_us", "read_p50_us", "read_p95_us", "tew_mean_us",
           "server_cpu_us_per_op")
#: which slice speaks for the run: 0.0 is the single best, 0.5 the median
QUIET_QUANTILE = 0.1
BASE_SLICES = 4
#: the single round-trip ops of a cycle (the write burst overlaps 8)
SINGLE_OPS = ("attach", "psync", "read", "detach")

Metrics = Dict[str, Tuple[float, str]]
_now = time.perf_counter_ns


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(p / 100.0 * len(ordered) + 0.5)) - 1))
    return float(ordered[rank])


def quiet(values: Sequence[float], better: str = "lower") -> float:
    """The per-slice value at the best decile: what the program does
    when the host is not taking cycles away (see the module docstring)."""
    if not values:
        return 0.0
    ordered = sorted(values, reverse=(better == "higher"))
    return float(ordered[round(QUIET_QUANTILE * (len(ordered) - 1))])


def _spin_ms() -> float:
    blob = bytes(range(256)) * 4096
    start = _now()
    acc = 0
    for i in range(200_000):
        acc += i & 7
    for _ in range(20):
        acc ^= zlib.crc32(blob)
    return (_now() - start) / 1e6


def calibrate(spins: int = 25) -> float:
    """How fast this host is right now, independent of the program: a
    fixed spin (pure-Python loop + crc32 over 1 MiB) repeated ``spins``
    times, best decile, in ms."""
    return quiet([_spin_ms() for _ in range(spins)])


class Session:
    """One started topology with its populated PMOs and two connected
    tenants.  ``setup_s`` covers spawn → ports up → PMOs created and
    populated → tenants connected."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        TMP_ROOT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
        self.topology = Topology(workload.topology, self.tmp)
        self.tenants: List[Tenant] = []
        self.gate = Gate()
        self.admin: Optional[SyncTerpClient] = None
        self.pids: List[int] = []
        start = _now()
        try:
            self._setup(seed)
        except BaseException:
            self.close()
            raise
        self.setup_s = (_now() - start) / 1e9

    def _setup(self, seed: int) -> None:
        workload = self.workload
        port = self.topology.start().port
        self.pids = self.topology.server_pids()
        self.admin = SyncTerpClient(port=port, user="bench-admin").connect()
        setup_rng = random.Random(f"terpbench/{seed}/setup")
        names = pick_names(setup_rng)
        self.tenants = [
            TENANTS[role](index, port, tenant_rng(seed, index),
                          workload.variant)
            for index, role in enumerate(workload.roles)]
        regions = populate(self.admin, setup_rng, self.tenants,
                           workload.shared_pmo) \
            if workload.variant == "page" else []
        for tenant in self.tenants:
            tenant.gate = self.gate
            tenant.connect()
            tenant.setup(names, regions)

    @property
    def tenant_pmos(self) -> List[str]:
        """PMO names whose windows count as tenant exposure (the
        holder's are excluded)."""
        return sorted({t.pmo for t in self.tenants
                       if isinstance(t, CycleTenant)})

    def snapshot(self) -> Dict[str, Any]:
        """What the outside can see at a slice boundary."""
        snap: Dict[str, Any] = {
            "t_ns": _now(),
            "cpu_s": cpu_seconds(self.pids),
            "client_cpu_s": self_cpu_seconds(),
            "metrics": self.admin.metrics(),
        }
        if self.workload.topology == "replicated":
            snap["repl"] = self.admin.call("repl_status")
        if any(isinstance(t, HolderTenant) for t in self.tenants):
            # Drained every slice so the daemon's 65 536-event audit
            # ring never wraps under the forced-detach stream.
            snap["forced"] = self.admin.trace(
                limit=16384, kind="forced-detach")["audit"]
        return snap

    def park_tenants(self) -> None:
        """Returns once every live tenant has finished its cycle and
        waits at the gate."""
        self.gate.close(sum(t.is_alive() for t in self.tenants))

    def stop_tenants(self) -> None:
        for tenant in self.tenants:
            tenant.request_stop()
        self.gate.open()
        for tenant in self.tenants:
            if tenant.is_alive():
                tenant.join(timeout=30.0)

    def close(self) -> None:
        try:
            self.stop_tenants()
            if self.admin is not None:
                self.admin.close()
        finally:
            self.topology.stop()
            shutil.rmtree(self.tmp, ignore_errors=True)
            try:
                TMP_ROOT.rmdir()
            except OSError:
                pass              # another run's scratch is still there


@dataclass
class Window:
    """The raw material of one measured window: ``snaps[k]`` and
    ``snaps[k + 1]`` bracket slice ``k``, both taken with the tenants
    parked."""

    snaps: List[Dict[str, Any]]
    #: per slice: when the tenants were let go and when called back
    spans_ns: List[Tuple[int, int]]
    #: per slice: loopback (bytes, packets) between letting the tenants
    #: go and the last of them parking
    wire: List[Tuple[int, int]]
    traced: List[bool]
    recorder: SpanRecorder

    def bounds(self, k: int) -> Tuple[int, int]:
        return self.spans_ns[k]

    def slices(self, traced: bool) -> List[int]:
        return [k for k, on in enumerate(self.traced) if on == traced]


def slice_plan(seconds: float) -> Tuple[int, float]:
    """``(slices, seconds per slice)``: about one second each, never
    fewer than five (a smoke run's are 0.3 s)."""
    slices = max(MIN_SLICES, round(seconds))
    return slices, seconds / slices


def measure(session: Session, slices: int, slice_s: float, *,
            trace: bool = False) -> Window:
    """Warm up for one slice, then measure ``slices`` of them, parking
    the tenants in between; with ``trace`` every second slice runs with
    the span recorder on."""
    recorder = SpanRecorder()
    for tenant in session.tenants:
        tenant.start()
    time.sleep(slice_s)
    session.park_tenants()
    window = Window([session.snapshot()], [], [], [], recorder)
    for k in range(slices):
        on = trace and k % 2 == 1
        for tenant in session.tenants:
            tenant.recorder = recorder if on else None
        before = loopback_counters()
        start = _now()
        session.gate.open()
        time.sleep(slice_s)
        end = _now()
        session.park_tenants()
        after = loopback_counters()
        window.spans_ns.append((start, end))
        window.wire.append((after[0] - before[0], after[1] - before[1]))
        window.traced.append(on)
        window.snaps.append(session.snapshot())
    session.stop_tenants()
    return window


# -- reading a window ----------------------------------------------------------

def _rows(tenants: Sequence[Tenant], roles: Tuple[type, ...],
          lo: int, hi: int) -> List[Tuple[Tenant, Tuple[int, ...]]]:
    return [(t, row) for t in tenants if isinstance(t, roles)
            for row in t.samples if lo <= row[0] < hi]


def _column(tenants: Sequence[Tenant], role: type, op: str,
            lo: int, hi: int) -> List[float]:
    """Per-cycle ns of one op (``cycle`` = the whole cycle) in µs."""
    out = []
    for tenant, row in _rows(tenants, (role,), lo, hi):
        index = 2 if op == "cycle" else 3 + tenant.OPS.index(op)
        out.append(row[index] / 1e3)
    return out


def _ops(tenants: Sequence[Tenant], lo: int, hi: int) -> int:
    return sum(row[1] for _, row in _rows(tenants, (Tenant,), lo, hi))


def _ops_per_s(tenants: Sequence[Tenant], lo: int, hi: int) -> float:
    return _ops(tenants, lo, hi) * 1e9 / (hi - lo)


def _read_samples(tenants: Sequence[Tenant], lo: int, hi: int
                  ) -> List[float]:
    """Client-side read latency: the reader's burst ÷ 8 where there is
    a reader, the writer's single read otherwise."""
    if any(isinstance(t, ReaderTenant) for t in tenants):
        return [v / BURST for v in
                _column(tenants, ReaderTenant, "read_burst", lo, hi)]
    return _column(tenants, CycleTenant, "read", lo, hi)


def _tew_us(a: Dict[str, Any], b: Dict[str, Any],
            pmos: Sequence[str]) -> float:
    """Δheld_total ÷ Δwindows over the tenants' PMOs between snapshots."""
    def total(snap: Dict[str, Any], key: str) -> int:
        per_pmo = snap["metrics"]["audit"]["per_pmo"]
        return sum(per_pmo.get(p, {}).get(key, 0) for p in pmos)
    windows = total(b, "windows") - total(a, "windows")
    held = total(b, "held_total_ns") - total(a, "held_total_ns")
    return held / windows / 1e3 if windows else 0.0


def slice_metrics(session: Session, window: Window
                  ) -> Tuple[Metrics, Dict[str, int], Dict[str, List[float]]]:
    """Everything computed slice by slice over the untraced slices —
    costs per operation (median), timings (best decile), memory — with
    the sample count behind each percentile and every per-slice series."""
    tenants = session.tenants
    per_slice: Dict[str, List[float]] = {}
    counts: Dict[str, int] = {}

    def add(name: str, value: float) -> None:
        per_slice.setdefault(name, []).append(value)

    for k in window.slices(traced=False):
        lo, hi = window.bounds(k)
        a, b = window.snaps[k], window.snaps[k + 1]
        add("ops_per_s", _ops_per_s(tenants, lo, hi))
        for stem, samples in (
                ("cycle", _column(tenants, CycleTenant, "cycle", lo, hi)),
                ("psync", _column(tenants, CycleTenant, "psync", lo, hi)),
                ("read", _read_samples(tenants, lo, hi))):
            for p in (50, 95):
                name = f"{stem}_p{p}_us"
                add(name, percentile(samples, p))
                counts[name] = counts.get(name, 0) + len(samples)
        add("tew_mean_us", _tew_us(a, b, session.tenant_pmos))
        # Both snapshots found the tenants parked, so every cycle of
        # the slice — and the CPU and the traffic it cost — lies
        # between them, the cycles still running at ``hi`` included.
        ops = max(1, _ops(tenants, a["t_ns"], b["t_ns"]))
        add("server_cpu_us_per_op", (b["cpu_s"] - a["cpu_s"]) * 1e6 / ops)
        wire_bytes, wire_packets = window.wire[k]
        add("wire_bytes_per_op", wire_bytes / ops)
        add("wire_packets_per_op", wire_packets / ops)
    metrics: Metrics = {
        name: (quiet(per_slice[name]), "us") for name in TIMINGS}
    metrics["ops_per_s"] = (quiet(per_slice["ops_per_s"], "higher"), "1/s")
    metrics["wire_bytes_per_op"] = (
        statistics.median(per_slice["wire_bytes_per_op"]), "B")
    metrics["wire_packets_per_op"] = (
        statistics.median(per_slice["wire_packets_per_op"]), "count")
    metrics["server_rss_mb"] = (rss_high_water_mib(session.pids), "MiB")
    return metrics, counts, per_slice


def overshoots_us(window: Window) -> List[float]:
    """``duration − 25 ms`` of every forced detach in the window."""
    seen: Dict[int, float] = {}
    lo_seq = max((e["seq"] for e in window.snaps[0].get("forced", [])),
                 default=0)
    for snap in window.snaps[1:]:
        for event in snap.get("forced", []):
            if event["seq"] > lo_seq and event.get("duration_ns"):
                seen[event["seq"]] = \
                    event["duration_ns"] / 1e3 - HOLDER_BUDGET_US
    return list(seen.values())


def client_op_p50s(session: Session, window: Window) -> Dict[str, float]:
    lo, hi = window.snaps[0]["t_ns"], window.snaps[-1]["t_ns"]
    return {op: percentile(
        _column(session.tenants, CycleTenant, op, lo, hi), 50)
        for op in CycleTenant.OPS}


def live_layers(session: Session, window: Window) -> Metrics:
    """Per-layer metrics visible from outside during the window."""
    tenants = session.tenants
    first, last = window.snaps[0], window.snaps[-1]
    lo, hi = first["t_ns"], last["t_ns"]
    span_s = (hi - lo) / 1e9
    ops = max(1, _ops(tenants, lo, hi))
    g0, g1 = first["metrics"]["global"], last["metrics"]["global"]

    def delta(key: str) -> float:
        return float(g1.get(key, 0) - g0.get(key, 0))

    out: Metrics = {}
    p50s = client_op_p50s(session, window)
    for op, value in p50s.items():
        out[f"service.client.{op}_p50_us"] = (value, "us")
    out["service.client.cycle_p99_us"] = (percentile(
        _column(tenants, CycleTenant, "cycle", lo, hi), 99), "us")
    out["service.client.cpu_us_per_op"] = (
        (last["client_cpu_s"] - first["client_cpu_s"]) * 1e6 / ops, "us")
    out["service.client.retries"] = (
        float(sum(t.reconnects for t in tenants)), "count")

    # The daemon's latency summaries are lifetime values (set-up and
    # warm-up included); only its counters can be differenced.
    request = g1["request_latency"]
    out["service.server.request_p50_us"] = (request["p50_us"], "us")
    out["service.server.request_p99_us"] = (request["p99_us"], "us")
    out["service.server.requests"] = (delta("requests"), "count")
    out["service.server.errors"] = (delta("errors"), "count")
    out["service.server.outside_us"] = (
        statistics.fmean(p50s[op] for op in SINGLE_OPS)
        - request["p50_us"], "us")

    arch = last["metrics"]["arch_cases"]
    arch0 = first["metrics"]["arch_cases"]
    out["arch.cond_engine.silent_pct"] = (
        float(last["metrics"]["runtime"]["silent_percent"]), "%")
    for key in ("sweep_detaches", "sweep_randomizes"):
        out[f"arch.cond_engine.{key}"] = (
            float(arch[key] - arch0[key]), "count")

    out["pmo.store.scrub_pages_per_s"] = (
        delta("scrub_pages_verified") / span_s, "1/s")

    repl = last.get("repl")
    if repl:
        repl0 = first["repl"]
        for key in ("shipped", "acked", "dropped"):
            out[f"replication.{key}"] = (
                float(repl[key] - repl0[key]), "count")
        out["replication.lag_max"] = (
            float(max(s["repl"]["lag"] for s in window.snaps)), "count")

    sweep = g1["sweep_latency"]
    out["service.sweeping.sweep_p50_us"] = (sweep["p50_us"], "us")
    out["service.sweeping.sweep_p99_us"] = (sweep["p99_us"], "us")
    out["service.sweeping.sweeps_per_s"] = (
        delta("sweep_runs") / span_s, "1/s")
    out["service.sweeping.forced_per_s"] = (
        delta("forced_detaches") / span_s, "1/s")
    over = overshoots_us(window)
    out["service.sweeping.overshoot_max_us"] = (max(over, default=0.0),
                                                "us")
    out["tew_overshoot_p50_us"] = (percentile(over, 50), "us")
    out["tew_overshoot_p95_us"] = (percentile(over, 95), "us")

    a0, a1 = first["metrics"]["audit"], last["metrics"]["audit"]
    out["obs.audit_events"] = (float(a1["events"] - a0["events"]),
                               "count")
    out["obs.trace_recorded"] = (float(
        last["metrics"]["trace"]["recorded"]
        - first["metrics"]["trace"]["recorded"]), "count")

    shards = last["metrics"].get("cluster", {}).get("per_shard_requests")
    if shards:
        out["cluster.shard_skew"] = (
            max(shards.values()) / max(1, min(shards.values())), "ratio")
    return out


def router_extras(session: Session, seed: int) -> Metrics:
    """Cluster only, after the window: what a batch frame costs when it
    splits across two shards instead of one, and what the aggregated
    ``metrics`` fan-out costs."""
    admin = session.admin
    names = pick_names(random.Random(f"terpbench/{seed}/router"),
                       prefix="x")
    oids = []
    for name in names:
        admin.create(name, PMO_BYTES)
        oids.append(admin.pmalloc(name, SMALL).pack())
        admin.attach(name)

    def batch_us(targets: List[int]) -> float:
        frame = [("write", {"oid": oid, "data": b"\x5a" * SMALL})
                 for oid in targets]
        times = []
        for _ in range(200):
            start = _now()
            admin.batch(frame)
            times.append((_now() - start) / 1e3)
        return statistics.median(times)

    one = batch_us([oids[0]] * BURST)
    two = batch_us([oids[0], oids[1]] * (BURST // 2))
    for name in names:
        admin.detach(name)
    times = []
    for _ in range(20):
        start = _now()
        admin.metrics()
        times.append((_now() - start) / 1e3)
    return {"cluster.router.batch_split_us": (two - one, "us"),
            "cluster.router.batch_one_shard_us": (one, "us"),
            "cluster.aggregate.metrics_us": (statistics.median(times),
                                             "us")}


# -- one workload, start to finish -----------------------------------------------

@dataclass
class Result:
    workload: str
    seed: int
    seconds: float
    trace: int
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: Metrics = field(default_factory=dict)
    #: rates, latencies and CPU time: measured and printed on every
    #: run, bounded on none (``TIMINGS``)
    timings: Metrics = field(default_factory=dict)
    #: sample count behind each percentile metric
    samples: Dict[str, int] = field(default_factory=dict)
    #: run-trust readings, printed on every run
    host: Metrics = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    #: every per-slice series behind the end-to-end metrics
    slices: Dict[str, List[float]] = field(default_factory=dict)
    self_time: List[Tuple[str, int, int]] = field(default_factory=list)

    def to_json(self) -> Dict[str, Any]:
        """The driver's result object (last line of stdout)."""
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit)
                            in self.metrics.items()}}

    def to_record(self) -> Dict[str, Any]:
        """One line of ``results.jsonl`` (what ``compare`` reads)."""
        return {"workload": self.workload, "seed": self.seed,
                "seconds": self.seconds, "trace": self.trace,
                "loop": "closed", "clients": 2, **self.to_json(),
                "timings": {n: v for n, (v, _) in self.timings.items()},
                "samples": self.samples, "slices": self.slices,
                "host": {n: v for n, (v, _) in self.host.items()},
                "violations": self.violations}


def _base_run(workload: Workload, seed: int, slice_s: float
              ) -> Tuple[float, Dict[str, float]]:
    """The same traffic on ``base_topology`` (the workload minus its
    extra layer), briefly and untraced, inside the same run: ops/s and
    client op p50s for the derived tax metrics."""
    session = Session(dataclasses.replace(
        workload, topology=workload.base_topology), seed)
    try:
        window = measure(session, BASE_SLICES, slice_s)
        metrics, _, _ = slice_metrics(session, window)
        return metrics["ops_per_s"][0], client_op_p50s(session, window)
    finally:
        session.close()


def _derived(workload: Workload, seed: int, slice_s: float,
             ops_per_s: float, own_p50: Dict[str, float]) -> Metrics:
    """What the workload's extra layer costs against its base."""
    base_ops, base_p50 = _base_run(workload, seed, slice_s)
    if workload.topology == "replicated":
        return {"replication.tax_frac": (1.0 - ops_per_s / base_ops,
                                         "ratio"),
                "replication.tax_base_ops_per_s": (base_ops, "1/s")}
    base_op = statistics.fmean(base_p50[op] for op in SINGLE_OPS)
    own_op = statistics.fmean(own_p50[op] for op in SINGLE_OPS)
    return {"cluster.router.hop_us": (own_op - base_op, "us"),
            "cluster.router.hop_base_us": (base_op, "us")}


def run_workload(name: str, *, seed: int, seconds: float, trace: int,
                 setups: int, out: Optional[Path] = None) -> Result:
    workload = WORKLOADS[name]
    slices, slice_s = slice_plan(seconds)
    pin_to_one_cpu()
    result = Result(name, seed, seconds, trace, host={
        "host.calib_ms": (calibrate(), "ms"),
        "host.loadavg1": (os.getloadavg()[0], "load")})
    setup_times: List[float] = []
    session: Optional[Session] = None
    layers: Metrics = {}
    try:
        # Set-up is repeated and its best decile reported (the second
        # best of nine), so a slow phase of the host does not read as a
        # set-up regression; the last one is kept.
        for _ in range(max(1, setups)):
            if session is not None:
                session.close()
            session = Session(workload, seed)
            setup_times.append(session.setup_s)
        window = measure(session, slices, slice_s, trace=bool(trace))
        e2e, counts, series = slice_metrics(session, window)
        e2e["setup_s"] = (quiet(setup_times), "s")
        result.timings = {metric: e2e.pop(metric) for metric in TIMINGS}
        result.slices = series
        ops_series = series["ops_per_s"]
        result.host["bench.slice_cv"] = (
            statistics.pstdev(ops_series) / statistics.fmean(ops_series),
            "ratio")
        if trace:
            layers = {**live_layers(session, window), **result.timings}
            traced_ops = [_ops_per_s(session.tenants, *window.bounds(k))
                          for k in window.slices(traced=True)]
            layers["bench.trace_overhead_frac"] = (
                1.0 - quiet(traced_ops, "higher")
                / result.timings["ops_per_s"][0], "ratio")
            if workload.topology == "cluster":
                layers.update(router_extras(session, seed))
        result.violations = checks.run(session)
        done = sum(row[1] for t in session.tenants for row in t.samples)
        result.failed = sum(t.failed_ops for t in session.tenants)
        result.attempted = max(1, done + result.failed)
        for tenant in session.tenants:
            result.violations.extend(tenant.errors)
        own_p50 = client_op_p50s(session, window)
        counts["service.client.cycle_p99_us"] = sum(
            len(t.samples) for t in session.tenants
            if isinstance(t, CycleTenant))
    finally:
        if session is not None:
            session.close()
    if result.violations:
        result.correct = False
        result.failed = result.attempted
    result.samples = counts
    if not trace:
        result.metrics = e2e
        return result

    if workload.base_topology is not None:
        layers.update(_derived(workload, seed, slice_s,
                               result.timings["ops_per_s"][0], own_p50))
    recorder = window.recorder
    layers.update(probes.run_all(workload.variant, seed, recorder,
                                 TMP_ROOT))
    layers.update(result.host)
    result.self_time = self_time_by_name(recorder.spans)
    if out is not None:
        recorder.write(out / f"trace-{name}.jsonl")
    result.metrics = layers
    return result

"""terpd closed-loop throughput with journal shipping on vs off.

The exact workload of ``test_service_file_backend`` — the same tenant
fleet, rounds, pipeline depth, and sloth on a durable ``--pool-dir``
pool — run twice: once unreplicated (the control), once shipping
every committed journal batch semi-synchronously to a live warm
standby.  Semi-sync means each acked ``psync`` waited for the
standby's apply-ack, so the replicated run pays one local TCP round
trip per commit batch on top of the file backend's fsync barriers.

A sampler thread polls ``repl_status`` throughout the replicated run
and the report carries the lag distribution (batches shipped but not
yet acked; p99 and max).  The report lands in
``BENCH_replication.json`` (schema ``terp-repl-bench/1``) and CI
gates its *replicated* throughput against the committed baseline's
declared floor — shipping is allowed to cost a little versus the
unreplicated file backend, but not to fall under the floor the
acceptance criteria pin (within 10% of the file-backend baseline
floor).

Run (benchmark tier)::

    PYTHONPATH=src python -m pytest benchmarks/test_service_replication.py -q -s
"""

import json
import os
import pathlib
import tempfile
import threading
import time

from benchmarks.conftest import run_once
from benchmarks.test_service_file_backend import FILE_SESSION_EW_MS
from benchmarks.test_service_throughput import (
    PIPELINE_DEPTH, ROUNDS, SESSIONS, SLOW_ROUNDS, WARMUP_ROUNDS,
    _drive)
from repro.obs.registry import Histogram
from repro.replication import StandbyDaemon
from repro.service.client import SyncTerpClient
from repro.service.server import ServiceThread, TerpService

#: Where the stable-schema report lands (CI uploads + compares this).
BENCH_OUT = pathlib.Path(os.environ.get(
    "TERP_BENCH_REPL_OUT",
    pathlib.Path(__file__).resolve().parent.parent /
    "BENCH_replication.json"))


class _LagSampler:
    """Poll ``repl_status`` on a side connection during the drive."""

    def __init__(self, port: int, period_s: float = 0.005) -> None:
        self._port = port
        self._period_s = period_s
        self._stop = threading.Event()
        self.samples = []
        self._thread = threading.Thread(target=self._loop,
                                        daemon=True)

    def __enter__(self) -> "_LagSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _loop(self) -> None:
        with SyncTerpClient(port=self._port, user="lagprobe") as probe:
            while not self._stop.is_set():
                status = probe.call("repl_status")
                self.samples.append(int(status.get("lag", 0)))
                time.sleep(self._period_s)

    def percentile(self, pct: float) -> int:
        if not self.samples:
            return 0
        ordered = sorted(self.samples)
        return ordered[int(pct / 100.0 * (len(ordered) - 1))]


def _run_leg(pool: str, cycle_hist: Histogram, *,
             replicate_to=None, timed=None):
    """One drive over a fresh durable pool; returns the leg report."""
    service = TerpService(
        port=0, session_ew_ns=FILE_SESSION_EW_MS * 1_000_000,
        sweep_period_ns=5_000_000, pool_dir=pool,
        replicate_to=replicate_to)
    with ServiceThread(service) as svc:
        if replicate_to is not None:
            with _LagSampler(svc.bound_port) as sampler:
                elapsed, forced = timed(svc.bound_port, cycle_hist)
        else:
            sampler = None
            elapsed, forced = _drive(svc.bound_port, cycle_hist)
        with SyncTerpClient(port=svc.bound_port,
                            user="root") as probe:
            report = probe.metrics()
            repl = probe.call("repl_status")
    return elapsed, forced, report, repl, sampler


def test_service_replication_throughput(benchmark):
    control_hist = Histogram("bench_repl_off_cycle_ns",
                             "tenant cycle latency (shipping off)")
    cycle_hist = Histogram("bench_repl_on_cycle_ns",
                           "tenant cycle latency (shipping on)")
    with tempfile.TemporaryDirectory(prefix="terp-bench-repl-") as root:
        # Control leg: the plain durable pool, shipping off.
        off_elapsed, off_forced, off_report, off_repl, _ = _run_leg(
            os.path.join(root, "off"), control_hist)
        # Replicated leg: a live standby, semi-sync shipping, timed
        # under pytest-benchmark (this is the gated number).
        standby = StandbyDaemon(os.path.join(root, "standby"))
        repl_port = standby.start()
        try:
            elapsed, forced, report, repl, sampler = _run_leg(
                os.path.join(root, "on"), cycle_hist,
                replicate_to=f"127.0.0.1:{repl_port}",
                timed=lambda port, hist: run_once(
                    benchmark, _drive, port, hist))
        finally:
            standby.stop()

    stats = report["global"]
    audit = report["audit"]
    requests = stats["requests"]
    off_requests = off_report["global"]["requests"]
    off_rps = off_requests / off_elapsed
    on_rps = requests / elapsed
    bench_report = {
        "schema": "terp-repl-bench/1",
        "config": {
            "backend": "file",
            "replication": "semi-sync",
            "sessions": SESSIONS + 1,
            "rounds": ROUNDS,
            "warmup_rounds": WARMUP_ROUNDS,
            "pipeline_depth": PIPELINE_DEPTH,
            "session_ew_ms": FILE_SESSION_EW_MS,
        },
        "throughput": {
            "requests": requests,
            "elapsed_s": round(elapsed, 3),
            "requests_per_s": round(on_rps, 1),
        },
        "shipping_off": {
            "requests": off_requests,
            "elapsed_s": round(off_elapsed, 3),
            "requests_per_s": round(off_rps, 1),
            "overhead_pct": round(100.0 * (1.0 - on_rps / off_rps), 1),
        },
        "replication": {
            "shipped": repl["shipped"],
            "acked": repl["acked"],
            "dropped": repl["dropped"],
            "reconnects": repl["reconnects"],
            "lag_p99": sampler.percentile(99),
            "lag_max": max(sampler.samples, default=0),
            "lag_samples": len(sampler.samples),
        },
        "latency_us": {
            "cycle_p50": round((cycle_hist.percentile(50) or 0) / 1e3, 1),
            "cycle_p99": round((cycle_hist.percentile(99) or 0) / 1e3, 1),
            "request_p50": stats["request_latency"]["p50_us"],
            "request_p99": stats["request_latency"]["p99_us"],
            "sweep_p99": stats["sweep_latency"]["p99_us"],
        },
        "exposure": {
            "forced_detaches": stats["forced_detaches"],
            "attaches": stats["attaches"],
            "detaches": stats["detaches"],
            "tew_mean_us": round(audit["held_mean_ns"] / 1e3, 1),
            "tew_max_us": round(audit["held_max_ns"] / 1e3, 1),
            "audit_events": audit["events"],
        },
    }
    BENCH_OUT.write_text(json.dumps(bench_report, indent=2) + "\n",
                         encoding="utf-8")
    print()
    print(json.dumps(bench_report, indent=2))

    # Shape assertions: the replicated leg really replicated — every
    # shipped batch acked, nothing degraded to drop, no reconnect
    # storms — and the workload shape matches the other service
    # benches.
    cycle_requests = SESSIONS * ROUNDS * (PIPELINE_DEPTH + 4)
    assert requests >= cycle_requests
    assert on_rps > 0 and off_rps > 0
    assert cycle_hist.count == SESSIONS * (ROUNDS - WARMUP_ROUNDS)
    assert forced and forced[0] >= SLOW_ROUNDS
    assert off_repl == {"enabled": False}
    assert repl["enabled"] and repl["connected"]
    # Group commit coalesces concurrent psyncs into one shipped
    # batch, so the batch count sits well under the psync count but
    # must still scale with the round count.
    assert repl["shipped"] >= ROUNDS
    assert repl["acked"] == repl["shipped"]
    assert repl["dropped"] == 0
    assert repl["lag"] == 0
    assert sampler.samples, "lag sampler never ran"

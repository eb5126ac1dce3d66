"""terpd closed-loop throughput over the durable file backend.

The exact workload of ``test_service_throughput`` — the same tenant
fleet, rounds, pipeline depth, and sloth — but the daemon runs on a
``--pool-dir`` durable pool, so every ``psync`` pays the real price:
dirty-page CRC trailers, the double-write journal, and two ``fsync``
barriers.  The report lands in ``BENCH_service_file.json`` (same
``terp-service-bench/1`` schema, ``config.backend = "file"``) and CI
gates it against its *own* committed baseline — durability is allowed
to cost throughput versus the memory backend, but not to regress
against itself.

Run (benchmark tier)::

    PYTHONPATH=src python -m pytest benchmarks/test_service_file_backend.py -q -s
"""

import json
import os
import pathlib
import tempfile

from benchmarks.conftest import run_once
from benchmarks.test_service_throughput import (
    PIPELINE_DEPTH, ROUNDS, SESSIONS, SLOW_ROUNDS, WARMUP_ROUNDS,
    _drive)
from repro.obs.registry import Histogram
from repro.service.client import SyncTerpClient
from repro.service.server import ServiceThread, TerpService

#: Where the stable-schema report lands (CI uploads + compares this).
BENCH_OUT = pathlib.Path(os.environ.get(
    "TERP_BENCH_FILE_OUT",
    pathlib.Path(__file__).resolve().parent.parent /
    "BENCH_service_file.json"))

#: A durable psync pays two fsync barriers, so a well-behaved cycle
#: runs several times longer than on the memory backend; the session
#: budget scales with it or the sweeper would force-close tenants
#: mid-cycle.  (The sloth still sleeps past this comfortably — its
#: wait deadline is 10x the memory-backend budget, 250ms.)
FILE_SESSION_EW_MS = 100


def test_service_file_backend_throughput(benchmark):
    cycle_hist = Histogram("bench_file_cycle_ns",
                           "tenant cycle latency (file backend)")
    with tempfile.TemporaryDirectory(prefix="terp-bench-pool-") as pool:
        service = TerpService(
            port=0, session_ew_ns=FILE_SESSION_EW_MS * 1_000_000,
            sweep_period_ns=5_000_000, pool_dir=pool)
        with ServiceThread(service) as svc:
            elapsed, forced = run_once(benchmark, _drive,
                                       svc.bound_port, cycle_hist)
            with SyncTerpClient(port=svc.bound_port,
                                user="root") as probe:
                report = probe.metrics()

    stats = report["global"]
    audit = report["audit"]
    requests = stats["requests"]
    bench_report = {
        "schema": "terp-service-bench/1",
        "config": {
            "backend": "file",
            "sessions": SESSIONS + 1,
            "rounds": ROUNDS,
            "warmup_rounds": WARMUP_ROUNDS,
            "pipeline_depth": PIPELINE_DEPTH,
            "session_ew_ms": FILE_SESSION_EW_MS,
        },
        "throughput": {
            "requests": requests,
            "elapsed_s": round(elapsed, 3),
            "requests_per_s": round(requests / elapsed, 1),
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
        "durability": {
            "scrub_pages_verified": stats["scrub_pages_verified"],
            "scrub_pages_repaired": stats["scrub_pages_repaired"],
            "pmos_quarantined": stats["pmos_quarantined"],
        },
    }
    BENCH_OUT.write_text(json.dumps(bench_report, indent=2) + "\n",
                         encoding="utf-8")
    print()
    print(json.dumps(bench_report, indent=2))

    # Shape assertions, as for the memory backend — plus durability:
    # a healthy run verifies at-rest pages and quarantines nothing.
    cycle_requests = SESSIONS * ROUNDS * (PIPELINE_DEPTH + 4)
    assert requests >= cycle_requests
    assert bench_report["throughput"]["requests_per_s"] > 0
    assert cycle_hist.count == SESSIONS * (ROUNDS - WARMUP_ROUNDS)
    assert forced and forced[0] >= SLOW_ROUNDS
    assert stats["forced_detaches"] >= SLOW_ROUNDS
    assert audit["attaches"] >= stats["attaches"]
    assert bench_report["durability"]["scrub_pages_verified"] > 0
    assert bench_report["durability"]["pmos_quarantined"] == 0
    assert bench_report["durability"]["scrub_pages_repaired"] == 0

"""terpd closed-loop throughput: the service layer's cost of entry.

A fleet of closed-loop client sessions hammers one daemon with the
attach/write/psync/detach cycle of a persistent-memory tenant, plus a
deliberately slow tenant that sits on its exposure window until the
sweeper force-detaches it.  The bench emits ``BENCH_service.json``
(schema ``terp-service-bench/1``) — requests/s, client-side cycle
percentiles, forced-detach count, mean/max held exposure from the
audit timeline — the service-layer analogue of the paper's overhead
tables, and the series CI pins run over run.

Clock discipline: every duration in this file comes from
``time.perf_counter_ns`` — one monotonic high-resolution clock for
elapsed time, cycle latencies, and deadlines alike — and each tenant's
first ``WARMUP_ROUNDS`` cycles are excluded from the latency
population, so connection setup, allocator warmup, and interpreter
warm-in do not pollute the percentiles CI compares.

Run (benchmark tier)::

    PYTHONPATH=src python -m pytest benchmarks/test_service_throughput.py -q -s
"""

import json
import os
import pathlib
import threading
import time

from benchmarks.conftest import run_once
from repro.core.units import MIB
from repro.obs.registry import Histogram
from repro.service.client import SyncTerpClient
from repro.service.server import ServiceThread, TerpService

#: Closed-loop load: each session issues its next cycle as soon as the
#: previous one completes — throughput is offered load at saturation.
SESSIONS = 4
ROUNDS = 150
#: Cycles per tenant excluded from the latency population.
WARMUP_ROUNDS = 15
PIPELINE_DEPTH = 8

#: The slow tenant's nap comfortably exceeds the session EW budget, so
#: every one of its attaches is closed by the sweeper, not by it.
SESSION_EW_MS = 25
SLOW_ROUNDS = 4

#: Cycle-latency buckets (ns): 50us .. 1s.
CYCLE_BUCKETS_NS = (
    50_000, 100_000, 250_000, 500_000, 1_000_000, 2_500_000,
    5_000_000, 10_000_000, 25_000_000, 50_000_000, 100_000_000,
    250_000_000, 1_000_000_000,
)

#: Where the stable-schema report lands (CI uploads + compares this).
BENCH_OUT = pathlib.Path(os.environ.get(
    "TERP_BENCH_OUT",
    pathlib.Path(__file__).resolve().parent.parent /
    "BENCH_service.json"))


def _tenant_loop(port: int, idx: int, oids, errors,
                 cycle_hist: Histogram) -> None:
    """One well-behaved tenant: attach, pipelined writes, psync,
    read-back, detach — ROUNDS times, as fast as the daemon allows.
    Post-warmup cycle latencies land in the shared histogram."""
    try:
        with SyncTerpClient(port=port, user=f"tenant{idx}") as client:
            payload = bytes([0x40 + idx]) * 64
            packed = oids[idx].pack()
            for round_no in range(ROUNDS):
                t0 = time.perf_counter_ns()
                client.attach("bench")
                # Raw bytes: the client moves them over the frame's
                # binary sidecar.
                client.pipeline([("write", {"oid": packed,
                                            "data": payload})
                                 for _ in range(PIPELINE_DEPTH)])
                client.psync("bench")
                assert client.read(oids[idx], 64) == payload
                client.detach("bench")
                if round_no >= WARMUP_ROUNDS:
                    cycle_hist.observe(time.perf_counter_ns() - t0)
    except Exception as exc:            # noqa: BLE001 - report, don't hang
        errors.append((idx, exc))


def _slow_tenant(port: int, errors, forced) -> None:
    """The tenant the sweeper exists for: attaches and goes to sleep
    past its EW budget, every round."""
    try:
        with SyncTerpClient(port=port, user="sloth") as client:
            for _ in range(SLOW_ROUNDS):
                client.attach("bench")
                deadline = time.perf_counter_ns() + \
                    10 * SESSION_EW_MS * 1_000_000
                before = client.forced_detaches
                while client.forced_detaches == before:
                    if time.perf_counter_ns() > deadline:
                        raise AssertionError("sweeper never fired")
                    time.sleep(0.005)
                    client.ping()       # forced-detach events ride replies
                # Its own detach raced the sweeper and lost: silent.
                result = client.detach("bench")
                assert result["outcome"] == "silent"
            forced.append(client.forced_detaches)
    except Exception as exc:            # noqa: BLE001
        errors.append(("sloth", exc))


def _drive(port: int, cycle_hist: Histogram):
    errors, forced = [], []
    with SyncTerpClient(port=port, user="root") as setup:
        setup.create("bench", 4 * MIB, mode=0o666)
        oids = [setup.pmalloc("bench", 64) for _ in range(SESSIONS)]
    workers = [threading.Thread(target=_tenant_loop,
                                args=(port, i, oids, errors, cycle_hist))
               for i in range(SESSIONS)]
    workers.append(threading.Thread(target=_slow_tenant,
                                    args=(port, errors, forced)))
    t0 = time.perf_counter_ns()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(120.0)
    elapsed = (time.perf_counter_ns() - t0) / 1e9
    assert errors == [], errors
    return elapsed, forced


def test_service_throughput(benchmark):
    cycle_hist = Histogram("bench_cycle_ns", "tenant cycle latency",
                           buckets=CYCLE_BUCKETS_NS,
                           reservoir_capacity=4096, seed=13)
    service = TerpService(port=0,
                          session_ew_ns=SESSION_EW_MS * 1_000_000,
                          sweep_period_ns=5_000_000)
    with ServiceThread(service) as svc:
        elapsed, forced = run_once(benchmark, _drive, svc.bound_port,
                                   cycle_hist)
        with SyncTerpClient(port=svc.bound_port, user="root") as probe:
            report = probe.metrics()

    stats = report["global"]
    audit = report["audit"]
    requests = stats["requests"]
    bench_report = {
        "schema": "terp-service-bench/1",
        "config": {
            "sessions": SESSIONS + 1,
            "rounds": ROUNDS,
            "warmup_rounds": WARMUP_ROUNDS,
            "pipeline_depth": PIPELINE_DEPTH,
            "session_ew_ms": SESSION_EW_MS,
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
    }
    BENCH_OUT.write_text(json.dumps(bench_report, indent=2) + "\n",
                         encoding="utf-8")
    print()
    print(json.dumps(bench_report, indent=2))

    # Shape assertions: the numbers must be coherent, not just present.
    cycle_requests = SESSIONS * ROUNDS * (PIPELINE_DEPTH + 4)
    assert requests >= cycle_requests
    assert bench_report["throughput"]["requests_per_s"] > 0
    assert stats["request_latency"]["p99_us"] >= \
        stats["request_latency"]["p50_us"]
    assert cycle_hist.count == SESSIONS * (ROUNDS - WARMUP_ROUNDS)
    assert bench_report["latency_us"]["cycle_p99"] >= \
        bench_report["latency_us"]["cycle_p50"]
    # The sweeper closed every one of the slow tenant's windows.
    assert forced and forced[0] >= SLOW_ROUNDS
    assert stats["forced_detaches"] >= SLOW_ROUNDS
    assert stats["sweep_runs"] > 0
    # The audit timeline saw the same story the counters tell: every
    # attach was audited, and the slow tenant's held windows (closed by
    # force at ~EW budget) dominate the maximum.
    assert audit["attaches"] >= stats["attaches"]
    assert audit["forced_detaches"] >= SLOW_ROUNDS
    assert audit["held_max_ns"] >= SESSION_EW_MS * 1_000_000

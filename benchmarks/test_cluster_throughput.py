"""Sharded terpd throughput: what the cluster buys over one process.

The same closed-loop tenant workload from ``test_service_throughput``
runs twice in one bench: first against a single in-process daemon,
then against an N-shard cluster behind the router (``--cluster N``,
default 4) — tenants' PMO names are picked so the ring spreads them
one per shard.  The bench emits ``BENCH_cluster.json`` (schema
``terp-cluster-bench/1``) with both runs' requests/s and the measured
speedup, the series CI pins run over run.

The headline claim — >=1.8x single-process requests/s at 4 shards —
is a *parallelism* claim: each shard owns its PMOs' exposure clocks
and sweeps locally, so requests to different shards execute on
different cores with no shared lock.  The assertion is therefore
gated on the runner actually having cores to parallelise over
(``os.cpu_count() >= 4``); on smaller runners the bench still runs
both legs, records the measured ratio, and asserts only that the
cluster serves the full workload correctly.

Run (benchmark tier)::

    PYTHONPATH=src python -m pytest benchmarks/test_cluster_throughput.py -q -s
"""

import json
import os
import pathlib
import threading
import time

from benchmarks.conftest import run_once
from repro.cluster.ring import HashRing
from repro.cluster.supervisor import ClusterSupervisor
from repro.core.units import MIB
from repro.service.client import SyncTerpClient
from repro.service.server import ServiceThread, TerpService

SESSIONS = 4
ROUNDS = 120
PIPELINE_DEPTH = 8
#: Requests one tenant cycle issues: attach + writes + psync + read
#: + detach.
CYCLE_REQUESTS = PIPELINE_DEPTH + 4

#: Generous budget: this bench measures throughput, not sweeping.
SESSION_EW_MS = 2_000
RING_SEED = 2022

BENCH_OUT = pathlib.Path(os.environ.get(
    "TERP_BENCH_OUT",
    pathlib.Path(__file__).resolve().parent.parent /
    "BENCH_cluster.json"))


def _tenant_names(shards: int) -> "list[str]":
    """One PMO name per tenant, placed so tenant ``i``'s PMO lives on
    shard ``i % shards`` — every shard serves load, by construction
    rather than by luck (as the chaos engine's ``shards`` workload
    places its own)."""
    ring = HashRing(range(shards), seed=RING_SEED)
    names = []
    for idx in range(SESSIONS):
        k = 0
        while True:
            name = f"cbench-{idx}-{k}"
            if ring.owner(name) == idx % shards:
                names.append(name)
                break
            k += 1
    return names


def _tenant_loop(port: int, idx: int, name: str, oids, errors) -> None:
    try:
        with SyncTerpClient(port=port, user=f"tenant{idx}") as client:
            payload = bytes([0x40 + idx]) * 64
            packed = oids[idx].pack()
            for _ in range(ROUNDS):
                client.attach(name)
                client.pipeline([("write", {"oid": packed,
                                            "data": payload})
                                 for _ in range(PIPELINE_DEPTH)])
                client.psync(name)
                assert client.read(oids[idx], 64) == payload
                client.detach(name)
    except Exception as exc:            # noqa: BLE001 - report, don't hang
        errors.append((idx, name, exc))


def _drive(port: int, names: "list[str]") -> float:
    """Run the tenant fleet against ``port``; return elapsed seconds."""
    errors: list = []
    with SyncTerpClient(port=port, user="root") as setup:
        oids = []
        for name in names:
            setup.create(name, MIB, mode=0o666)
            setup.attach(name)
            oids.append(setup.pmalloc(name, 64))
            setup.detach(name)
    workers = [threading.Thread(target=_tenant_loop,
                                args=(port, i, names[i], oids, errors))
               for i in range(SESSIONS)]
    t0 = time.perf_counter_ns()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(180.0)
    elapsed = (time.perf_counter_ns() - t0) / 1e9
    assert errors == [], errors
    return elapsed


def _run_single(names) -> "tuple[float, dict]":
    service = TerpService(port=0,
                          session_ew_ns=SESSION_EW_MS * 1_000_000,
                          sweep_period_ns=50_000_000)
    with ServiceThread(service) as svc:
        elapsed = _drive(svc.bound_port, names)
        with SyncTerpClient(port=svc.bound_port, user="root") as probe:
            report = probe.metrics()
    return elapsed, report


def _run_cluster(shards: int, names) -> "tuple[float, dict]":
    with ClusterSupervisor(shards=shards,
                           session_ew_ns=SESSION_EW_MS * 1_000_000,
                           sweep_period_ns=50_000_000) as sup:
        elapsed = _drive(sup.front_port, names)
        with SyncTerpClient(port=sup.front_port, user="root") as probe:
            report = probe.metrics()
    return elapsed, report


def test_cluster_throughput(benchmark, request):
    shards = int(request.config.getoption("--cluster"))
    names = _tenant_names(shards)
    issued = SESSIONS * ROUNDS * CYCLE_REQUESTS

    def both():
        single_s, single_report = _run_single(names)
        cluster_s, cluster_report = _run_cluster(shards, names)
        return single_s, single_report, cluster_s, cluster_report

    single_s, single_report, cluster_s, cluster_report = \
        run_once(benchmark, both)

    single_rps = issued / single_s
    cluster_rps = issued / cluster_s
    speedup = cluster_rps / single_rps
    merged = cluster_report["global"]
    audit = cluster_report["audit"]
    bench_report = {
        "schema": "terp-cluster-bench/1",
        "config": {
            "shards": shards,
            "sessions": SESSIONS,
            "rounds": ROUNDS,
            "pipeline_depth": PIPELINE_DEPTH,
            "session_ew_ms": SESSION_EW_MS,
            "cpu_count": os.cpu_count(),
        },
        "throughput": {
            "requests": issued,
            "elapsed_s": round(cluster_s, 3),
            "requests_per_s": round(cluster_rps, 1),
        },
        "single": {
            "requests": issued,
            "elapsed_s": round(single_s, 3),
            "requests_per_s": round(single_rps, 1),
        },
        "speedup_vs_single": round(speedup, 3),
        "latency_us": {
            "request_p50": merged["request_latency"]["p50_us"],
            "request_p99": merged["request_latency"]["p99_us"],
        },
        "exposure": {
            "forced_detaches": merged["forced_detaches"],
            "attaches": merged["attaches"],
            "detaches": merged["detaches"],
            "tew_max_us": round(audit["held_max_ns"] / 1e3, 1),
        },
        "cluster": {
            "per_shard_requests":
                cluster_report["cluster"]["per_shard_requests"],
            "unreachable": cluster_report["cluster"]["unreachable"],
        },
    }
    BENCH_OUT.write_text(json.dumps(bench_report, indent=2) + "\n",
                         encoding="utf-8")
    print()
    print(json.dumps(bench_report, indent=2))

    # Shape: both legs served the identical workload, fully.
    assert single_report["global"]["attaches"] >= SESSIONS * ROUNDS
    assert merged["attaches"] >= SESSIONS * ROUNDS
    assert merged["errors"] == 0
    assert bench_report["cluster"]["unreachable"] == 0
    # Every shard served real load — the ring spread the tenants.
    per_shard = bench_report["cluster"]["per_shard_requests"]
    assert len(per_shard) == shards
    assert all(count > ROUNDS for count in per_shard.values()), per_shard
    assert merged["forced_detaches"] == 0
    # The parallelism claim needs cores to parallelise over.
    if (os.cpu_count() or 1) >= 4 and shards >= 4:
        assert speedup >= 1.8, (
            f"cluster {cluster_rps:.0f} req/s vs single "
            f"{single_rps:.0f} req/s = {speedup:.2f}x < 1.8x")

"""Instrumentation must be cheap: no-op mode vs. full observability.

Two measurements, two purposes:

* **Service level (gated)** — the acceptance target.  The same
  closed-loop tenant cycle that drives the throughput bench runs
  against a terpd with observability enabled and one in no-op mode;
  the enabled run must stay within a few percent.  At this level a
  request already crosses a socket and the event loop, so the
  instrumentation's fixed per-event cost is amortised the way it is in
  production.  Best-of-two runs per mode damps scheduler noise.

* **In-process micro level (informational)** — the worst case.  The
  raw library cycle is ~40us of pure Python, so every audited event
  and recorded span is a visible fraction of it.  The ratio is printed
  and carried in the report for the trajectory to watch, with only a
  sanity ceiling asserted.

Run::

    PYTHONPATH=src python -m pytest benchmarks/test_obs_overhead.py -q -s
"""

import json
import statistics
import time

from repro.arch.cond_engine import TerpArchEngine
from repro.core.units import MIB, us
from repro.obs import Observability
from repro.pmo.api import PmoLibrary
from repro.service.client import SyncTerpClient
from repro.service.server import ServiceThread, TerpService

MICRO_CYCLES = 3000
SERVICE_CYCLES = 1000
#: Alternating noop/enabled service runs; min of each damps drift.
SERVICE_PAIRS = 3
#: Acceptance target for service-level overhead.
TARGET_PERCENT = 5.0
#: Asserted ceiling for the service-level ratio — generous next to the
#: target purely to absorb shared-runner noise.
SERVICE_MAX_RATIO = 1.20
#: Sanity ceiling for the in-process micro ratio (informational; every
#: audit event is a visible fraction of a ~40us pure-Python cycle).
MICRO_MAX_RATIO = 2.0


def _build_library(obs: Observability) -> PmoLibrary:
    engine = TerpArchEngine(us(40), capacity=32)
    lib = PmoLibrary(semantics=engine, seed=2022, strict=True, obs=obs)
    if obs.enabled:
        engine.tracer = obs.tracer
    return lib


def _micro_workload(lib: PmoLibrary) -> float:
    """Median cycle latency (seconds) of the in-process tenant cycle.

    Same comparison unit as the service measurement: the median of
    MICRO_CYCLES per-cycle timings, so throttling mid-run moves the
    tail, not the number under comparison."""
    pmo = lib.PMO_create("hot", MIB)
    oid = lib.pmalloc(pmo, 64)
    payload = b"\x5a" * 64
    lat = []
    for i in range(MICRO_CYCLES):
        t0 = time.perf_counter_ns()
        lib.tick(1_000)
        lib.attach(pmo)
        pmo.begin_tx()
        lib.write(oid, payload)
        lib.psync(pmo)
        lib.read(oid, 64)
        lib.detach(pmo)
        if i % 64 == 0:
            lib.runtime.sweep(lib.clock_ns)
        lat.append(time.perf_counter_ns() - t0)
    return statistics.median(lat) / 1e9


def _service_workload(obs_enabled: bool) -> float:
    """Median cycle latency (seconds) against a live terpd.

    The median — not the total — is the comparison unit: a scheduler
    hiccup inflates a handful of cycles and therefore the total, but
    barely moves the median of a thousand."""
    service = TerpService(port=0, obs_enabled=obs_enabled,
                          session_ew_ns=60_000_000_000,
                          sweep_period_ns=50_000_000)
    lat = []
    with ServiceThread(service) as svc:
        with SyncTerpClient(port=svc.bound_port, user="root") as setup:
            setup.create("hot", MIB, mode=0o666)
            oid = setup.pmalloc("hot", 64)
        payload = b"\x5a" * 64
        with SyncTerpClient(port=svc.bound_port, user="tenant") as client:
            for _ in range(SERVICE_CYCLES):
                t0 = time.perf_counter_ns()
                client.attach("hot")
                client.write(oid, payload)
                client.psync("hot")
                client.read(oid, 64)
                client.detach("hot")
                lat.append(time.perf_counter_ns() - t0)
    return statistics.median(lat) / 1e9


def test_obs_overhead(benchmark):
    def run_all():
        # Service level first (the gated number).  Noop and enabled
        # runs alternate and each mode keeps its best time, so neither
        # machine drift over the measurement nor a stray scheduler
        # hiccup in one run can decide the ratio on its own.
        svc_noop, svc_enabled = [], []
        for _ in range(SERVICE_PAIRS):
            svc_noop.append(_service_workload(False))
            svc_enabled.append(_service_workload(True))
        # Then the in-process micro pair, same interleaving.
        micro_noop, micro_enabled = [], []
        micro_obs = Observability()
        for _ in range(2):
            micro_noop.append(
                _micro_workload(_build_library(Observability.noop())))
            micro_enabled.append(
                _micro_workload(_build_library(micro_obs)))
        return (min(svc_noop), min(svc_enabled),
                min(micro_noop), min(micro_enabled), micro_obs)

    (svc_noop, svc_enabled, micro_noop, micro_enabled,
     micro_obs) = benchmark.pedantic(run_all, rounds=1, iterations=1)
    svc_ratio = svc_enabled / svc_noop
    micro_ratio = micro_enabled / micro_noop
    report = {
        "service": {
            "cycles": SERVICE_CYCLES,
            "noop_cycle_p50_us": round(svc_noop * 1e6, 1),
            "enabled_cycle_p50_us": round(svc_enabled * 1e6, 1),
            "overhead_percent": round(100 * (svc_ratio - 1), 2),
            "target_percent": TARGET_PERCENT,
        },
        "micro": {
            "cycles": MICRO_CYCLES,
            "noop_cycle_p50_us": round(micro_noop * 1e6, 1),
            "enabled_cycle_p50_us": round(micro_enabled * 1e6, 1),
            "overhead_percent": round(100 * (micro_ratio - 1), 2),
            "spans_recorded": micro_obs.tracer.stats()["recorded"],
            "audit_events": micro_obs.audit.summary()["events"],
        },
    }
    print()
    print(json.dumps(report, indent=2))

    # The instrumented runs actually instrumented: every cycle of both
    # enabled passes audited into the shared timeline.
    assert micro_obs.audit.summary()["attaches"] == 2 * MICRO_CYCLES
    assert micro_obs.tracer.stats()["recorded"] > 0
    assert svc_ratio < SERVICE_MAX_RATIO, (
        f"service-level observability overhead "
        f"{100 * (svc_ratio - 1):.1f}% exceeds the asserted ceiling "
        f"({100 * (SERVICE_MAX_RATIO - 1):.0f}%)")
    assert micro_ratio < MICRO_MAX_RATIO, (
        f"in-process observability overhead "
        f"{100 * (micro_ratio - 1):.1f}% exceeds the sanity ceiling "
        f"({100 * (MICRO_MAX_RATIO - 1):.0f}%)")

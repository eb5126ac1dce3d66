"""The paper's benchmarks as rows of one type, and their one stream.

Section VI gives WHISPER and SPEC CPU 2017 the same shape: a run is a
sequence of **transactions** (where MERR's manual attach/detach go),
each holding 1..k **code regions** — clusters of PMO accesses the TERP
compiler wraps in one thread exposure window — separated by PMO-free
computation, with PMO-free time between transactions sized so the
exposure rate matches the benchmark.  A :class:`Benchmark` is that
shape's calibration, and :meth:`Benchmark.thread_stream` its one
generator.

The suites differ only in their rows:

* **SPEC** (:data:`SPEC`, here) — several PMOs per benchmark (Table
  IV: mcf 4, lbm 2, imagick 3, nab 3, xz 6) of which only 1-2 are
  *active* at any time, because programs use different PMOs in
  different computation stages; stages cycle round-robin over the PMOs
  with ``actives_per_stage`` of them live.  Access is much denser than
  WHISPER's, hence tiny natural windows (MM EW avg 1-10us) and very
  high insertion frequency — which is what makes TM's overhead explode
  past 300% and MERR's average 156%.  N (OpenMP) threads iterate the
  same stages over partitioned data, sharing the PMOs.
* **WHISPER** (:data:`repro.workloads.whisper.benchmarks.WHISPER`) —
  one PMO, named after the benchmark and always active, whose burst
  contents are **measured** by running the benchmark's real persistent
  structure under a :class:`CountingPmo` (:meth:`Benchmark.measure`).

All randomness is drawn from a seeded ``numpy`` generator, so runs are
exactly reproducible.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.record import record
from repro.core.units import MIB, us
from repro.sim.events import Burst, Compute, RegionEnd, TxBegin, TxEnd
from repro.workloads.structures.counting import CountingPmo


@record(frozen=True)
class OpStats:
    """Measured per-operation access statistics."""

    accesses: float
    unique_pages: float
    write_fraction: float


@record(frozen=True)
class Benchmark:
    """Calibrated shape for one paper benchmark.

    ``window_avg_us``/``window_max_us`` — per-transaction PMO window
    (what MERR's manual insertion exposes; Tables III/IV MM columns).
    ``exposure_rate`` — exposure rate of a PMO *while its stage runs*
    (the table's per-PMO ER is ``exposure_rate * actives_per_stage /
    n_pmos``; for one PMO, the run's).  ``region_us`` — duration of one
    access cluster (sets the measured TEW).
    """

    name: str
    window_avg_us: float
    window_max_us: float
    exposure_rate: float
    region_us: float
    n_pmos: int = 1
    actives_per_stage: int = 1
    n_stages: int = 8
    pmo_size: int = 64 * MIB
    #: transactions per run when the caller names none
    ops: int = 20_000
    base_cycles_per_access: float = 8.0
    #: representative burst contents: accesses per region (over the
    #: active PMOs), pages one burst touches, its share of writes
    accesses_per_region: float = 60.0
    unique_pages: int = 4
    write_fraction: float = 0.4
    #: builds the benchmark's real structure on a PMO and returns an
    #: ``op(rng)`` running one operation; when set, the burst contents
    #: above are measured from it instead
    setup: Optional[Callable] = None

    @property
    def cycle_us(self) -> float:
        """Average full transaction cycle (window + PMO-free work)."""
        return self.window_avg_us / self.exposure_rate

    def pmo_names(self) -> List[str]:
        """One PMO is named after the benchmark; several are numbered."""
        if self.n_pmos == 1:
            return [self.name]
        return [f"{self.name}-pmo{i}" for i in range(self.n_pmos)]

    def pmo_sizes(self) -> Dict[str, int]:
        return {name: self.pmo_size for name in self.pmo_names()}

    def stage_pmos(self, stage: int) -> Tuple[str, ...]:
        """The PMOs active in ``stage`` (round-robin windows)."""
        names = self.pmo_names()
        k = self.actives_per_stage
        start = (stage * k) % len(names)
        return tuple(names[(start + i) % len(names)] for i in range(k))

    def measure(self, *, samples: int = 200, seed: int = 7) -> OpStats:
        """Run real operations and record their access statistics
        (once per benchmark, ``samples`` and ``seed`` in a process)."""
        return _measure(self, samples, seed)

    def thread_stream(self, *, ops: Optional[int] = None,
                      seed: int) -> Iterator:
        """Yield the work-event stream for one thread: ``ops``
        transactions, in ``n_stages`` stages."""
        if self.setup is None:
            accesses, pages = self.accesses_per_region, self.unique_pages
            write_fraction = self.write_fraction
        else:
            stats = self.measure()
            accesses, write_fraction = stats.accesses, stats.write_fraction
            pages = max(1, int(round(stats.unique_pages)))
        rng = np.random.default_rng(seed)
        ops = self.ops if ops is None else ops
        region_ns = us(self.region_us)
        # Window length distribution: Beta-shaped between ~0 and the
        # observed max, with the observed mean.
        mean_frac = min(0.95, self.window_avg_us / self.window_max_us)
        beta_a = 2.0
        beta_b = beta_a * (1.0 - mean_frac) / mean_frac
        # PMO-free time between transactions keeps ER on target.
        outside_mean_ns = us(self.cycle_us - self.window_avg_us)
        ops_per_stage = max(1, ops // self.n_stages)
        for op in range(ops):
            pmos = self.stage_pmos(op // ops_per_stage)
            window_ns = max(region_ns, int(
                us(self.window_max_us) * rng.beta(beta_a, beta_b)))
            n_regions = max(1, int(round(window_ns / (4.0 * region_ns))))
            gap_each = max(0, window_ns - n_regions * region_ns) // n_regions
            yield TxBegin.of(*pmos)
            for _ in range(n_regions):
                # A region touches each active PMO (e.g. lbm reads the
                # source lattice and writes the destination).
                for pmo in pmos:
                    n = max(1, int(rng.poisson(accesses / len(pmos))))
                    yield Burst(pmo, n_accesses=n, unique_pages=pages,
                                write_fraction=write_fraction,
                                base_cycles=self.base_cycles_per_access)
                yield Compute(region_ns)
                yield RegionEnd()
                # Non-PMO computation fills the rest of the window; the
                # trailing chunk matters too: the operation's (manual)
                # detach comes after it, so the window spans it.
                if gap_each > 0:
                    yield Compute(gap_each)
            yield TxEnd()
            # Gamma-distributed PMO-free gap (mean = outside_mean).
            gap = int(rng.gamma(3.0, max(1.0, outside_mean_ns / 3.0)))
            if gap > 0:
                yield Compute(gap)

    def threads(self, num_threads: int = 1, *, ops: Optional[int] = None,
                seed: int) -> Dict[int, Iterator]:
        """Thread-id -> stream mapping for the machine: the ``ops``
        split evenly over ``num_threads``."""
        per_thread = max(1, (self.ops if ops is None else ops)
                         // num_threads)
        return {tid: self.thread_stream(ops=per_thread,
                                        seed=seed + 1000 * tid)
                for tid in range(num_threads)}


@lru_cache(maxsize=None)
def _measure(bench: Benchmark, samples: int, seed: int) -> OpStats:
    from repro.pmo.pmo import Pmo
    rng = np.random.default_rng(seed)
    # A small PMO suffices for measurement; the structures' access
    # complexity does not depend on PMO capacity.
    pmo = CountingPmo(Pmo(1, bench.name, 64 * MIB))
    op = bench.setup(pmo, rng)
    # Warm up so steady-state (not first-touch) behaviour is measured,
    # then sample.
    for _ in range(50):
        op(rng)
    pmo.counts.reset()
    counts = []
    for _ in range(samples):
        op(rng)
        counts.append(pmo.counts.reset())
    total = sum(c.total for c in counts)
    return OpStats(
        accesses=float(np.mean([c.total for c in counts])),
        unique_pages=float(np.mean([c.unique_pages for c in counts])),
        write_fraction=sum(c.writes for c in counts) / total
        if total else 0.0)


# -- the five SPEC benchmarks (calibration from Table IV) --------------------

SPEC: Dict[str, Benchmark] = {
    # mcf: min-cost flow; 4 PMOs (nodes, arcs, basket, dual), pricing
    # and flow-update stages touch two at a time.
    "mcf": Benchmark("mcf", n_pmos=4, actives_per_stage=2,
                     window_avg_us=4.5, window_max_us=25.1,
                     exposure_rate=0.26, region_us=0.7,
                     accesses_per_region=80, write_fraction=0.3),
    # lbm: Lattice-Boltzmann; src/dst lattices both live the whole
    # run — the paper's worst case.
    "lbm": Benchmark("lbm", n_pmos=2, actives_per_stage=2,
                     window_avg_us=1.1, window_max_us=17.1,
                     exposure_rate=0.496, region_us=0.3,
                     accesses_per_region=100, write_fraction=0.5),
    # imagick: convolution pipeline over image planes.
    "imagick": Benchmark("imagick", n_pmos=3, actives_per_stage=2,
                         window_avg_us=3.4, window_max_us=28.6,
                         exposure_rate=0.43, region_us=0.6,
                         accesses_per_region=70, write_fraction=0.45),
    # nab: molecular dynamics force loops over coordinate/force arrays.
    "nab": Benchmark("nab", n_pmos=3, actives_per_stage=2,
                     window_avg_us=2.4, window_max_us=18.9,
                     exposure_rate=0.56, region_us=0.7,
                     accesses_per_region=90, write_fraction=0.5),
    # xz: LZMA; 6 PMOs (dictionary, match finder chains, buffers)
    # used in clearly separated stages -> lowest exposure rate.
    "xz": Benchmark("xz", n_pmos=6, actives_per_stage=1,
                    window_avg_us=10.4, window_max_us=37.5,
                    exposure_rate=0.49, region_us=1.9,
                    accesses_per_region=60, write_fraction=0.35),
}

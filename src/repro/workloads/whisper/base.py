"""WHISPER benchmark modelling: specs, measurement, trace generation.

Each WHISPER benchmark is described by a :class:`WhisperSpec` whose
shape parameters are calibrated from the paper's own measurements
(Table III's MERR columns give each benchmark's natural window
lengths and exposure rates), while the *access contents* of each
burst — how many reads/writes one operation performs, how many pages
it touches — are **measured** by running the benchmark's real
persistent data structure under a :class:`CountingPmo`.

A generated thread stream has the paper's structure:

* a sequence of **transactions** (logical operations, where MERR's
  manual attach/detach go);
* inside each, 1..k **code regions** — clusters of PMO accesses the
  TERP compiler wraps in one thread exposure window, separated by
  PMO-free computation;
* PMO-free time between transactions (parsing, networking, logging),
  sized so the exposure rate matches the benchmark.

All randomness is drawn from a seeded ``numpy`` generator, so runs
are exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.units import GIB, MIB, us
from repro.sim.events import Burst, Compute, RegionEnd, TxBegin, TxEnd
from repro.workloads.structures.counting import AccessCounts, CountingPmo


@dataclass(frozen=True)
class OpStats:
    """Measured per-operation access statistics."""

    accesses: float
    unique_pages: float
    write_fraction: float

    @classmethod
    def from_counts(cls, samples: List[AccessCounts]) -> "OpStats":
        if not samples:
            return cls(accesses=10.0, unique_pages=1.0, write_fraction=0.5)
        totals = [s.total for s in samples]
        pages = [s.unique_pages for s in samples]
        writes = sum(s.writes for s in samples)
        total = sum(totals)
        return cls(accesses=float(np.mean(totals)),
                   unique_pages=float(np.mean(pages)),
                   write_fraction=writes / total if total else 0.0)


@dataclass(frozen=True)
class WhisperSpec:
    """Shape parameters for one WHISPER benchmark.

    ``window_avg_us``/``window_max_us`` — per-transaction PMO window
    (what MERR's manual insertion exposes; Table III MM columns).
    ``exposure_rate`` — fraction of run time inside those windows.
    ``region_us`` — duration of one access cluster (sets the measured
    TEW; Table III TT's TEW column).
    """

    name: str
    window_avg_us: float
    window_max_us: float
    exposure_rate: float
    region_us: float
    pmo_size: int = GIB
    n_transactions: int = 100_000
    base_cycles_per_access: float = 8.0

    @property
    def pmo_name(self) -> str:
        return self.name

    @property
    def cycle_us(self) -> float:
        """Average full transaction cycle (window + PMO-free work)."""
        return self.window_avg_us / self.exposure_rate


class WhisperBenchmark:
    """One benchmark: a spec plus its real-structure op runner.

    ``setup`` builds the persistent structure on a (counting) PMO and
    returns an ``op(rng)`` callable executing one representative
    operation.  Measurement runs a few hundred ops and summarizes the
    access counts; generation then emits the 100K-transaction stream.
    """

    def __init__(self, spec: WhisperSpec,
                 setup: Callable[[CountingPmo, np.random.Generator],
                                 Callable]) -> None:
        self.spec = spec
        self._setup = setup
        self._op_stats: Optional[OpStats] = None

    # -- measurement ------------------------------------------------------

    def measure(self, *, samples: int = 200, seed: int = 7) -> OpStats:
        """Run real operations and record their access statistics."""
        if self._op_stats is not None:
            return self._op_stats
        from repro.pmo.pmo import Pmo
        rng = np.random.default_rng(seed)
        # A small PMO suffices for measurement; the structures' access
        # complexity does not depend on PMO capacity.
        pmo = CountingPmo(Pmo(1, self.spec.name, 64 * MIB))
        op = self._setup(pmo, rng)
        # Warm up so steady-state (not first-touch) behaviour is
        # measured, then sample.
        for _ in range(50):
            op(rng)
        pmo.counts.reset()
        counts: List[AccessCounts] = []
        for _ in range(samples):
            op(rng)
            counts.append(pmo.counts.reset())
        self._op_stats = OpStats.from_counts(counts)
        return self._op_stats

    # -- generation ----------------------------------------------------------

    def thread_stream(self, *, n_transactions: Optional[int] = None,
                      seed: int = 11) -> Iterator:
        """Yield the work-event stream for one thread."""
        spec = self.spec
        stats = self.measure()
        rng = np.random.default_rng(seed)
        n_txs = n_transactions if n_transactions is not None \
            else spec.n_transactions
        region_ns = us(spec.region_us)
        # Window length distribution: Beta-shaped between ~0 and the
        # observed max, with the observed mean.
        mean_frac = min(0.95, spec.window_avg_us / spec.window_max_us)
        beta_a = 2.0
        beta_b = beta_a * (1.0 - mean_frac) / mean_frac
        # PMO-free time between transactions keeps ER on target.
        outside_mean_ns = us(spec.cycle_us - spec.window_avg_us)
        for _ in range(n_txs):
            window_ns = max(region_ns, int(
                us(spec.window_max_us) * rng.beta(beta_a, beta_b)))
            yield TxBegin.of(spec.pmo_name)
            yield from self._tx_body(window_ns, region_ns, stats, rng)
            yield TxEnd()
            # Gamma-distributed PMO-free gap (mean = outside_mean).
            gap = int(rng.gamma(3.0, outside_mean_ns / 3.0))
            if gap > 0:
                yield Compute(gap)

    def _tx_body(self, window_ns: int, region_ns: int, stats: OpStats,
                 rng: np.random.Generator) -> Iterator:
        """Regions within one transaction window."""
        n_regions = max(1, int(round(window_ns / (4.0 * region_ns))))
        # Inter-region gaps fill the window around the region clusters.
        total_gap = max(0, window_ns - n_regions * region_ns)
        gap_each = total_gap // n_regions if n_regions else 0
        for i in range(n_regions):
            n_accesses = max(1, int(rng.poisson(stats.accesses)))
            yield Burst(self.spec.pmo_name,
                        n_accesses=n_accesses,
                        unique_pages=max(1, int(round(stats.unique_pages))),
                        write_fraction=stats.write_fraction,
                        base_cycles=self.spec.base_cycles_per_access)
            yield Compute(region_ns)
            yield RegionEnd()
            # Non-PMO computation fills the rest of the window; the
            # trailing chunk matters too: the operation's (manual)
            # detach comes after it, so the window spans it.
            if gap_each > 0:
                yield Compute(gap_each)

    def threads(self, num_threads: int = 1, *,
                n_transactions: Optional[int] = None,
                seed: int = 11) -> Dict[int, Iterator]:
        """Thread-id -> stream mapping for the machine."""
        per_thread = (n_transactions if n_transactions is not None
                      else self.spec.n_transactions) // num_threads
        return {tid: self.thread_stream(n_transactions=per_thread,
                                        seed=seed + 1000 * tid)
                for tid in range(num_threads)}

    def pmo_sizes(self) -> Dict[str, int]:
        return {self.spec.pmo_name: self.spec.pmo_size}

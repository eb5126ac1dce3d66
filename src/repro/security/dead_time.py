"""Object dead-time analysis (Section VII-A, Figure 8).

The attack surface for persistent corruption of a heap object is its
*dead time*: the window from the victim's **last write** to the
object until its **deallocation** — a corruption landed there
persists (earlier corruption would be overwritten by the victim).

The paper measures dead times over eight SPEC 2017 benchmarks and
five Heap Layers allocation-heavy benchmarks and finds that 95% of
dead times are >= 2µs, motivating the 2µs TEW target.

Here the dead times are *measured* from allocation traces produced by
:mod:`repro.workloads.heaplayers` — real alloc/write/free sequences
over the PMO heap — and summarized into the paper's histogram bins.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Sequence

import numpy as np

from repro.core.record import record
from repro.core.units import ns_to_us, us

#: Figure 8's histogram bin upper edges, in microseconds.
FIG8_BIN_EDGES_US = [
    0.2, 0.4, 0.6, 0.8, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
    128.0, 256.0, 512.0, 1024.0, 4096.0, 16384.0, 65536.0,
]


@record
class ObjectLifetime:
    """One tracked heap object's events (times in ns)."""

    alloc_ns: int
    last_write_ns: int
    free_ns: int

    @property
    def dead_time_ns(self) -> int:
        return self.free_ns - self.last_write_ns


class DeadTimeTracker:
    """Collects object lifetimes from an allocation trace."""

    def __init__(self) -> None:
        self._live: Dict[int, ObjectLifetime] = {}
        self.completed: List[ObjectLifetime] = []

    def on_alloc(self, obj_id: int, now_ns: int) -> None:
        self._live[obj_id] = ObjectLifetime(now_ns, now_ns, -1)

    def on_write(self, obj_id: int, now_ns: int) -> None:
        obj = self._live.get(obj_id)
        if obj is not None:
            obj.last_write_ns = now_ns

    def on_free(self, obj_id: int, now_ns: int) -> None:
        obj = self._live.pop(obj_id, None)
        if obj is not None:
            obj.free_ns = now_ns
            self.completed.append(obj)

    def dead_times_us(self) -> np.ndarray:
        return np.array([ns_to_us(o.dead_time_ns) for o in self.completed])


@record
class DeadTimeDistribution:
    """Figure 8: the binned distribution plus the headline statistic."""

    bin_edges_us: List[float]
    percentages: List[float]
    samples: int

    @classmethod
    def from_dead_times(cls, dead_times_us: Sequence[float],
                        edges: Sequence[float] = FIG8_BIN_EDGES_US
                        ) -> "DeadTimeDistribution":
        times = np.asarray(list(dead_times_us), dtype=float)
        if times.size == 0:
            raise ValueError("no dead-time samples")
        counts = np.zeros(len(edges) + 1)
        for t in times:
            counts[bisect_right(list(edges), t)] += 1
        percentages = (100.0 * counts / times.size).tolist()
        return cls(bin_edges_us=list(edges), percentages=percentages,
                   samples=int(times.size))

    def fraction_at_least(self, threshold_us: float) -> float:
        """P(dead time >= threshold) — the attack-surface-reduction
        number: at 2µs the paper reports 95%.

        Bin ``i`` covers ``(edge[i-1], edge[i]]``; the first bin that
        only holds values above the threshold starts at
        ``bisect_right(edges, threshold)``.
        """
        idx = bisect_right(self.bin_edges_us, threshold_us)
        return sum(self.percentages[idx:]) / 100.0

    def surface_reduction_at(self, tew_us: float) -> float:
        """Choosing TEW = ``tew_us`` removes this fraction of the
        dead-time attack surface."""
        return self.fraction_at_least(tew_us)

    def render(self) -> str:
        lines = ["dead-time distribution "
                 f"({self.samples} objects):"]
        prev = 0.0
        for edge, pct in zip(self.bin_edges_us, self.percentages):
            bar = "#" * int(round(pct))
            lines.append(f"  {prev:8.1f}-{edge:8.1f}us {pct:5.1f}% {bar}")
            prev = edge
        lines.append(f"  >{prev:8.1f}us          "
                     f"{self.percentages[-1]:5.1f}%")
        return "\n".join(lines)

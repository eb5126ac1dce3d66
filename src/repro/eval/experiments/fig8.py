"""Figure 8: the heap-object dead-time distribution.

Pools dead times measured across the thirteen allocation workloads
(eight SPEC-like, five Heap-Layers-like) and bins them as the figure
does.  The headline check: ~95% of dead times are >= 2µs, which is
what justifies the 2µs TEW target.
"""

from __future__ import annotations

from repro.core.record import record
from repro.security.dead_time import DeadTimeDistribution
from repro.workloads.heaplayers import all_dead_times_us


@record
class Fig8Result:
    distribution: DeadTimeDistribution

    @property
    def surface_reduction_at_2us(self) -> float:
        return self.distribution.surface_reduction_at(2.0)

    def render(self) -> str:
        reduction = 100.0 * self.surface_reduction_at_2us
        return ("Figure 8: distribution of time from last write to "
                "object deallocation\n"
                + self.distribution.render()
                + f"\n=> a 2us TEW removes {reduction:.1f}% of the "
                  "dead-time attack surface (paper: 95%)")


def run(*, n_objects_per_profile: int = 1_500,
        seed: int = 42) -> Fig8Result:
    dead_times = all_dead_times_us(
        n_objects_per_profile=n_objects_per_profile, seed=seed)
    return Fig8Result(DeadTimeDistribution.from_dead_times(dead_times))

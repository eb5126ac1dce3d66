"""Simulation parameters (Table II) and the cost model.

Every latency the evaluation depends on is collected here, in cycles
at the 2.2 GHz core clock, exactly as Table II reports them.  The
paper obtained the syscall-class numbers by microbenchmarking a real
machine; for the reproduction they are constants — the same reduction
the paper itself performs before simulating.

:class:`CostModel` turns runtime decisions into charged cycles *and*
attributes them to the Figure 9/10/11 breakdown categories
(attach / detach / rand / cond / other).
"""

from __future__ import annotations

from typing import Dict

from repro.core.record import field, record
from repro.core.units import cycles_to_ns


@record(frozen=True)
class SimParams:
    """Table II: the rows the simulator reads.

    The table's out-of-order core (128-entry ROB, 4-wide issue), its
    32KB/1MB cache hierarchy and its DRAM/NVM latencies are not here:
    the machine charges a burst its workload's per-access base cycles,
    so nothing would read them.
    """

    # Processor
    num_cores: int = 4
    freq_ghz: float = 2.2

    # TLB (mem.tlb.TlbHierarchy; the machine's flat refill charges the penalty)
    l1_tlb_entries: int = 64
    l1_tlb_ways: int = 4
    l1_tlb_latency: int = 1
    l2_tlb_entries: int = 1536
    l2_tlb_ways: int = 6
    l2_tlb_latency: int = 4
    tlb_miss_penalty: int = 30

    # Others
    matrix_check: int = 1            # permission matrix check/update
    silent_cond: int = 27            # silent conditional attach/detach
    attach_syscall: int = 4422
    detach_syscall: int = 3058
    randomization: int = 3718
    tlb_invalidation: int = 550


#: The default parameter set used everywhere unless overridden.
DEFAULT_PARAMS = SimParams()


#: Figure 9/10/11 overhead breakdown categories.
CATEGORIES = ("attach", "detach", "rand", "cond", "other")


@record
class CostBreakdown:
    """Cycles charged per category; the unit of the overhead figures."""

    cycles: Dict[str, float] = field(
        default_factory=lambda: {c: 0.0 for c in CATEGORIES})

    def add(self, category: str, cycles: float) -> None:
        if category not in self.cycles:
            raise KeyError(f"unknown cost category {category!r}")
        self.cycles[category] += cycles

    def merge(self, other: "CostBreakdown") -> None:
        for category, cycles in other.cycles.items():
            self.cycles[category] += cycles

    @property
    def total_cycles(self) -> float:
        return sum(self.cycles.values())

    def total_ns(self, freq_ghz: float = DEFAULT_PARAMS.freq_ghz) -> int:
        return cycles_to_ns(self.total_cycles, freq_ghz)

    def fractions(self) -> Dict[str, float]:
        total = self.total_cycles
        if total == 0:
            return {c: 0.0 for c in CATEGORIES}
        return {c: v / total for c, v in self.cycles.items()}


class CostModel:
    """Charges cycles for protection operations, by category.

    The mapping mirrors the evaluation's breakdown:

    * a *performed* attach — ``attach`` (syscall cost);
    * a *performed* detach — ``detach`` (syscall + TLB shootdown);
    * a randomization — ``rand`` (randomization + TLB shootdown,
      all threads suspended);
    * a *silent* conditional attach/detach — ``cond`` (MPK write);
    * permission-matrix checks and other per-access protection costs —
      ``other``.
    """

    def __init__(self, params: SimParams = DEFAULT_PARAMS) -> None:
        self.params = params

    def attach_performed(self) -> float:
        return self.params.attach_syscall

    def detach_performed(self) -> float:
        return self.params.detach_syscall + self.params.tlb_invalidation

    def randomize(self) -> float:
        return self.params.randomization + self.params.tlb_invalidation

    def silent_op(self) -> float:
        return self.params.silent_cond

    def charge_attach(self, breakdown: CostBreakdown, *,
                      performed: bool) -> float:
        cycles = (self.attach_performed() if performed
                  else self.silent_op())
        breakdown.add("attach" if performed else "cond", cycles)
        return cycles

    def charge_detach(self, breakdown: CostBreakdown, *,
                      performed: bool) -> float:
        cycles = (self.detach_performed() if performed
                  else self.silent_op())
        breakdown.add("detach" if performed else "cond", cycles)
        return cycles

    def charge_randomize(self, breakdown: CostBreakdown,
                         *, num_threads_suspended: int = 0) -> float:
        # Suspending more threads costs a little more (the paper notes
        # randomization overhead grows in the multi-threaded case).
        cycles = self.randomize() + \
            self.params.tlb_invalidation * max(0, num_threads_suspended - 1)
        breakdown.add("rand", cycles)
        return cycles

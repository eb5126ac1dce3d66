"""Region hierarchy and longest-execution-time (LET) estimation.

Section V-A builds a "hierarchy of regions by the classic code region
analysis" and computes each region's LET bottom-up, assuming a large
iteration count (1K) for loops whose trip count is not static.

The hierarchy here has the levels Algorithm 1 climbs:

* level 0 — a single basic block;
* level 1..k — the enclosing natural loops, innermost first;
* top — the whole function body.

LET is the longest path (in cycles) through the region's acyclic
condensation, with every loop's body weight multiplied by the assumed
trip count.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.compiler.cfg import Cfg
from repro.compiler.ir import (
    Compute, CondAttach, CondDetach, Function, Instr, Load, Store)
from repro.core.record import record

#: "We follow the common practice in static analysis to assume it to
#: be a large number (e.g., 1k)" for statically unknown trip counts.
DEFAULT_LOOP_TRIP = 1_000

#: Conservative cycle costs per instruction kind for LET purposes.
ACCESS_CYCLES = 4
TERP_OP_CYCLES = 27


def block_cycles(fn: Function, name: str) -> int:
    """Conservative cycle estimate of one block's instructions."""
    total = 0
    for instr in fn.blocks[name].instrs:
        if isinstance(instr, Compute):
            total += instr.cycles
        elif isinstance(instr, (Load, Store)):
            total += ACCESS_CYCLES
        elif isinstance(instr, (CondAttach, CondDetach)):
            total += TERP_OP_CYCLES
        else:
            total += 1
    return max(total, 1)


@record(frozen=True)
class Region:
    """A region: a block set with a distinguished header."""

    header: str
    blocks: FrozenSet[str]
    kind: str  # "block" | "loop" | "function"

    def __contains__(self, name: str) -> bool:
        return name in self.blocks

    def __len__(self) -> int:
        return len(self.blocks)


class RegionHierarchy:
    """Per-block chains of enclosing regions, plus LET for each."""

    def __init__(self, fn: Function, *,
                 loop_trip: int = DEFAULT_LOOP_TRIP) -> None:
        self.fn = fn
        self.cfg = Cfg(fn)
        self.loop_trip = loop_trip
        self._loops = self.cfg.natural_loops()
        self._let_cache: Dict[FrozenSet[str], int] = {}

    # -- hierarchy -----------------------------------------------------------

    def chain_for(self, block: str) -> List[Region]:
        """Enclosing regions of ``block``: block, loops (inner->outer),
        whole function — the "next-level region" ladder of Algorithm 1."""
        chain = [Region(block, frozenset([block]), "block")]
        enclosing = [(header, body)
                     for header, body in self._loops.items()
                     if block in body]
        enclosing.sort(key=lambda item: len(item[1]))
        seen: Set[FrozenSet[str]] = {frozenset([block])}
        for header, body in enclosing:
            fs = frozenset(body)
            if fs not in seen:
                chain.append(Region(header, fs, "loop"))
                seen.add(fs)
        whole = frozenset(self.fn.blocks)
        if whole not in seen:
            chain.append(Region(self.fn.entry, whole, "function"))
        return chain

    def loops(self) -> Dict[str, Set[str]]:
        return dict(self._loops)

    # -- LET ------------------------------------------------------------------

    def let(self, region: Region) -> int:
        """Longest execution time of all paths in the region, cycles."""
        return self._let_of_blocks(region.blocks)

    def _let_of_blocks(self, blocks: FrozenSet[str]) -> int:
        cached = self._let_cache.get(blocks)
        if cached is not None:
            return cached
        # Effective per-block weight: the block's cycles times the
        # product of trip counts of loops (within the region) that
        # contain it.  Longest path over the back-edge-free DAG then
        # bounds any execution of the region.
        weight: Dict[str, int] = {}
        for name in blocks:
            w = block_cycles(self.fn, name)
            for header, body in self._loops.items():
                if name in body and header in blocks and \
                        body <= set(blocks):
                    w *= self.loop_trip
            weight[name] = w
        order = [n for n in self.cfg.topo_order_acyclic() if n in blocks]
        longest: Dict[str, int] = {}
        for name in order:
            preds = [p for p in self.cfg.pred[name]
                     if p in blocks and
                     (p, name) not in set(self.cfg.back_edges())]
            base = max((longest[p] for p in preds if p in longest),
                       default=0)
            longest[name] = base + weight[name]
        result = max(longest.values(), default=0)
        self._let_cache[blocks] = result
        return result

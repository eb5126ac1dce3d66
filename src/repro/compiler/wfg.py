"""PMO window flow graph construction (Section V-A, Algorithm 1).

The PMO-WFG is "a set of subgraphs of the program CFG, covering all
BBs with PMO accesses", where each subgraph (code region) satisfies:

1. a header dominating all its blocks;
2. a block post-dominating all its blocks (the confluence point where
   the PMO state is known detached — Figure 5b's split point);
3. LET below the threshold set by the target maximum exposure window.

Construction follows Algorithm 1: start from each unvisited block
with PMO accesses and climb the region ladder while the next level's
LET stays under the threshold.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.compiler.cfg import Cfg
from repro.compiler.ir import Function, Program
from repro.compiler.pointer_analysis import PointsTo, analyze
from repro.compiler.regions import Region, RegionHierarchy
from repro.core.record import record


@record
class WfgRegion:
    """One PMO-WFG subgraph, with its insertion anchor points."""

    header: str
    blocks: FrozenSet[str]
    access_blocks: FrozenSet[str]
    pmos: FrozenSet[str]
    let_cycles: int
    #: the block that post-dominates the region (detach goes at its
    #: exit); None when the region's own exit blocks serve that role
    confluence: Optional[str]


@record
class PmoWfg:
    """The PMO-WFG of one function."""

    function: str
    regions: List[WfgRegion]

    def covered_blocks(self) -> Set[str]:
        out: Set[str] = set()
        for region in self.regions:
            out |= region.access_blocks
        return out


def build_wfg(fn: Function, points_to: PointsTo, *,
              let_threshold_cycles: int,
              hierarchy: Optional[RegionHierarchy] = None) -> PmoWfg:
    """Algorithm 1, lines 1-10: construct the PMO-WFG."""
    hierarchy = hierarchy or RegionHierarchy(fn)
    cfg = hierarchy.cfg
    # Only the function's own loads/stores need wrapping here; a call
    # site's PMO traffic is wrapped inside the (also instrumented)
    # callee — this is what keeps the insertion nesting-free and the
    # EW-conscious within-thread non-overlap intact.
    access_blocks = points_to.blocks_with_accesses(fn.name,
                                                   direct_only=True)
    unvisited = set(access_blocks)
    regions: List[WfgRegion] = []
    dom = cfg.dominators()
    pdom = cfg.post_dominators()
    # Deterministic iteration: topological order of access blocks.
    order = [b for b in cfg.topo_order_acyclic() if b in access_blocks]
    for start in order:
        if start not in unvisited:
            continue
        chosen = Region(start, frozenset([start]), "block")
        # Climb while the next-level region's LET stays below the
        # threshold and it covers unvisited access blocks.
        for candidate in hierarchy.chain_for(start)[1:]:
            if hierarchy.let(candidate) >= let_threshold_cycles:
                break
            if not (candidate.blocks & unvisited):
                break
            chosen = candidate
        covered = frozenset(chosen.blocks & access_blocks)
        unvisited -= covered
        pmos: Set[str] = set()
        for block in covered:
            pmos |= points_to.pmos_of_block(fn.name, block,
                                            direct_only=True)
        regions.append(WfgRegion(
            header=_region_header(chosen, dom),
            blocks=chosen.blocks,
            access_blocks=covered,
            pmos=frozenset(pmos),
            let_cycles=hierarchy.let(chosen),
            confluence=_confluence(chosen, pdom),
        ))
    return PmoWfg(function=fn.name, regions=regions)


def _region_header(region: Region, dom: Dict[str, Set[str]]) -> str:
    """The block in the region dominating all others (condition 1)."""
    for candidate in region.blocks:
        if all(candidate in dom[b] for b in region.blocks):
            return candidate
    # Fall back to the declared header (always valid for loops/blocks).
    return region.header


def _confluence(region: Region,
                pdom: Dict[str, Set[str]]) -> Optional[str]:
    """A block post-dominating the whole region (condition 2)."""
    candidates = []
    for candidate in region.blocks:
        if all(candidate in pdom[b] for b in region.blocks):
            candidates.append(candidate)
    if not candidates:
        return None
    # The earliest such block (the one post-dominated by all others)
    # is the natural split point.
    return max(candidates, key=lambda c: sum(
        1 for other in candidates if c in pdom[other]))

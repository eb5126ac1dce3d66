"""Automatic attach/detach insertion (Algorithm 1, lines 11-15).

The pass instruments every function of a program:

* **thread-window mode** (``tew_cycles`` > 0): each PMO-access site is
  wrapped in a conditional attach/detach pair.  Straight-line chains
  of access blocks whose cumulative LET stays under the TEW budget
  share one pair (the compiler's contribution to window combining);
  the hardware elides the rest at runtime (case 3 / case 6).
* **region mode** (``tew_cycles`` == 0): one pair per PMO-WFG region —
  attach at the header, detach at the region's confluence point
  (Figure 5b), or at every region exit when no confluence exists.

The insertion is *verified* after the fact by a dataflow check
(:func:`verify_function`): on every path, pairs match, never overlap
within a thread, and nothing stays attached at function exit — the
well-formedness the EW-conscious semantics requires.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.compiler.cfg import Cfg
from repro.compiler.ir import (
    CondAttach, CondDetach, Function, Instr, Load, Program, Store)
from repro.compiler.pointer_analysis import PointsTo, analyze
from repro.compiler.regions import RegionHierarchy, block_cycles
from repro.compiler.wfg import build_wfg, PmoWfg
from repro.core.errors import CompilerError
from repro.core.record import record


@record
class InsertionReport:
    """What the pass did, per function."""

    attaches: int = 0
    detaches: int = 0
    regions: int = 0
    chains: int = 0

    def merge(self, other: "InsertionReport") -> None:
        self.attaches += other.attaches
        self.detaches += other.detaches
        self.regions += other.regions
        self.chains += other.chains


class TerpInsertionPass:
    """The compiler pass.  ``let_threshold_cycles`` bounds region
    growth (derived from the EW target); ``tew_cycles`` bounds thread
    windows (0 disables thread-window mode)."""

    def __init__(self, *, let_threshold_cycles: int,
                 tew_cycles: int) -> None:
        if let_threshold_cycles <= 0:
            raise CompilerError("let_threshold_cycles must be positive")
        if tew_cycles < 0:
            raise CompilerError("tew_cycles must be >= 0")
        self.let_threshold_cycles = let_threshold_cycles
        self.tew_cycles = tew_cycles

    # -- entry points ----------------------------------------------------

    def run(self, program: Program) -> InsertionReport:
        points_to = analyze(program)
        report = InsertionReport()
        for fn in program.functions.values():
            report.merge(self.run_on_function(fn, points_to))
        return report

    def run_on_function(self, fn: Function,
                        points_to: PointsTo) -> InsertionReport:
        report = InsertionReport()
        if not points_to.blocks_with_accesses(fn.name,
                                              direct_only=True):
            return report
        hierarchy = RegionHierarchy(fn)
        wfg = build_wfg(fn, points_to,
                        let_threshold_cycles=self.let_threshold_cycles,
                        hierarchy=hierarchy)
        report.regions = len(wfg.regions)
        for region in wfg.regions:
            if self.tew_cycles:
                report.merge(self._insert_thread_windows(
                    fn, points_to, region, hierarchy))
            else:
                report.merge(self._insert_region_window(fn, region))
        return report

    # -- thread-window mode -------------------------------------------------

    def _insert_thread_windows(self, fn, points_to, region,
                               hierarchy) -> InsertionReport:
        report = InsertionReport()
        cfg = hierarchy.cfg
        chains = self._linear_chains(cfg, region.access_blocks,
                                     fn, points_to)
        for chain, pmos in chains:
            report.chains += 1
            first, last = chain[0], chain[-1]
            for pmo in sorted(pmos):
                fn.blocks[first].instrs.insert(0, CondAttach(pmo))
                fn.blocks[last].instrs.append(CondDetach(pmo))
                report.attaches += 1
                report.detaches += 1
        return report

    def _linear_chains(self, cfg: Cfg, access_blocks: FrozenSet[str],
                       fn: Function, points_to: PointsTo
                       ) -> List[Tuple[List[str], Set[str]]]:
        """Group access blocks into straight-line chains whose
        cumulative LET fits the TEW budget; each chain gets one pair.

        A chain extends b1 -> b2 only when b2 is b1's unique successor
        and b1 is b2's unique predecessor — every path through one
        block passes through the other, so one pair is safe.
        """
        chains: List[Tuple[List[str], Set[str]]] = []
        order = [b for b in cfg.topo_order_acyclic()
                 if b in access_blocks]
        used: Set[str] = set()
        for start in order:
            if start in used:
                continue
            chain = [start]
            used.add(start)
            budget = self.tew_cycles - block_cycles(fn, start)
            current = start
            while True:
                succs = cfg.succ[current]
                if len(succs) != 1:
                    break
                nxt = succs[0]
                if nxt not in access_blocks or nxt in used or \
                        len(cfg.pred[nxt]) != 1:
                    break
                cost = block_cycles(fn, nxt)
                if cost > budget:
                    break
                chain.append(nxt)
                used.add(nxt)
                budget -= cost
                current = nxt
            pmos: Set[str] = set()
            for block in chain:
                pmos |= points_to.pmos_of_block(fn.name, block,
                                                direct_only=True)
            chains.append((chain, pmos))
        return chains

    # -- region mode -----------------------------------------------------------

    def _insert_region_window(self, fn: Function,
                              region) -> InsertionReport:
        """One window per region.

        Loop regions get per-iteration pairing: attach at the header,
        detach at every latch (back-edge source), and a detach block
        spliced onto every edge leaving the region — "a loop always
        forms a code region with attach added at the confluence
        point" and the timer-based sweep bounds the combined window.
        Straight-line regions pair header with confluence.
        """
        report = InsertionReport()
        latches = sorted(name for name in region.blocks
                         if region.header in fn.blocks[name].successors)
        is_loop = bool(latches) and len(region.blocks) > 1
        pmos = sorted(region.pmos)
        for pmo in pmos:
            fn.blocks[region.header].instrs.insert(0, CondAttach(pmo))
            report.attaches += 1
        if is_loop:
            for latch in latches:
                for pmo in pmos:
                    fn.blocks[latch].instrs.append(CondDetach(pmo))
                    report.detaches += 1
            report.detaches += _split_exit_edges(fn, region, pmos,
                                                 skip_sources=set(latches))
        elif region.confluence is not None and \
                region.confluence in region.blocks:
            for pmo in pmos:
                fn.blocks[region.confluence].instrs.append(
                    CondDetach(pmo))
                report.detaches += 1
        else:
            for exit_block in _region_exits(fn, region):
                for pmo in pmos:
                    fn.blocks[exit_block].instrs.append(CondDetach(pmo))
                    report.detaches += 1
        return report


def _split_exit_edges(fn: Function, region, pmos: List[str], *,
                      skip_sources: Set[str] = frozenset()) -> int:
    """Splice a detach block onto every edge leaving the region.

    Needed for loops: the edge out of the loop leaves the window open
    (the latch detach runs only at latch ends), so the exit edge
    itself must close it.  Latch-sourced exit edges are skipped — the
    latch already detached before branching.  Returns the number of
    detaches added.
    """
    added = 0
    for name in sorted(region.blocks):
        if name in skip_sources:
            continue
        bb = fn.blocks[name]
        for i, succ in enumerate(list(bb.successors)):
            if succ in region.blocks:
                continue
            split = fn.block(f"__terp_exit_{name}_{succ}")
            for pmo in pmos:
                split.add(CondDetach(pmo))
                added += 1
            split.jump(succ)
            bb.successors[i] = split.name
    return added


def _region_exits(fn: Function, region) -> List[str]:
    """Blocks in the region with an edge leaving it (or function exit)."""
    out = []
    for name in region.blocks:
        bb = fn.blocks[name]
        if not bb.successors or \
                any(s not in region.blocks for s in bb.successors):
            out.append(name)
    return sorted(out)


# -- verification --------------------------------------------------------------

def verify_function(fn: Function) -> None:
    """Dataflow check of insertion well-formedness.

    For every block boundary the set of PMOs held open must be
    path-independent; CondAttach requires the PMO closed, CondDetach
    requires it open; function exits must hold nothing open.  Raises
    :class:`CompilerError` on any violation.
    """
    cfg = Cfg(fn)
    in_state: Dict[str, Optional[FrozenSet[str]]] = {
        name: None for name in fn.blocks}
    in_state[fn.entry] = frozenset()
    worklist = [fn.entry]
    while worklist:
        name = worklist.pop()
        state = in_state[name]
        assert state is not None
        out = _transfer(fn, name, state)
        bb = fn.blocks[name]
        if not bb.successors and out:
            raise CompilerError(
                f"block {name!r} exits with PMOs still attached: "
                f"{sorted(out)}")
        for succ in bb.successors:
            existing = in_state[succ]
            if existing is None:
                in_state[succ] = out
                worklist.append(succ)
            elif existing != out:
                raise CompilerError(
                    f"inconsistent attach state at {succ!r}: "
                    f"{sorted(existing)} vs {sorted(out)}")


def _transfer(fn: Function, name: str,
              state: FrozenSet[str]) -> FrozenSet[str]:
    open_pmos = set(state)
    for instr in fn.blocks[name].instrs:
        if isinstance(instr, CondAttach):
            if instr.pmo in open_pmos:
                raise CompilerError(
                    f"overlapping attach of {instr.pmo!r} in {name!r}")
            open_pmos.add(instr.pmo)
        elif isinstance(instr, CondDetach):
            if instr.pmo not in open_pmos:
                raise CompilerError(
                    f"detach of unattached {instr.pmo!r} in {name!r}")
            open_pmos.discard(instr.pmo)
    return frozenset(open_pmos)


def verify_program(program: Program) -> None:
    for fn in program.functions.values():
        verify_function(fn)

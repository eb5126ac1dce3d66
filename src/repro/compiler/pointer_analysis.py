"""Flow-insensitive pointer analysis for PMO accesses.

"Pointer analysis is used to identify BBs with PMO accesses and
pointer aliases" (Section V-A).  An Andersen-style inclusion analysis
is overkill for this IR's copy/GEP structure; a transitive alias
propagation over ``Assign``/``Gep`` chains, seeded at the declared PMO
handles, gives the same may-point-to answer:

* a variable may point into PMO P if it is P's declared handle or is
  copied (possibly through arithmetic) from a variable that may;
* a ``Load``/``Store`` through such a variable is a PMO access.

The analysis is interprocedural in the simplest sound way: alias
facts are global (parameters and globals share one namespace), and
call edges are walked to mark callee accesses.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set, Tuple

from repro.compiler.ir import (
    Assign, Call, Function, Gep, Load, Program, Store)
from repro.core.record import record


@record
class PointsTo:
    """The analysis result."""

    #: var -> set of PMO names it may point into
    var_targets: Dict[str, Set[str]]
    #: (function, block) -> set of PMOs accessed in that block,
    #: including accesses reached through calls
    block_pmos: Dict[Tuple[str, str], Set[str]]
    #: (function, block) -> PMOs accessed by the block's own
    #: loads/stores only (callees instrument themselves, so the
    #: insertion pass wraps direct accesses only)
    direct_block_pmos: Dict[Tuple[str, str], Set[str]]

    def may_alias(self, a: str, b: str) -> bool:
        """Do two variables possibly point into the same PMO?"""
        return bool(self.var_targets.get(a, set())
                    & self.var_targets.get(b, set()))

    def pmos_of_block(self, fn: str, block: str, *,
                      direct_only: bool = False) -> Set[str]:
        table = self.direct_block_pmos if direct_only else self.block_pmos
        return table.get((fn, block), set())

    def blocks_with_accesses(self, fn: str, *,
                             direct_only: bool = False) -> Set[str]:
        table = self.direct_block_pmos if direct_only else self.block_pmos
        return {block for (f, block), pmos in table.items()
                if f == fn and pmos}


def analyze(program: Program) -> PointsTo:
    """Run the analysis over the whole program."""
    program.validate()
    var_targets: Dict[str, Set[str]] = {
        var: {pmo} for var, pmo in program.pmo_handles.items()}

    # Fixed-point over copy edges (flow-insensitive).
    copies = []
    for fn in program.functions.values():
        for _, _, instr in fn.instructions():
            if isinstance(instr, Assign):
                copies.append((instr.dst, instr.src))
            elif isinstance(instr, Gep):
                copies.append((instr.dst, instr.src))
    changed = True
    while changed:
        changed = False
        for dst, src in copies:
            src_set = var_targets.get(src)
            if not src_set:
                continue
            dst_set = var_targets.setdefault(dst, set())
            before = len(dst_set)
            dst_set |= src_set
            if len(dst_set) != before:
                changed = True

    # Per-block access sets, including PMOs reached via calls: a call
    # makes the caller block "contain" the callee's accesses for the
    # purposes of region formation (the paper treats library calls the
    # same way: the attach must cover them).
    direct: Dict[Tuple[str, str], Set[str]] = {}
    calls: Dict[Tuple[str, str], Set[str]] = {}
    for fn in program.functions.values():
        for block, _, instr in fn.instructions():
            key = (fn.name, block)
            if isinstance(instr, (Load, Store)):
                direct.setdefault(key, set()).update(
                    var_targets.get(instr.ptr, set()))
            elif isinstance(instr, Call):
                calls.setdefault(key, set()).add(instr.callee)

    fn_summary: Dict[str, Set[str]] = {name: set()
                                       for name in program.functions}
    for (fname, _), pmos in direct.items():
        fn_summary[fname] |= pmos
    changed = True
    while changed:
        changed = False
        for (fname, _), callees in calls.items():
            for callee in callees:
                before = len(fn_summary[fname])
                fn_summary[fname] |= fn_summary[callee]
                if len(fn_summary[fname]) != before:
                    changed = True

    block_pmos: Dict[Tuple[str, str], Set[str]] = {}
    for key, pmos in direct.items():
        block_pmos.setdefault(key, set()).update(pmos)
    for key, callees in calls.items():
        for callee in callees:
            if fn_summary[callee]:
                block_pmos.setdefault(key, set()).update(
                    fn_summary[callee])

    return PointsTo(var_targets=var_targets, block_pmos=block_pmos,
                    direct_block_pmos=direct)

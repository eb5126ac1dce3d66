"""A small intermediate representation for the TERP compiler pass.

The paper implements its region-based analysis as an LLVM pass; this
IR carries exactly the features that pass consumes: basic blocks and
control-flow edges, straight-line computation with cycle estimates,
PMO accesses through pointer variables (so pointer analysis has work
to do), and calls.

A :class:`Function` is a graph of :class:`BasicBlock`; a
:class:`Program` is a set of functions plus the declaration of which
variables are PMO handles (the roots the pointer analysis propagates
from).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import CompilerError
from repro.core.record import record


# -- instructions -------------------------------------------------------------

@record(frozen=True)
class Instr:
    """Base class; concrete instructions below."""


@record(frozen=True)
class Compute(Instr):
    """Straight-line computation costing ``cycles``."""

    cycles: int = 1


@record(frozen=True)
class Load(Instr):
    """Read through ``ptr``; a PMO access if ptr aliases a PMO."""

    ptr: str


@record(frozen=True)
class Store(Instr):
    """Write through ``ptr``."""

    ptr: str


@record(frozen=True)
class Assign(Instr):
    """``dst = src`` pointer copy (creates aliases)."""

    dst: str
    src: str


@record(frozen=True)
class Gep(Instr):
    """``dst = src + offset`` — pointer arithmetic keeps the alias."""

    dst: str
    src: str


@record(frozen=True)
class Call(Instr):
    """Call another function in the program."""

    callee: str


#: Instructions inserted by the TERP pass.
@record(frozen=True)
class CondAttach(Instr):
    pmo: str


@record(frozen=True)
class CondDetach(Instr):
    pmo: str


# -- blocks / functions / programs ------------------------------------------------

class BasicBlock:
    """A named block: instruction list + successor edges."""

    def __init__(self, name: str,
                 instrs: Optional[Sequence[Instr]] = None) -> None:
        self.name = name
        self.instrs: List[Instr] = list(instrs or [])
        self.successors: List[str] = []

    def add(self, instr: Instr) -> "BasicBlock":
        self.instrs.append(instr)
        return self

    def jump(self, target: str) -> "BasicBlock":
        self.successors = [target]
        return self

    def branch(self, then_target: str, else_target: str) -> "BasicBlock":
        self.successors = [then_target, else_target]
        return self

    def __repr__(self) -> str:
        return f"BasicBlock({self.name!r}, -> {self.successors})"


class Function:
    """A function: blocks keyed by name, one entry, >= one exit."""

    def __init__(self, name: str, entry: str = "entry") -> None:
        self.name = name
        self.entry = entry
        self.blocks: Dict[str, BasicBlock] = {}

    def block(self, name: str,
              instrs: Optional[Sequence[Instr]] = None) -> BasicBlock:
        if name in self.blocks:
            raise CompilerError(f"duplicate block {name!r}")
        bb = BasicBlock(name, instrs)
        self.blocks[name] = bb
        return bb

    def validate(self) -> None:
        if self.entry not in self.blocks:
            raise CompilerError(f"missing entry block {self.entry!r}")
        for bb in self.blocks.values():
            for succ in bb.successors:
                if succ not in self.blocks:
                    raise CompilerError(
                        f"block {bb.name!r} jumps to unknown {succ!r}")
        exits = [bb for bb in self.blocks.values() if not bb.successors]
        if not exits:
            raise CompilerError(f"function {self.name!r} has no exit")

    def exits(self) -> List[str]:
        return [bb.name for bb in self.blocks.values()
                if not bb.successors]

    def instructions(self) -> Iterator[Tuple[str, int, Instr]]:
        """All (block, index, instr) triples."""
        for bb in self.blocks.values():
            for i, instr in enumerate(bb.instrs):
                yield bb.name, i, instr


class Program:
    """A whole program: functions plus PMO handle declarations."""

    def __init__(self) -> None:
        self.functions: Dict[str, Function] = {}
        #: variable name -> PMO name; the pointer-analysis roots
        self.pmo_handles: Dict[str, str] = {}

    def function(self, name: str, entry: str = "entry") -> Function:
        if name in self.functions:
            raise CompilerError(f"duplicate function {name!r}")
        fn = Function(name, entry)
        self.functions[name] = fn
        return fn

    def declare_pmo_handle(self, var: str, pmo: str) -> None:
        self.pmo_handles[var] = pmo

    def validate(self) -> None:
        for fn in self.functions.values():
            fn.validate()
            for _, _, instr in fn.instructions():
                if isinstance(instr, Call) and \
                        instr.callee not in self.functions:
                    raise CompilerError(
                        f"call to unknown function {instr.callee!r}")

    def get(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise CompilerError(f"no function {name!r}") from None

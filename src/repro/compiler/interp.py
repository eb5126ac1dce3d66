"""IR interpreter: run instrumented programs against a TERP engine.

Closes the loop between the compiler and the runtime: execute an
instrumented function with a cycle clock, route every CondAttach /
CondDetach / Load / Store through a semantics engine, and record the
thread exposure windows actually produced.  The integration tests use
it to show the pass's insertion (a) never violates the EW-conscious
semantics and (b) keeps the measured TEW under the compiler's budget.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.compiler.ir import (
    Assign, Call, Compute, CondAttach, CondDetach, Function, Gep,
    Instr, Load, Program, Store)
from repro.compiler.regions import ACCESS_CYCLES, TERP_OP_CYCLES
from repro.core.errors import CompilerError, SimulationError
from repro.core.exposure import WindowTracker
from repro.core.permissions import Access
from repro.core.record import record
from repro.core.semantics import Outcome, SemanticsEngine
from repro.core.units import cycles_to_ns


@record
class InterpResult:
    """Observed behaviour of one run."""

    cycles: int
    faults: int
    semantics_errors: int
    attaches: int
    detaches: int
    max_tew_ns: int
    tew_count: int

    @property
    def clean(self) -> bool:
        return self.faults == 0 and self.semantics_errors == 0


class Interpreter:
    """Executes one thread through a program, branch choices random
    but seeded; loops run until their back-edge budget is exhausted."""

    def __init__(self, program: Program, engine: SemanticsEngine, *,
                 thread_id: int = 1, seed: int = 5,
                 max_steps: int = 200_000,
                 branch_bias: float = 0.7) -> None:
        self.program = program
        self.engine = engine
        self.thread_id = thread_id
        self.rng = np.random.default_rng(seed)
        self.max_steps = max_steps
        #: probability of taking a branch's first successor — loop
        #: bodies are conventionally first, so >0.5 iterates loops.
        self.branch_bias = branch_bias
        self.cycles = 0
        self.faults = 0
        self.semantics_errors = 0
        self.attaches = 0
        self.detaches = 0
        self._tew = WindowTracker()
        self._alias: Dict[str, str] = dict(program.pmo_handles)

    # -- clock -------------------------------------------------------------

    @property
    def now_ns(self) -> int:
        return cycles_to_ns(self.cycles)

    def _advance(self, cycles: int) -> None:
        self.cycles += cycles

    # -- execution -----------------------------------------------------------

    def run(self, function: str) -> InterpResult:
        self._exec_function(self.program.get(function), depth=0)
        # Close any still-open windows for reporting.
        for key in list(self._tew._open):
            self._tew.close(key, self.now_ns)
        stats = self._tew.stats()
        return InterpResult(
            cycles=self.cycles,
            faults=self.faults,
            semantics_errors=self.semantics_errors,
            attaches=self.attaches,
            detaches=self.detaches,
            max_tew_ns=stats.max_ns,
            tew_count=stats.count,
        )

    def _exec_function(self, fn: Function, depth: int) -> None:
        if depth > 32:
            raise SimulationError("call depth exceeded")
        block = fn.entry
        steps = 0
        while block is not None:
            steps += 1
            if steps > self.max_steps:
                raise SimulationError(
                    f"interpreter exceeded {self.max_steps} blocks")
            bb = fn.blocks[block]
            for instr in bb.instrs:
                self._exec_instr(instr, depth)
            if not bb.successors:
                block = None
            elif len(bb.successors) == 1:
                block = bb.successors[0]
            elif self.rng.random() < self.branch_bias:
                block = bb.successors[0]
            else:
                block = bb.successors[
                    int(self.rng.integers(1, len(bb.successors)))]

    def _exec_instr(self, instr: Instr, depth: int) -> None:
        if isinstance(instr, Compute):
            self._advance(instr.cycles)
        elif isinstance(instr, (Assign, Gep)):
            if instr.src in self._alias:
                self._alias[instr.dst] = self._alias[instr.src]
            self._advance(1)
        elif isinstance(instr, (Load, Store)):
            self._advance(ACCESS_CYCLES)
            pmo = self._alias.get(instr.ptr)
            if pmo is None:
                return  # non-PMO memory
            requested = (Access.WRITE if isinstance(instr, Store)
                         else Access.READ)
            decision = self.engine.access(self.thread_id, pmo,
                                          requested, self.now_ns)
            if decision.outcome in (Outcome.FAULT_SEGV,
                                    Outcome.FAULT_PERM):
                self.faults += 1
        elif isinstance(instr, CondAttach):
            self._advance(TERP_OP_CYCLES)
            decision = self.engine.attach(self.thread_id, instr.pmo,
                                          Access.RW, self.now_ns)
            if decision.outcome is Outcome.ERROR:
                self.semantics_errors += 1
                return
            self.attaches += 1
            key = (self.thread_id, instr.pmo)
            if not self._tew.is_open(key):
                self._tew.open(key, self.now_ns)
        elif isinstance(instr, CondDetach):
            self._advance(TERP_OP_CYCLES)
            decision = self.engine.detach(self.thread_id, instr.pmo,
                                          self.now_ns)
            if decision.outcome is Outcome.ERROR:
                self.semantics_errors += 1
                return
            self.detaches += 1
            key = (self.thread_id, instr.pmo)
            if self._tew.is_open(key):
                self._tew.close(key, self.now_ns)
        elif isinstance(instr, Call):
            self._advance(2)
            self._exec_function(self.program.get(instr.callee),
                                depth + 1)
        else:
            raise CompilerError(f"unknown instruction {instr!r}")

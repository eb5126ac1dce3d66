"""Attach/detach insertion policies.

A policy is an online state machine fed one thread's work events; it
decides where attach and detach calls go.  Two policies reproduce the
paper's configurations:

:class:`ManualMerrPolicy`
    MERR's manual insertion (MM): the programmer bookends logical
    operations.  Consecutive transactions are grouped under one
    attach/detach pair until the accumulated window would exceed the
    EW target — so window lengths track transaction durations and are
    unstable (the Table III observation: avg far below max).

:class:`CompilerTerpPolicy`
    TERP's automatic insertion (TM/TT): conditional attach before a
    burst and conditional detach as soon as the open thread window
    would exceed the TEW target at the next region boundary.  The
    result is many short, tightly bounded thread windows — cheap under
    the TERP architecture, expensive if each call is a syscall (TM).

Policies return :class:`Op` directives; the machine executes them
against the semantics engine and charges costs.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Set, Tuple

from repro.core.permissions import Access
from repro.core.record import record
from repro.sim.events import Burst, Compute, RegionEnd, TxBegin, TxEnd


class OpKind(enum.Enum):
    ATTACH = "attach"
    DETACH = "detach"


@record(frozen=True)
class Op:
    kind: OpKind
    pmo: str
    access: Access = Access.RW


class InsertionPolicy:
    """Per-thread online insertion; subclasses override the hooks.

    The machine calls :meth:`before_event` ahead of executing each
    work event and :meth:`at_end` when the thread finishes; both
    return the protection ops to execute first (in order).
    """

    def before_event(self, event, now_ns: int) -> List[Op]:
        raise NotImplementedError

    def at_end(self, now_ns: int) -> List[Op]:
        raise NotImplementedError

    def open_pmos(self) -> Set[str]:
        raise NotImplementedError


class ManualMerrPolicy(InsertionPolicy):
    """MM: the programmer bookends each logical operation.

    One attach/detach pair per transaction — the natural place a
    programmer inserts the calls.  The EW target is met *by
    construction* (operations are shorter than the target), which is
    precisely why MERR's windows are unstable: their length is
    whatever the transaction happens to take (Table III: avg 14.5µs
    vs max 34.3µs under a 40µs target).
    """

    def __init__(self, ew_target_ns: int) -> None:
        self.ew_target_ns = ew_target_ns
        self._open: Dict[str, int] = {}     # pmo -> window start ns

    def before_event(self, event, now_ns: int) -> List[Op]:
        ops: List[Op] = []
        if isinstance(event, TxBegin):
            for pmo in event.pmos:
                if pmo not in self._open:
                    ops.append(Op(OpKind.ATTACH, pmo))
                    self._open[pmo] = now_ns
        elif isinstance(event, TxEnd):
            for pmo in list(self._open):
                ops.append(Op(OpKind.DETACH, pmo))
            self._open.clear()
        elif isinstance(event, Burst) and event.pmo not in self._open:
            # A stray access outside any transaction (or to a PMO the
            # TxBegin did not declare): the programmer must have
            # attached it somewhere — model as attach-on-first-use.
            ops.append(Op(OpKind.ATTACH, event.pmo))
            self._open[event.pmo] = now_ns
        return ops

    def at_end(self, now_ns: int) -> List[Op]:
        ops = [Op(OpKind.DETACH, pmo) for pmo in self._open]
        self._open.clear()
        return ops

    def open_pmos(self) -> Set[str]:
        return set(self._open)


class CompilerTerpPolicy(InsertionPolicy):
    """TM/TT: compiler-style insertion bounding each thread window.

    Mirrors the PMO-WFG result at runtime: a conditional attach opens
    the window at the first burst of a region; the window closes
    (conditional detach) at the first region boundary where its length
    has reached the TEW target, and always at transaction end — the
    paper's region post-dominator, where the PMO state returns to
    "detached" on every path.
    """

    def __init__(self, tew_target_ns: int) -> None:
        self.tew_target_ns = tew_target_ns
        self._open: Dict[str, int] = {}     # pmo -> window start ns

    def before_event(self, event, now_ns: int) -> List[Op]:
        ops: List[Op] = []
        # Close any window that has met the TEW target; region
        # boundaries are "before each event".
        for pmo, start in list(self._open.items()):
            if now_ns - start >= self.tew_target_ns:
                ops.append(Op(OpKind.DETACH, pmo))
                del self._open[pmo]
        if isinstance(event, Burst):
            if event.pmo not in self._open:
                ops.append(Op(OpKind.ATTACH, event.pmo))
                self._open[event.pmo] = now_ns
        elif isinstance(event, (TxEnd, RegionEnd)):
            # The region's post-dominator: the static analysis knows no
            # PMO access follows, so every window closes here.
            for pmo in list(self._open):
                ops.append(Op(OpKind.DETACH, pmo))
            self._open.clear()
        return ops

    def at_end(self, now_ns: int) -> List[Op]:
        ops = [Op(OpKind.DETACH, pmo) for pmo in self._open]
        self._open.clear()
        return ops

    def open_pmos(self) -> Set[str]:
        return set(self._open)


class NoProtectionPolicy(InsertionPolicy):
    """Baseline: no attach/detach at all (unprotected execution)."""

    def before_event(self, event, now_ns: int) -> List[Op]:
        return []

    def at_end(self, now_ns: int) -> List[Op]:
        return []

    def open_pmos(self) -> Set[str]:
        return set()

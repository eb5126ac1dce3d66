"""Multi-process PMO sharing — the upper tiers of the TERP poset.

The framework's Definition 2 spans threads, *processes*, and users;
Figure 2's Hasse diagram puts per-user permission above process-wide
attach/detach.  This module realizes those tiers: several simulated
processes (each with its own address space, semantics engine, and
exposure accounting) share one PMO namespace, with OS-level mode
checks (owner/user) gating attach — so a PMO can be exposed to one
process while remaining completely unmapped (not merely permission-
blocked) in another.

Each process gets an *independent* randomized placement of the same
PMO: learning the address in process A says nothing about process B,
which is the spatial side of the cross-process protection story.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.errors import PmoError, TerpError
from repro.core.events import Trace
from repro.core.exposure import ExposureMonitor
from repro.core.permissions import Access
from repro.core.runtime import AttachResult, TerpRuntime
from repro.core.semantics import EwConsciousSemantics, SemanticsEngine
from repro.core.units import us
from repro.mem.address_space import AddressSpace
from repro.pmo.pmo import Pmo
from repro.pmo.pool import mode_allows, PmoManager


@dataclass
class Process:
    """One simulated process: identity + its own protection stack."""

    name: str
    user: str
    runtime: TerpRuntime

    @property
    def space(self) -> AddressSpace:
        return self.runtime.space


class SharedPmoSystem:
    """A machine-wide PMO namespace shared by multiple processes."""

    def __init__(self, *, seed: int = 2022) -> None:
        self.manager = PmoManager()
        self._seed = seed
        self._processes: Dict[str, Process] = {}

    # -- process management -----------------------------------------------

    def create_process(self, name: str, *, user: str = "root",
                       semantics: Optional[SemanticsEngine] = None,
                       ew_target_us: float = 40.0,
                       trace: Optional[Trace] = None) -> Process:
        if name in self._processes:
            raise TerpError(f"process {name!r} already exists")
        if semantics is None:
            semantics = EwConsciousSemantics(us(ew_target_us))
        # Each process draws placements from its own stream.
        rng = random.Random(self._seed + len(self._processes))
        runtime = TerpRuntime(semantics, manager=self.manager,
                              space=AddressSpace(rng=rng),
                              monitor=ExposureMonitor(), trace=trace)
        process = Process(name=name, user=user, runtime=runtime)
        self._processes[name] = process
        return process

    def process(self, name: str) -> Process:
        try:
            return self._processes[name]
        except KeyError:
            raise TerpError(f"no process {name!r}") from None

    # -- namespace operations ----------------------------------------------

    def create_pmo(self, process: Process, name: str, size: int,
                   mode: int = 0o600) -> Pmo:
        """The creating process's user becomes the PMO owner."""
        return self.manager.create(name, size, owner=process.user,
                                   mode=mode)

    def attach(self, process: Process, pmo_name: str,
               permission: Access, *, thread_id: int = 0,
               now_ns: int = 0) -> AttachResult:
        """OS-checked attach: mode bits first, then TERP semantics."""
        pmo = self.manager.open(pmo_name, user=process.user,
                                requested=permission)
        return process.runtime.attach(thread_id, pmo, permission,
                                      now_ns)

    def detach(self, process: Process, pmo_name: str, *,
               thread_id: int = 0, now_ns: int = 0):
        pmo = self._pmo(pmo_name)
        return process.runtime.detach(thread_id, pmo, now_ns)

    def access(self, process: Process, pmo_name: str,
               requested: Access, *, thread_id: int = 0,
               offset: int = 0, now_ns: int = 0):
        pmo = self._pmo(pmo_name)
        return process.runtime.access(thread_id, pmo, offset,
                                      requested, now_ns)

    def _pmo(self, name: str) -> Pmo:
        # Resolution without an open-count bump.
        return self.manager.lookup(name)

    # -- cross-process queries ------------------------------------------------

    def base_va(self, process: Process, pmo_name: str) -> Optional[int]:
        pmo = self._pmo(pmo_name)
        mapping = process.space.mapping_of(pmo.pmo_id)
        return None if mapping is None else mapping.base_va

    def exposure_by_process(self, pmo_name: str,
                            total_ns: int) -> Dict[str, float]:
        """Per-process exposure rate of one PMO — the quantity a
        user-level TERP mechanism would bound."""
        pmo = self._pmo(pmo_name)
        out = {}
        for name, process in self._processes.items():
            monitor = process.runtime.monitor
            windows = monitor.ew.windows(pmo.pmo_id)
            open_len = monitor.ew.current_length(pmo.pmo_id, total_ns)
            exposed = sum(w.length_ns for w in windows) + open_len
            out[name] = exposed / total_ns if total_ns else 0.0
        return out

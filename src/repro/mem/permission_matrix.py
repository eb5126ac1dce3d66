"""The MERR process-wide permission matrix (Figure 1b).

The embedded-page-table trick cannot discern per-process permissions,
so MERR adds a small hardware table mapping VA range -> permission for
the attached PMOs of the current process.  Every ld/st checks it
alongside the TLB (1 extra cycle in Table II).

``attach(pmo, va, perm)`` adds an entry; ``detach(pmo)`` removes it.
The matrix is process-wide: it knows nothing about threads — that is
exactly the gap TERP's thread permissions (:mod:`repro.mem.mpk`) fill.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.core.errors import TerpError
from repro.core.permissions import Access
from repro.core.record import record


@record
class MatrixEntry:
    pmo_id: Hashable
    base_va: int
    size: int
    permission: Access

    def covers(self, va: int) -> bool:
        return self.base_va <= va < self.base_va + self.size


class PermissionMatrix:
    """Process-wide VA-range -> permission table with a capacity limit.

    Real hardware would bound the number of simultaneously attached
    PMOs; we default to 32 entries, matching the circular buffer.
    """

    CHECK_COST_CYCLES = 1  # Table II: permission matrix check/update

    def __init__(self, capacity: int = 32) -> None:
        self.capacity = capacity
        self._entries: Dict[Hashable, MatrixEntry] = {}
        self.checks = 0
        self.updates = 0

    def add(self, pmo_id: Hashable, base_va: int, size: int,
            permission: Access) -> MatrixEntry:
        if pmo_id in self._entries:
            raise TerpError(f"PMO {pmo_id!r} already in permission matrix")
        if len(self._entries) >= self.capacity:
            raise TerpError("permission matrix full")
        for other in self._entries.values():
            if (base_va < other.base_va + other.size
                    and other.base_va < base_va + size):
                raise TerpError(
                    f"VA range overlaps entry for PMO {other.pmo_id!r}")
        entry = MatrixEntry(pmo_id, base_va, size, permission)
        self._entries[pmo_id] = entry
        self.updates += 1
        return entry

    def remove(self, pmo_id: Hashable) -> MatrixEntry:
        try:
            entry = self._entries.pop(pmo_id)
        except KeyError:
            raise TerpError(f"PMO {pmo_id!r} not in permission matrix") from None
        self.updates += 1
        return entry

    def relocate(self, pmo_id: Hashable, new_base_va: int) -> None:
        """Move an entry's VA range (randomization re-maps the PMO)."""
        entry = self._entries.get(pmo_id)
        if entry is None:
            raise TerpError(f"PMO {pmo_id!r} not in permission matrix")
        entry.base_va = new_base_va
        self.updates += 1

    def lookup_va(self, va: int) -> Optional[MatrixEntry]:
        self.checks += 1
        for entry in self._entries.values():
            if entry.covers(va):
                return entry
        return None

    def check(self, va: int, requested: Access) -> bool:
        """The per-access check: is ``requested`` allowed at ``va``?"""
        entry = self.lookup_va(va)
        return entry is not None and entry.permission.allows(requested)

    def entry_for(self, pmo_id: Hashable) -> Optional[MatrixEntry]:
        return self._entries.get(pmo_id)

    def __len__(self) -> int:
        return len(self._entries)

"""A process address space: mappings, randomization, access checks.

This is the OS-facing composition point of the memory substrate: one
:class:`AddressSpace` owns a process page table, a MERR permission
matrix, and the MPK protection domains, and provides the operations
the TERP runtime needs:

* ``attach`` — map a PMO at a randomized base address (O(1) via the
  embedded subtree), add a permission-matrix entry, and assign a
  protection domain;
* ``detach`` — remove mapping, matrix entry, and domain;
* ``randomize`` — relocate the PMO to a fresh random base (the
  re-randomization that runs when an EW target expires while threads
  still hold access);
* ``translate``/``check_access`` — the per-load/store MMU path.

Randomization draws from a seeded stdlib ``random.Random``.  The
candidate slot count for a PMO is exposed (:meth:`slots_for`) because
the security analysis (Table V) needs the entropy of the placement.

Any PMO-like object with ``pmo_id``, ``size_bytes`` and ``subtree``
attributes can be attached, keeping this module independent of the
:mod:`repro.pmo` package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.errors import SegmentationFault, TerpError
from repro.core.permissions import Access
from repro.mem.mpk import ProtectionDomains
from repro.mem.page_table import (
    ENTRIES_PER_NODE, ENTRY_SPAN, Frame, PageTable, VA_SPAN, index_at_level)
from repro.mem.permission_matrix import PermissionMatrix


@dataclass
class Mapping:
    """One attached PMO: where it sits and how it may be used."""

    pmo_id: Hashable
    base_va: int
    size_bytes: int
    subtree_level: int
    permission: Access


class AddressSpace:
    """The virtual address space of one simulated process."""

    #: Mappings are placed in the lower half of the canonical range,
    #: mirroring a user-space mmap area.
    REGION_BASE = 0
    REGION_END = VA_SPAN

    def __init__(self, *, rng: Optional[random.Random] = None) -> None:
        self.page_table = PageTable()
        self.matrix = PermissionMatrix()
        self.domains = ProtectionDomains()
        self.rng = rng if rng is not None else random.Random(0)
        self._mappings: Dict[Hashable, Mapping] = {}
        self.attach_count = 0
        self.detach_count = 0
        self.randomize_count = 0

    # -- placement ---------------------------------------------------------

    def alignment_for(self, subtree_level: int) -> int:
        """Base-VA alignment required by an embedded subtree."""
        return ENTRY_SPAN[subtree_level] * ENTRIES_PER_NODE

    def slots_for(self, subtree_level: int) -> int:
        """Number of candidate base addresses for a subtree of this level.

        This is the placement entropy available to randomization: a 1GB
        PMO (level-2 subtree) has REGION span / 1GB candidate slots.
        """
        align = self.alignment_for(subtree_level)
        return (self.REGION_END - self.REGION_BASE) // align

    def _pick_base(self, subtree_level: int) -> int:
        align = self.alignment_for(subtree_level)
        slots = self.slots_for(subtree_level)
        taken = {m.base_va for m in self._mappings.values()}
        # Rejection-sample a free slot; with thousands of slots and a
        # handful of PMOs this terminates almost immediately.
        for _ in range(10_000):
            slot = self.rng.randrange(slots)
            base = self.REGION_BASE + slot * align
            if base not in taken and not self._overlaps(base, align):
                return base
        raise TerpError("could not find a free randomized slot")

    def _overlaps(self, base: int, span: int) -> bool:
        # A mapping occupies its whole embedded subtree's span, not
        # just ``size_bytes``: a smaller PMO placed anywhere inside
        # that span would collide with the installed subtree root.
        for m in self._mappings.values():
            if base < m.base_va + self.alignment_for(m.subtree_level) \
                    and m.base_va < base + span:
                return True
        return False

    # -- attach / detach ------------------------------------------------------

    def attach(self, pmo, permission: Access) -> Mapping:
        """Map ``pmo`` at a random base; returns the new Mapping."""
        if pmo.pmo_id in self._mappings:
            raise TerpError(f"PMO {pmo.pmo_id!r} already attached")
        level = pmo.subtree.level
        base = self._pick_base(level)
        self.page_table.install_subtree(base, pmo.subtree)
        self.matrix.add(pmo.pmo_id, base, pmo.size_bytes, permission)
        self.domains.assign(pmo.pmo_id)
        mapping = Mapping(pmo.pmo_id, base, pmo.size_bytes, level, permission)
        self._mappings[pmo.pmo_id] = mapping
        self.attach_count += 1
        return mapping

    def detach(self, pmo_id: Hashable) -> Mapping:
        mapping = self._mappings.pop(pmo_id, None)
        if mapping is None:
            raise TerpError(f"PMO {pmo_id!r} is not attached")
        self.page_table.remove_subtree(mapping.base_va, mapping.subtree_level)
        self.matrix.remove(pmo_id)
        self.domains.release(pmo_id)
        self.detach_count += 1
        return mapping

    def randomize(self, pmo_id: Hashable) -> Mapping:
        """Relocate an attached PMO to a fresh random base address."""
        mapping = self._mappings.get(pmo_id)
        if mapping is None:
            raise TerpError(f"PMO {pmo_id!r} is not attached")
        subtree_parent = self.page_table._node_at(
            mapping.base_va, mapping.subtree_level + 1)
        subtree = subtree_parent.lookup(
            index_at_level(mapping.base_va, mapping.subtree_level + 1))
        self.page_table.remove_subtree(mapping.base_va, mapping.subtree_level)
        new_base = self._pick_base(mapping.subtree_level)
        self.page_table.install_subtree(new_base, subtree)
        self.matrix.relocate(pmo_id, new_base)
        mapping.base_va = new_base
        self.randomize_count += 1
        return mapping

    # -- queries -----------------------------------------------------------

    def mapping_of(self, pmo_id: Hashable) -> Optional[Mapping]:
        return self._mappings.get(pmo_id)

    def is_attached(self, pmo_id: Hashable) -> bool:
        return pmo_id in self._mappings

    def attached(self) -> List[Mapping]:
        return list(self._mappings.values())

    def va_of(self, pmo_id: Hashable, offset: int) -> int:
        """Current virtual address of ``offset`` within the PMO."""
        mapping = self._mappings.get(pmo_id)
        if mapping is None:
            raise SegmentationFault(
                f"PMO {pmo_id!r} not attached", pmo_id=pmo_id)
        if not 0 <= offset < mapping.size_bytes:
            raise TerpError(f"offset {offset} outside PMO {pmo_id!r}")
        return mapping.base_va + offset

    # -- the MMU path ---------------------------------------------------------

    def translate(self, va: int) -> Frame:
        frame = self.page_table.walk(va)
        if frame is None:
            raise SegmentationFault(f"no mapping for VA {va:#x}")
        return frame

    def check_access(self, thread_id: int, va: int,
                     requested: Access) -> bool:
        """Full access check: page table + permission matrix + MPK.

        Mirrors the hardware path: translation must exist, the
        process-wide matrix must allow the access, and the thread's
        PKRU must allow the PMO's protection key.
        """
        if self.page_table.walk(va) is None:
            return False
        entry = self.matrix.lookup_va(va)
        if entry is None or not entry.permission.allows(requested):
            return False
        return self.domains.allows(thread_id, entry.pmo_id, requested)

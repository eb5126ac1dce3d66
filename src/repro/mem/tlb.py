"""Set-associative TLB models (Table II: L1 DTLB and L2 TLB).

The TLB caches page translations.  Its role in the reproduction is
twofold: it supplies hit/miss timing to the simulator (the geometry,
latencies and miss penalty are :class:`~repro.arch.params.SimParams`'
TLB rows: L1 4-way 64 entries 1 cycle; L2 6-way 1536 entries 4
cycles; 30-cycle miss penalty), and it is the structure that
attach/detach must *shoot down* — the paper charges 550 cycles per
TLB invalidation, and window combining exists largely to avoid those
shootdowns.

Replacement is LRU within a set.  Translations are symbolic (we cache
the page number only); permission checking lives in the permission
matrix and MPK models, as in the paper's design where the matrix check
happens alongside the TLB lookup.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from repro.arch.params import DEFAULT_PARAMS, SimParams
from repro.core.record import record
from repro.core.units import PAGE_SIZE


@record
class TlbStats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    shootdowns: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Tlb:
    """One TLB level: ``entries`` total slots, ``ways`` associativity."""

    def __init__(self, entries: int, ways: int, name: str = "tlb") -> None:
        if entries % ways:
            raise ValueError("entries must be a multiple of ways")
        self.name = name
        self.ways = ways
        self.num_sets = entries // ways
        #: each set is an LRU-ordered mapping page -> owner tag
        self._sets: List[OrderedDict] = [OrderedDict()
                                         for _ in range(self.num_sets)]
        self.stats = TlbStats()

    def _set_for(self, page: int) -> OrderedDict:
        return self._sets[page % self.num_sets]

    def lookup(self, va: int) -> bool:
        """True on hit; updates LRU and stats."""
        page = va // PAGE_SIZE
        entries = self._set_for(page)
        if page in entries:
            entries.move_to_end(page)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, va: int, owner: str = "") -> None:
        """Insert a translation after a walk, evicting LRU if needed."""
        page = va // PAGE_SIZE
        entries = self._set_for(page)
        if page in entries:
            entries.move_to_end(page)
            return
        if len(entries) >= self.ways:
            entries.popitem(last=False)
        entries[page] = owner

    def invalidate_page(self, va: int) -> bool:
        page = va // PAGE_SIZE
        entries = self._set_for(page)
        if page in entries:
            del entries[page]
            self.stats.invalidations += 1
            return True
        return False

    def invalidate_owner(self, owner: str) -> int:
        """Invalidate all translations tagged with ``owner`` (a PMO id).

        This is the per-PMO shootdown a detach or randomization incurs.
        """
        removed = 0
        for entries in self._sets:
            stale = [page for page, tag in entries.items() if tag == owner]
            for page in stale:
                del entries[page]
                removed += 1
        self.stats.invalidations += removed
        self.stats.shootdowns += 1
        return removed

    def flush(self) -> int:
        removed = sum(len(s) for s in self._sets)
        for entries in self._sets:
            entries.clear()
        self.stats.invalidations += removed
        self.stats.shootdowns += 1
        return removed

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)


class TlbHierarchy:
    """L1 + L2 TLB with the Table II geometry and latencies.

    :meth:`access` returns the latency in cycles for translating ``va``
    and keeps both levels consistent.  A miss in both levels costs the
    walk penalty and fills both.
    """

    def __init__(self, params: SimParams = DEFAULT_PARAMS) -> None:
        self.params = params
        self.l1 = Tlb(entries=params.l1_tlb_entries,
                      ways=params.l1_tlb_ways, name="L1-DTLB")
        self.l2 = Tlb(entries=params.l2_tlb_entries,
                      ways=params.l2_tlb_ways, name="L2-TLB")

    def access(self, va: int, owner: str = "") -> int:
        p = self.params
        if self.l1.lookup(va):
            return p.l1_tlb_latency
        if self.l2.lookup(va):
            self.l1.fill(va, owner)
            return p.l1_tlb_latency + p.l2_tlb_latency
        self.l1.fill(va, owner)
        self.l2.fill(va, owner)
        return p.l1_tlb_latency + p.l2_tlb_latency + p.tlb_miss_penalty

    def invalidate_owner(self, owner: str) -> int:
        return self.l1.invalidate_owner(owner) + \
            self.l2.invalidate_owner(owner)

    def flush(self) -> int:
        return self.l1.flush() + self.l2.flush()

"""The window-combining circular buffer (Figure 7a).

32 entries, 34 bits each: PMO ID (10b), timestamp of the last real
attach (TS, 10b in hardware — modelled unclamped here with the field
widths kept for the area math), a counter of threads holding an attach
(Ctr, 13b), and a delayed-detach bit (DD).  A hardware timer ticks at
a coarse granularity (1µs) and a periodic sweep walks the buffer to
force-detach or re-randomize PMOs whose maximum exposure window has
been reached.

This module is the pure data structure; the decision logic for
CONDAT/CONDDT (cases 1–6 of Figures 7b/7c) lives in
:mod:`repro.arch.cond_engine`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional

from repro.core.errors import SimulationError
from repro.core.record import record

#: Hardware sizing (Section V-B: 32 entries x 34 bits = 140 bytes
#: including the timer).
NUM_ENTRIES = 32
PMOID_BITS = 10
TS_BITS = 10
CTR_BITS = 13
DD_BITS = 1
ENTRY_BITS = PMOID_BITS + TS_BITS + CTR_BITS + DD_BITS
TIMER_BITS = 32
#: Timer tick granularity in ns (1us).
TIMER_TICK_NS = 1_000


@record
class CbEntry:
    """One circular-buffer entry."""

    pmo_id: Hashable
    ts_ns: int           # time of last real attach
    ctr: int = 1         # threads that have made an attach call
    dd: bool = False     # delayed-detach pending

    def age_ns(self, now_ns: int) -> int:
        return now_ns - self.ts_ns


class CircularBuffer:
    """FIFO-ordered buffer of attached PMOs with head-to-tail sweeping."""

    def __init__(self, capacity: int = NUM_ENTRIES) -> None:
        self.capacity = capacity
        self._entries: Dict[Hashable, CbEntry] = {}   # insertion ordered
        self.adds = 0
        self.removes = 0
        self.sweeps = 0

    def lookup(self, pmo_id: Hashable) -> Optional[CbEntry]:
        return self._entries.get(pmo_id)

    def add(self, pmo_id: Hashable, now_ns: int) -> CbEntry:
        """Append a newly attached PMO at the tail."""
        if pmo_id in self._entries:
            raise SimulationError(f"PMO {pmo_id!r} already in buffer")
        if len(self._entries) >= self.capacity:
            raise SimulationError("circular buffer full")
        entry = CbEntry(pmo_id, now_ns)
        self._entries[pmo_id] = entry
        self.adds += 1
        return entry

    def remove(self, pmo_id: Hashable) -> CbEntry:
        entry = self._entries.pop(pmo_id, None)
        if entry is None:
            raise SimulationError(f"PMO {pmo_id!r} not in buffer")
        self.removes += 1
        return entry

    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    def evictable(self) -> Optional[CbEntry]:
        """An entry that can be force-detached to make room: delayed
        detach pending and no thread holding (head-most first)."""
        for entry in self._entries.values():
            if entry.dd and entry.ctr == 0:
                return entry
        return None

    def sweep(self, now_ns: int, max_ew_ns: int) -> List[CbEntry]:
        """Head-to-tail sweep: entries whose EW target has elapsed.

        Returns the expired entries; the caller decides detach (ctr==0)
        vs randomize (ctr>0), per Figure 7a's example.
        """
        self.sweeps += 1
        return [e for e in self._entries.values()
                if e.age_ns(now_ns) >= max_ew_ns]

    def entries(self) -> Iterator[CbEntry]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def storage_bits(capacity: int = NUM_ENTRIES) -> int:
        """Total SRAM bits: entries plus the 32-bit timer."""
        return capacity * ENTRY_BITS + TIMER_BITS

    @staticmethod
    def storage_bytes(capacity: int = NUM_ENTRIES) -> int:
        return -(-CircularBuffer.storage_bits(capacity) // 8)

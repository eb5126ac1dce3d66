"""Access-counting PMO proxy.

Wraps a :class:`~repro.pmo.pmo.Pmo` and counts the reads and writes
flowing through it.  :meth:`repro.workloads.spec.base.Benchmark.measure`
uses it to *measure* a WHISPER benchmark's per-operation access
statistics from the real data structures instead of guessing burst
sizes.
"""

from __future__ import annotations

from typing import Set

from repro.core.record import field, record
from repro.core.units import PAGE_SIZE


@record
class AccessCounts:
    reads: int = 0
    writes: int = 0
    pages: Set[int] = field(default_factory=set)

    @property
    def total(self) -> int:
        return self.reads + self.writes

    @property
    def unique_pages(self) -> int:
        return len(self.pages)

    @property
    def write_fraction(self) -> float:
        return self.writes / self.total if self.total else 0.0

    def reset(self) -> "AccessCounts":
        snapshot = AccessCounts(self.reads, self.writes, set(self.pages))
        self.reads = 0
        self.writes = 0
        self.pages.clear()
        return snapshot


class CountingPmo:
    """A Pmo wrapper that tallies storage-level reads and writes.

    Only the data-access surface is intercepted; allocation and
    transaction calls pass straight through (their internal accesses
    count too, since they go through read/write).
    """

    def __init__(self, pmo) -> None:
        self._pmo = pmo
        self.counts = AccessCounts()

    # -- counted access ------------------------------------------------

    def read(self, offset: int, n: int) -> bytes:
        self.counts.reads += 1
        self.counts.pages.add(offset // PAGE_SIZE)
        return self._pmo.read(offset, n)

    def write(self, offset: int, data: bytes) -> None:
        self.counts.writes += 1
        self.counts.pages.add(offset // PAGE_SIZE)
        self._pmo.write(offset, data)

    def read_u64(self, offset: int) -> int:
        self.counts.reads += 1
        self.counts.pages.add(offset // PAGE_SIZE)
        return self._pmo.read_u64(offset)

    def write_u64(self, offset: int, value: int) -> None:
        self.counts.writes += 1
        self.counts.pages.add(offset // PAGE_SIZE)
        self._pmo.write_u64(offset, value)

    # -- passthrough -----------------------------------------------------

    def __getattr__(self, name):
        return getattr(self._pmo, name)

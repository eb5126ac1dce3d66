"""The persistent memory object: storage, layout, and crash simulation.

A :class:`Pmo` is a container for data structures that lives beyond
process termination (Section II).  It owns:

* **sparse byte storage** — pages materialize on first touch, so a
  1GB PMO costs almost nothing until used;
* a small **header** (magic, size, root OID slot);
* a **redo-log region** providing crash consistency;
* a **heap area** managed by ``pmalloc``/``pfree``;
* an **embedded page-table subtree** (Figure 1a) enabling O(1)
  attach/detach — built lazily and cached.

Simulated crashes drop all volatile state (allocator free lists, open
transactions); :meth:`Pmo.recover` rebuilds from the persistent bytes,
replaying the redo log exactly as a restart would.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional

from repro.core.errors import PmoError
from repro.core.units import KIB, PAGE_SIZE
from repro.mem.page_table import LazySubtreeNode, build_subtree
from repro.pmo.allocator import HeapAllocator
from repro.pmo.object_id import Oid
from repro.pmo.persistence import RedoLog

MAGIC = b"PMO2022!"
HEADER_SIZE = 64
ROOT_OID_OFFSET = 16
DEFAULT_LOG_SIZE = 256 * KIB


class SparseBytes:
    """Zero-initialized sparse byte storage backed by 4KB pages."""

    def __init__(self, size: int) -> None:
        self.size = size
        self._pages: Dict[int, bytearray] = {}

    def _page(self, index: int) -> bytearray:
        page = self._pages.get(index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[index] = page
        return page

    def read(self, offset: int, n: int) -> bytes:
        if not 0 <= offset <= offset + n <= self.size:
            raise PmoError(f"read [{offset}, {offset + n}) out of bounds")
        out = bytearray()
        while n:
            page_idx, page_off = divmod(offset, PAGE_SIZE)
            take = min(n, PAGE_SIZE - page_off)
            page = self._pages.get(page_idx)
            if page is None:
                out.extend(b"\x00" * take)
            else:
                out.extend(page[page_off:page_off + take])
            offset += take
            n -= take
        return bytes(out)

    def write(self, offset: int, data: bytes) -> None:
        n = len(data)
        if not 0 <= offset <= offset + n <= self.size:
            raise PmoError(f"write [{offset}, {offset + n}) out of bounds")
        pos = 0
        while pos < n:
            page_idx, page_off = divmod(offset + pos, PAGE_SIZE)
            take = min(n - pos, PAGE_SIZE - page_off)
            self._page(page_idx)[page_off:page_off + take] = \
                data[pos:pos + take]
            pos += take

    def read_u64(self, offset: int) -> int:
        return struct.unpack("<Q", self.read(offset, 8))[0]

    def write_u64(self, offset: int, value: int) -> None:
        self.write(offset, struct.pack("<Q", value & ((1 << 64) - 1)))

    def resident_bytes(self) -> int:
        return len(self._pages) * PAGE_SIZE

    def snapshot(self) -> "SparseBytes":
        """Deep copy of the current bytes — what a power failure at
        this instant would leave on the persistent media."""
        copy = SparseBytes(self.size)
        copy._pages = {idx: bytearray(page)
                       for idx, page in self._pages.items()}
        return copy


class Pmo:
    """One persistent memory object.

    Parameters mirror ``PMO_create`` from Table I.  ``log_size`` sizes
    the redo-log region; the remainder of the PMO is heap.
    """

    def __init__(self, pmo_id: int, name: str, size_bytes: int, *,
                 owner: str = "root", mode: int = 0o600,
                 log_size: int = DEFAULT_LOG_SIZE,
                 storage: Optional[SparseBytes] = None) -> None:
        min_size = HEADER_SIZE + log_size + 4 * KIB
        if size_bytes < min_size:
            raise PmoError(f"PMO must be at least {min_size} bytes")
        if storage is not None and storage.size != size_bytes:
            raise PmoError(
                f"storage size {storage.size} != PMO size {size_bytes}")
        self.pmo_id = pmo_id
        self.name = name
        self.size_bytes = size_bytes
        self.owner = owner
        self.mode = mode
        self.storage = storage if storage is not None \
            else SparseBytes(size_bytes)
        self._log_base = HEADER_SIZE
        self._log_size = log_size
        self._heap_base = HEADER_SIZE + log_size
        self.quarantined = False
        self.quarantine_reason = ""
        self.storage.write(0, MAGIC)
        self.storage.write_u64(8, size_bytes)
        self.log = RedoLog(self.storage, self._log_base, log_size)
        self.heap = HeapAllocator(self.storage, self._heap_base,
                                  size_bytes - self._heap_base)
        self._subtree: Optional[LazySubtreeNode] = None

    @classmethod
    def from_snapshot(cls, pmo_id: int, name: str,
                      storage: SparseBytes, *,
                      log_size: int = DEFAULT_LOG_SIZE,
                      owner: str = "root",
                      mode: int = 0o600) -> "Pmo":
        """Rebuild a PMO from a byte snapshot (crash-injection path).

        The returned object runs the full recovery procedure — header
        validation, redo-log replay, allocator rescan — exactly as a
        reboot after a power failure at the snapshot instant would.
        """
        pmo = cls._shell(pmo_id, name, storage, log_size=log_size,
                         owner=owner, mode=mode)
        pmo.recover()
        return pmo

    @classmethod
    def quarantined_shell(cls, pmo_id: int, name: str,
                          storage: SparseBytes, *,
                          log_size: int = DEFAULT_LOG_SIZE,
                          owner: str = "root",
                          mode: int = 0o600) -> "Pmo":
        """A PMO whose bytes failed verification too badly for normal
        recovery: readable as-is, no log replay, no allocator.  Used by
        the durable store so forensics on a rotted pool stay possible.
        """
        pmo = cls._shell(pmo_id, name, storage, log_size=log_size,
                         owner=owner, mode=mode)
        pmo.log = RedoLog(SparseBytes(HEADER_SIZE + log_size),
                          HEADER_SIZE, log_size)
        pmo.heap = None
        pmo.quarantine("recovery skipped: persistent bytes failed "
                       "verification")
        return pmo

    @classmethod
    def _shell(cls, pmo_id: int, name: str, storage: SparseBytes, *,
               log_size: int, owner: str, mode: int) -> "Pmo":
        pmo = cls.__new__(cls)
        pmo.pmo_id = pmo_id
        pmo.name = name
        pmo.size_bytes = storage.size
        pmo.owner = owner
        pmo.mode = mode
        pmo.storage = storage
        pmo._log_base = HEADER_SIZE
        pmo._log_size = log_size
        pmo._heap_base = HEADER_SIZE + log_size
        pmo._subtree = None
        pmo.quarantined = False
        pmo.quarantine_reason = ""
        return pmo

    def quarantine(self, reason: str) -> None:
        """Mark the PMO corrupt: reads stay possible, writes are denied
        at the library layer, and the condition is surfaced in metrics
        and on the audit timeline by whoever called us."""
        self.quarantined = True
        if reason and reason not in self.quarantine_reason:
            self.quarantine_reason = (
                f"{self.quarantine_reason}; {reason}"
                if self.quarantine_reason else reason)

    # -- identity / mapping support ---------------------------------------

    @property
    def subtree(self) -> LazySubtreeNode:
        """The embedded page-table subtree (built on first attach)."""
        if self._subtree is None:
            self._subtree = build_subtree(f"pmo{self.pmo_id}",
                                          self.size_bytes)
        return self._subtree

    # -- persistent pointers -------------------------------------------------

    def oid_of(self, offset: int) -> Oid:
        if not 0 <= offset < self.size_bytes:
            raise PmoError(f"offset {offset} outside PMO {self.name!r}")
        return Oid(self.pmo_id, offset)

    def offset_of(self, oid: Oid) -> int:
        if oid.pool_id != self.pmo_id:
            raise PmoError(
                f"OID for pool {oid.pool_id} used on PMO {self.pmo_id}")
        return oid.offset

    @property
    def root_oid(self) -> Oid:
        """The persistent root pointer (entry point into the PMO)."""
        raw = self.storage.read_u64(ROOT_OID_OFFSET)
        return Oid.unpack(raw)

    @root_oid.setter
    def root_oid(self, oid: Oid) -> None:
        self.storage.write_u64(ROOT_OID_OFFSET, oid.pack())

    # -- allocation ------------------------------------------------------------

    def pmalloc(self, size: int) -> Oid:
        """Allocate persistent data; returns the OID of the first byte."""
        offset = self.heap.allocate(size)
        return Oid(self.pmo_id, self._heap_base + offset)

    def pfree(self, oid: Oid) -> None:
        offset = self.offset_of(oid)
        self.heap.free(offset - self._heap_base)

    # -- data access (storage level) --------------------------------------------

    def read(self, offset: int, n: int) -> bytes:
        data = self.storage.read(offset, n)
        if not self.log.in_transaction or not self.log.pending_writes:
            return data
        # Read-your-writes: overlay the open transaction's pending
        # redo-log entries (they have not reached home locations yet).
        buf = bytearray(data)
        for w_off, w_data in self.log.pending_writes:
            lo = max(offset, w_off)
            hi = min(offset + n, w_off + len(w_data))
            if lo < hi:
                buf[lo - offset:hi - offset] = \
                    w_data[lo - w_off:hi - w_off]
        return bytes(buf)

    def write(self, offset: int, data: bytes) -> None:
        if self.log.in_transaction:
            self.log.log_write(offset, data)
        else:
            self.storage.write(offset, data)

    def read_u64(self, offset: int) -> int:
        return struct.unpack("<Q", self.read(offset, 8))[0]

    def write_u64(self, offset: int, value: int) -> None:
        self.write(offset, struct.pack("<Q", value & ((1 << 64) - 1)))

    # -- transactions ----------------------------------------------------------

    def begin_tx(self) -> int:
        return self.log.begin()

    def commit_tx(self) -> None:
        self.log.commit()

    def abort_tx(self) -> None:
        self.log.abort()

    # -- crash simulation --------------------------------------------------------

    def crash(self) -> None:
        """Drop all volatile state, keeping only the persistent bytes.

        Equivalent to a power failure: the open transaction (if any)
        is lost, allocator free lists vanish.
        """
        self._subtree = None
        # Volatile objects are simply discarded; recover() rebuilds.
        self.log = None
        self.heap = None

    def recover(self) -> None:
        """Restart path: validate header, replay log, rebuild allocator."""
        if self.storage.read(0, len(MAGIC)) != MAGIC:
            raise PmoError(f"PMO {self.name!r} has a corrupt header")
        if self.storage.read_u64(8) != self.size_bytes:
            raise PmoError(f"PMO {self.name!r} header size mismatch")
        self.log = RedoLog(self.storage, self._log_base, self._log_size,
                           recover=True)
        self.heap = HeapAllocator(self.storage, self._heap_base,
                                  self.size_bytes - self._heap_base,
                                  recover=True)

    def __repr__(self) -> str:
        return (f"Pmo(id={self.pmo_id}, name={self.name!r}, "
                f"size={self.size_bytes})")

"""Persistent-heap allocator inside a PMO (``pmalloc``/``pfree``).

A first-fit free-list allocator with block headers and coalescing,
operating on offsets within one PMO's data area.  It is deliberately a
real allocator rather than a bump pointer: the Figure 8 experiment
measures *object dead time* — the gap between an object's last write
and its deallocation — which only exists when objects are actually
freed and their slots reused.

Layout: every block is ``[8-byte header][payload]``.  The header packs
the block's payload size and an allocated bit.  Free blocks are
additionally threaded through an in-memory free list (rebuilt on
recovery by scanning headers, as a PM allocator would).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.errors import OutOfPersistentMemory, PmoError
from repro.core.record import record

#: Header occupies 16 bytes (u64 size+flag word, 8 bytes pad) so that
#: payloads stay 16-byte aligned when block sizes are multiples of 16.
HEADER_SIZE = 16
MIN_PAYLOAD = 16
ALIGNMENT = 16
_ALLOCATED_BIT = 1 << 63


def _align(size: int) -> int:
    return (size + ALIGNMENT - 1) & ~(ALIGNMENT - 1)


@record
class _Block:
    offset: int          # offset of the header within the heap area
    payload_size: int
    allocated: bool

    @property
    def total_size(self) -> int:
        return HEADER_SIZE + self.payload_size

    @property
    def payload_offset(self) -> int:
        return self.offset + HEADER_SIZE


class HeapAllocator:
    """First-fit allocator over ``[base, base+size)`` of a PMO.

    The allocator reads and writes headers through the ``memory``
    object (anything exposing ``read_u64(off)`` / ``write_u64(off,
    val)``), so header state genuinely lives in the PMO's persistent
    bytes and survives recovery.
    """

    def __init__(self, memory, base: int, size: int, *,
                 recover: bool = False) -> None:
        if size < HEADER_SIZE + MIN_PAYLOAD:
            raise PmoError("heap area too small")
        self.memory = memory
        self.base = base
        self.size = size
        self.allocated_bytes = 0
        self.alloc_count = 0
        self.free_count = 0
        if recover:
            self._rebuild_free_list()
        else:
            self._format()

    # -- header I/O ---------------------------------------------------------

    def _read_header(self, offset: int) -> _Block:
        raw = self.memory.read_u64(self.base + offset)
        return _Block(offset=offset,
                      payload_size=raw & ~_ALLOCATED_BIT,
                      allocated=bool(raw & _ALLOCATED_BIT))

    def _write_header(self, block: _Block) -> None:
        raw = block.payload_size | (_ALLOCATED_BIT if block.allocated else 0)
        self.memory.write_u64(self.base + block.offset, raw)

    def _format(self) -> None:
        whole = _Block(offset=0, payload_size=self.size - HEADER_SIZE,
                       allocated=False)
        self._write_header(whole)
        self._free_list: List[int] = [0]

    def _rebuild_free_list(self) -> None:
        """Recovery path: scan headers to find free blocks."""
        self._free_list = []
        self.allocated_bytes = 0
        for block in self._walk():
            if block.allocated:
                self.allocated_bytes += block.payload_size
            else:
                self._free_list.append(block.offset)

    def _walk(self) -> Iterator[_Block]:
        offset = 0
        while offset + HEADER_SIZE <= self.size:
            block = self._read_header(offset)
            if block.payload_size == 0 or block.total_size + offset > self.size:
                raise PmoError(f"corrupt heap header at offset {offset}")
            yield block
            offset += block.total_size

    # -- allocation -----------------------------------------------------------

    def allocate(self, size: int) -> int:
        """Allocate ``size`` payload bytes; returns the payload offset."""
        if size <= 0:
            raise PmoError("allocation size must be positive")
        needed = max(_align(size), MIN_PAYLOAD)
        for i, offset in enumerate(self._free_list):
            block = self._read_header(offset)
            if block.allocated or block.payload_size < needed:
                continue
            self._free_list.pop(i)
            leftover = block.payload_size - needed
            if leftover >= HEADER_SIZE + MIN_PAYLOAD:
                # Split: the tail becomes a new free block.
                tail = _Block(offset=offset + HEADER_SIZE + needed,
                              payload_size=leftover - HEADER_SIZE,
                              allocated=False)
                self._write_header(tail)
                self._free_list.append(tail.offset)
                block.payload_size = needed
            block.allocated = True
            self._write_header(block)
            self.allocated_bytes += block.payload_size
            self.alloc_count += 1
            return block.payload_offset
        raise OutOfPersistentMemory(
            f"cannot allocate {size} bytes (used {self.allocated_bytes}"
            f" of {self.size})")

    def free(self, payload_offset: int) -> None:
        """Free a previously allocated payload; coalesces neighbours."""
        header_offset = payload_offset - HEADER_SIZE
        if not 0 <= header_offset < self.size:
            raise PmoError(f"offset {payload_offset} outside heap")
        block = self._read_header(header_offset)
        if not block.allocated:
            raise PmoError(f"double free at offset {payload_offset}")
        block.allocated = False
        self.allocated_bytes -= block.payload_size
        self.free_count += 1
        self._write_header(block)
        self._free_list.append(block.offset)
        self._coalesce()

    def _coalesce(self) -> None:
        """Merge adjacent free blocks (full scan; heaps here are small)."""
        free = sorted(self._free_list)
        merged: List[Tuple[int, int]] = []  # (offset, payload)
        for offset in free:
            block = self._read_header(offset)
            if merged and merged[-1][0] + HEADER_SIZE + merged[-1][1] == offset:
                prev_off, prev_payload = merged[-1]
                merged[-1] = (prev_off,
                              prev_payload + HEADER_SIZE + block.payload_size)
            else:
                merged.append((offset, block.payload_size))
        self._free_list = []
        for offset, payload in merged:
            self._write_header(_Block(offset, payload, allocated=False))
            self._free_list.append(offset)

    # -- introspection -----------------------------------------------------

    def block_count(self) -> Tuple[int, int]:
        """(allocated, free) block counts."""
        alloc = free = 0
        for block in self._walk():
            if block.allocated:
                alloc += 1
            else:
                free += 1
        return alloc, free

    def is_allocated(self, payload_offset: int) -> bool:
        header_offset = payload_offset - HEADER_SIZE
        if not 0 <= header_offset < self.size:
            return False
        try:
            return self._read_header(header_offset).allocated
        except PmoError:
            return False

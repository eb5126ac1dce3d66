"""Relocatable persistent pointers (ObjectIDs).

"To support relocatability, each pointer (64-bit) used in a data
structure consists of a pool ID (ObjectID) and an offset within the
PMO" (Section II).  An :class:`Oid` is that pointer: it survives the
PMO being attached at a different virtual address on every attach,
because consumers translate it through the current attach handle
(``oid_direct``) instead of storing raw VAs.

The packing uses 16 bits of pool id and 48 bits of offset, giving
65535 pools of up to 256 TiB each.  ``Oid.NULL`` (all zeros) plays the
role of a persistent NULL pointer; pool id 0 is reserved for it.
"""

from __future__ import annotations

from repro.core.errors import PmoError
from repro.core.record import record

POOL_BITS = 16
OFFSET_BITS = 48
MAX_POOL_ID = (1 << POOL_BITS) - 1
MAX_OFFSET = (1 << OFFSET_BITS) - 1


@record(frozen=True, order=True)
class Oid:
    """A 64-bit persistent pointer: (pool_id, offset)."""

    pool_id: int
    offset: int

    def __post_init__(self) -> None:
        if not 0 <= self.pool_id <= MAX_POOL_ID:
            raise PmoError(f"pool id {self.pool_id} out of range")
        if not 0 <= self.offset <= MAX_OFFSET:
            raise PmoError(f"offset {self.offset} out of range")

    def pack(self) -> int:
        """The raw 64-bit representation stored inside PMO data."""
        return (self.pool_id << OFFSET_BITS) | self.offset

    @classmethod
    def unpack(cls, raw: int) -> "Oid":
        if not 0 <= raw < (1 << 64):
            raise PmoError(f"raw OID {raw:#x} is not a 64-bit value")
        return cls(raw >> OFFSET_BITS, raw & MAX_OFFSET)

    def is_null(self) -> bool:
        return self.pool_id == 0 and self.offset == 0

    def add(self, delta: int) -> "Oid":
        """Pointer arithmetic within the same pool."""
        return Oid(self.pool_id, self.offset + delta)

    def __repr__(self) -> str:
        if self.is_null():
            return "Oid.NULL"
        return f"Oid(pool={self.pool_id}, off={self.offset:#x})"


#: The persistent NULL pointer.
Oid.NULL = Oid(0, 0)

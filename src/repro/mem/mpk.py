"""Intel-MPK-style per-thread protection domains.

TERP's architecture support "assumes that each attached PMO is
assigned its own protection domain using support such as Intel MPK,
which allows per-thread access control" (Section V-B).  This module
models that substrate:

* 16 protection keys (domain 0 is the default, always accessible);
* each thread owns a PKRU register with two bits per key —
  access-disable (AD) and write-disable (WD);
* writing the PKRU is a cheap user-level operation (the paper charges
  27 cycles for a silent conditional attach/detach, measured as the
  average Intel MPK permission-set time including fences).

The weaker protection of this level in the TERP poset is visible in
the API: :meth:`Pkru.set` needs no privilege, exactly why a
process-wide detach (mapping removal) is the stronger mechanism.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.core.errors import TerpError
from repro.core.permissions import Access
from repro.core.record import record

NUM_KEYS = 16
DEFAULT_KEY = 0


@record
class Pkru:
    """One thread's protection-key rights register.

    Stored as the hardware would: 2 bits per key.  Bit semantics follow
    Intel: AD=1 blocks all access, WD=1 blocks writes.
    """

    value: int = 0

    def set(self, key: int, access: Access) -> None:
        """Program rights for ``key`` from an Access request."""
        _check_key(key)
        ad = 0 if access & Access.READ else 1
        wd = 0 if access & Access.WRITE else 1
        shift = 2 * key
        self.value = (self.value & ~(0b11 << shift)) | ((wd << 1 | ad) << shift)

    def revoke(self, key: int) -> None:
        """Deny all access to ``key`` (AD=1, WD=1)."""
        _check_key(key)
        shift = 2 * key
        self.value |= 0b11 << shift

    def allows(self, key: int, requested: Access) -> bool:
        _check_key(key)
        shift = 2 * key
        ad = (self.value >> shift) & 1
        wd = (self.value >> (shift + 1)) & 1
        if ad and requested & (Access.READ | Access.WRITE):
            return False
        if wd and requested & Access.WRITE:
            return False
        return True

    def granted(self, key: int) -> Access:
        """The Access this PKRU grants for ``key``."""
        acc = Access.NONE
        if self.allows(key, Access.READ):
            acc |= Access.READ
        if self.allows(key, Access.WRITE):
            acc |= Access.WRITE
        return acc


def _check_key(key: int) -> None:
    if not 0 <= key < NUM_KEYS:
        raise TerpError(f"protection key {key} out of range 0..{NUM_KEYS - 1}")


class ProtectionDomains:
    """Allocates protection keys to PMOs and tracks per-thread PKRUs."""

    def __init__(self) -> None:
        self._key_of: Dict[Hashable, int] = {}
        self._free = list(range(1, NUM_KEYS))  # key 0 reserved as default
        self._pkru: Dict[int, Pkru] = {}
        self.pkru_writes = 0

    # -- domain allocation ------------------------------------------------

    def assign(self, pmo_id: Hashable) -> int:
        """Assign a protection key to an attached PMO."""
        if pmo_id in self._key_of:
            return self._key_of[pmo_id]
        if not self._free:
            raise TerpError("out of protection keys (16 domains)")
        key = self._free.pop(0)
        self._key_of[pmo_id] = key
        return key

    def release(self, pmo_id: Hashable) -> None:
        """Return the PMO's key to the pool (on real detach).

        Every thread's rights for the key are revoked first so a stale
        PKRU cannot leak access to the key's next owner.
        """
        key = self._key_of.pop(pmo_id, None)
        if key is None:
            return
        for pkru in self._pkru.values():
            pkru.revoke(key)
        self._free.append(key)
        self._free.sort()

    def key_of(self, pmo_id: Hashable) -> Optional[int]:
        return self._key_of.get(pmo_id)

    # -- per-thread rights --------------------------------------------------

    def pkru_of(self, thread_id: int) -> Pkru:
        pkru = self._pkru.get(thread_id)
        if pkru is None:
            # New threads start with all non-default keys denied: a
            # thread that never attached gets nothing (Figure 4,
            # thread 3).
            pkru = Pkru()
            for key in range(1, NUM_KEYS):
                pkru.revoke(key)
            self._pkru[thread_id] = pkru
        return pkru

    def grant(self, thread_id: int, pmo_id: Hashable, access: Access) -> None:
        key = self._require_key(pmo_id)
        self.pkru_of(thread_id).set(key, access)
        self.pkru_writes += 1

    def revoke(self, thread_id: int, pmo_id: Hashable) -> None:
        key = self._require_key(pmo_id)
        self.pkru_of(thread_id).revoke(key)
        self.pkru_writes += 1

    def allows(self, thread_id: int, pmo_id: Hashable,
               requested: Access) -> bool:
        key = self._key_of.get(pmo_id)
        if key is None:
            return False
        return self.pkru_of(thread_id).allows(key, requested)

    def _require_key(self, pmo_id: Hashable) -> int:
        key = self._key_of.get(pmo_id)
        if key is None:
            raise TerpError(f"PMO {pmo_id!r} has no protection domain")
        return key

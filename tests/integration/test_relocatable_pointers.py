"""Relocatable pointers through randomization (the paper's footnote:
"accesses to a PMO are through relocatable PMO APIs").

Every address a program holds must survive the PMO moving: OIDs are
position-independent, ``oid_direct`` follows the current mapping, and
data structures keep working across arbitrary relocations — while raw
virtual addresses captured before a move become invalid, which is
precisely the security property randomization provides.
"""

import random
import pytest

from repro.core.errors import SegmentationFault
from repro.core.permissions import Access
from repro.core.runtime import TerpRuntime
from repro.core.semantics import EwConsciousSemantics
from repro.core.units import MIB, us
from repro.pmo.pool import PmoManager
from repro.workloads.structures import CritBitTree, PersistentHashMap


def make_runtime():
    manager = PmoManager()
    rt = TerpRuntime(EwConsciousSemantics(us(40)), manager=manager,
                     rng=random.Random(4))
    pmo = manager.create("reloc", 16 * MIB)
    return rt, pmo


class TestRelocatablePointers:
    def test_oid_direct_follows_randomization(self):
        rt, pmo = make_runtime()
        result = rt.attach(1, pmo, Access.RW, 0)
        handle = result.handle
        oid = pmo.pmalloc(64)
        va_before = handle.direct(oid)
        rt.space.randomize(pmo.pmo_id)
        va_after = handle.direct(oid)
        assert va_before != va_after
        # Both addresses resolve to the same frame content.
        assert va_after - rt.space.mapping_of(pmo.pmo_id).base_va == \
            oid.offset

    def test_old_va_invalid_after_randomization(self):
        rt, pmo = make_runtime()
        rt.attach(1, pmo, Access.RW, 0)
        oid = pmo.pmalloc(64)
        va_before = rt.space.va_of(pmo.pmo_id, oid.offset)
        rt.space.randomize(pmo.pmo_id)
        with pytest.raises(SegmentationFault):
            rt.space.translate(va_before)

    def test_handle_records_attach_time_va(self):
        rt, pmo = make_runtime()
        result = rt.attach(1, pmo, Access.RW, 0)
        recorded = result.handle.base_va_at_attach
        rt.space.randomize(pmo.pmo_id)
        # The immutable record does not follow the move (by design);
        # the live mapping does.
        assert result.handle.base_va_at_attach == recorded
        assert rt.space.mapping_of(pmo.pmo_id).base_va != recorded

    def test_structures_survive_many_randomizations(self):
        """Hash map and crit-bit tree are pure-OID structures: any
        number of relocations cannot break them."""
        rt, pmo = make_runtime()
        rt.attach(1, pmo, Access.RW, 0)
        table = PersistentHashMap.create(pmo, 32)
        for i in range(100):
            table.put(f"k{i}".encode(), f"v{i}".encode())
            if i % 10 == 0:
                rt.space.randomize(pmo.pmo_id)
        for i in range(100):
            assert table.get(f"k{i}".encode()) == f"v{i}".encode()

    def test_tree_traversal_across_relocation(self):
        manager = PmoManager()
        pmo = manager.create("t", 16 * MIB)
        rt = TerpRuntime(EwConsciousSemantics(us(40)), manager=manager,
                         rng=random.Random(6))
        rt.attach(1, pmo, Access.RW, 0)
        tree = CritBitTree.create(pmo)
        keys = [f"key-{i:03d}".encode() for i in range(64)]
        for key in keys:
            tree.insert(key, b"v" + key)
        rt.space.randomize(pmo.pmo_id)
        rt.space.randomize(pmo.pmo_id)
        assert [k for k, _ in tree.items()] == sorted(keys)

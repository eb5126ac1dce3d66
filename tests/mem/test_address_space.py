"""Address space: attach/detach/randomize + full MMU access checks."""

import random

import numpy as np
import pytest

from repro.core.errors import SegmentationFault, TerpError
from repro.core.permissions import Access
from repro.core.units import GIB, MIB, PAGE_SIZE
from repro.mem.address_space import AddressSpace
from repro.mem.page_table import PageTableNode, build_subtree


class FakePmo:
    """Minimal PMO-like object for substrate tests."""

    def __init__(self, pmo_id, size_bytes):
        self.pmo_id = pmo_id
        self.size_bytes = size_bytes
        self.subtree = build_subtree(str(pmo_id), size_bytes)


@pytest.fixture
def space():
    return AddressSpace(rng=random.Random(42))


@pytest.fixture
def pmo():
    return FakePmo("pmo1", GIB)


class TestMixedSubtreeLevels:
    """A 512 KiB PMO (level-1 subtree, 2 MiB span) beside a 4 MiB one
    (level-2 subtree, 1 GiB span): overlap is judged on subtree spans,
    not byte sizes, so neither is ever placed inside the other."""

    @staticmethod
    def disjoint(space):
        a, b = space.attached()
        a_end = a.base_va + space.alignment_for(a.subtree_level)
        b_end = b.base_va + space.alignment_for(b.subtree_level)
        return a_end <= b.base_va or b_end <= a.base_va

    def test_small_pmo_never_lands_inside_a_large_ones_subtree(self):
        small = FakePmo("small", 512 * 1024)
        large = FakePmo("large", 4 * MIB)
        assert small.subtree.level < large.subtree.level
        for seed in range(200):
            space = AddressSpace(rng=random.Random(seed))
            space.REGION_END = 2 * GIB     # two level-2 slots
            space.attach(large, Access.RW)
            space.attach(small, Access.RW)
            assert self.disjoint(space), seed

    def test_mixed_sizes_attach_detach_rounds(self):
        # 200 rounds in a crowded region: besides never overlapping,
        # a 1 GiB slot a small PMO once passed through (its path was
        # created for it) must stay attachable.
        small = FakePmo("small", 512 * 1024)
        large = FakePmo("large", 4 * MIB)
        rng = np.random.default_rng(7)
        space = AddressSpace(rng=random.Random(7))
        space.REGION_END = 4 * GIB
        for _ in range(200):
            for pmo in rng.permutation([small, large]):
                space.attach(pmo, Access.RW)
            assert self.disjoint(space)
            for pmo in rng.permutation([small, large]):
                space.detach(pmo.pmo_id)
        assert small.subtree.entries.keys() == \
            FakePmo("fresh", 512 * 1024).subtree.entries.keys()
        assert large.subtree.entries.keys() == \
            FakePmo("fresh", 4 * MIB).subtree.entries.keys()


def table_nodes(space):
    """Nodes reachable from the process page table's root."""
    stack, count = [space.page_table.root], 0
    while stack:
        count += 1
        stack.extend(entry for entry in stack.pop().entries.values()
                     if isinstance(entry, PageTableNode))
    return count


class TestPageTableFootprint:
    @pytest.mark.parametrize("size", [MIB, 4 * MIB])
    def test_detach_leaves_the_table_as_attach_found_it(self, size):
        # Each attach and relocation builds a path to a fresh random
        # slot; a detach that kept the emptied intermediate nodes left
        # ~2 per cycle behind for a 1 MiB PMO, never freed.
        space = AddressSpace(rng=random.Random(3))
        pmo = FakePmo("cycled", size)
        before = table_nodes(space)
        for cycle in range(500):
            space.attach(pmo, Access.RW)
            space.randomize(pmo.pmo_id)
            space.detach(pmo.pmo_id)
            assert table_nodes(space) == before, cycle


class TestAttachDetach:
    def test_attach_maps_and_registers(self, space, pmo):
        mapping = space.attach(pmo, Access.RW)
        assert space.is_attached("pmo1")
        assert space.page_table.walk(mapping.base_va) is not None
        assert space.matrix.entry_for("pmo1") is not None
        assert space.domains.key_of("pmo1") is not None

    def test_base_is_aligned(self, space, pmo):
        mapping = space.attach(pmo, Access.RW)
        assert mapping.base_va % space.alignment_for(2) == 0

    def test_double_attach_rejected(self, space, pmo):
        space.attach(pmo, Access.RW)
        with pytest.raises(TerpError):
            space.attach(pmo, Access.RW)

    def test_detach_clears_everything(self, space, pmo):
        mapping = space.attach(pmo, Access.RW)
        space.detach("pmo1")
        assert not space.is_attached("pmo1")
        assert space.page_table.walk(mapping.base_va) is None
        assert space.matrix.entry_for("pmo1") is None
        assert space.domains.key_of("pmo1") is None

    def test_detach_unattached_rejected(self, space):
        with pytest.raises(TerpError):
            space.detach("ghost")

    def test_multiple_pmos_disjoint(self, space):
        maps = [space.attach(FakePmo(f"p{i}", 64 * MIB), Access.RW)
                for i in range(6)]
        for i, a in enumerate(maps):
            for b in maps[i + 1:]:
                assert (a.base_va + a.size_bytes <= b.base_va
                        or b.base_va + b.size_bytes <= a.base_va)


class TestRandomization:
    def test_randomize_moves_base(self, space, pmo):
        m = space.attach(pmo, Access.RW)
        old = m.base_va
        space.randomize("pmo1")
        # With thousands of slots a same-slot redraw is astronomically
        # unlikely under this seed; assert it moved.
        assert space.mapping_of("pmo1").base_va != old

    def test_old_address_dead_after_randomize(self, space, pmo):
        m = space.attach(pmo, Access.RW)
        old = m.base_va
        space.randomize("pmo1")
        assert space.page_table.walk(old) is None
        new = space.mapping_of("pmo1").base_va
        assert space.page_table.walk(new) is not None

    def test_randomize_preserves_contents_mapping(self, space, pmo):
        """Same subtree: offset k still reaches frame k after the move."""
        space.attach(pmo, Access.RW)
        space.randomize("pmo1")
        base = space.mapping_of("pmo1").base_va
        frame = space.page_table.walk(base + 5 * PAGE_SIZE)
        assert frame.page_index == 5

    def test_randomize_detached_rejected(self, space):
        with pytest.raises(TerpError):
            space.randomize("ghost")

    def test_slots_for_1gb_pmo(self, space):
        # 256TB region / 1GB alignment = 256K candidate slots (18 bits),
        # matching the paper's 18-bit entropy for a 1GB PMO.
        assert space.slots_for(2) == 256 * 1024

    def test_deterministic_under_seed(self):
        s1 = AddressSpace(rng=random.Random(7))
        s2 = AddressSpace(rng=random.Random(7))
        m1 = s1.attach(FakePmo("p", GIB), Access.RW)
        m2 = s2.attach(FakePmo("p", GIB), Access.RW)
        assert m1.base_va == m2.base_va


class TestAccessPath:
    def test_va_of_translates_offsets(self, space, pmo):
        m = space.attach(pmo, Access.RW)
        assert space.va_of("pmo1", 0) == m.base_va
        assert space.va_of("pmo1", 12345) == m.base_va + 12345

    def test_va_of_detached_segfaults(self, space):
        with pytest.raises(SegmentationFault):
            space.va_of("pmo1", 0)

    def test_va_of_out_of_bounds(self, space, pmo):
        space.attach(pmo, Access.RW)
        with pytest.raises(TerpError):
            space.va_of("pmo1", GIB)

    def test_check_access_needs_thread_grant(self, space, pmo):
        m = space.attach(pmo, Access.RW)
        va = m.base_va
        assert not space.check_access(1, va, Access.READ)
        space.domains.grant(1, "pmo1", Access.READ)
        assert space.check_access(1, va, Access.READ)
        assert not space.check_access(1, va, Access.WRITE)

    def test_check_access_caps_at_matrix_permission(self, space):
        pmo = FakePmo("ro", GIB)
        m = space.attach(pmo, Access.READ)
        space.domains.grant(1, "ro", Access.RW)
        assert not space.check_access(1, m.base_va, Access.WRITE)

    def test_check_access_unmapped_false(self, space):
        assert not space.check_access(1, 0x1234000, Access.READ)

    def test_translate_segfault(self, space):
        with pytest.raises(SegmentationFault):
            space.translate(0x1234000)

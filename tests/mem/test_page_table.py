"""Page tables and embedded PMO subtrees (Figure 1a)."""

import pytest

from repro.core.errors import TerpError
from repro.core.units import GIB, KIB, MIB, PAGE_SIZE
from repro.mem.page_table import (
    ENTRIES_PER_NODE, ENTRY_SPAN, Frame, PageTable, PageTableNode,
    build_subtree, index_at_level, subtree_level_for, VA_SPAN)


class TestIndexing:
    def test_level1_index_uses_low_bits(self):
        assert index_at_level(0, 1) == 0
        assert index_at_level(PAGE_SIZE, 1) == 1
        assert index_at_level(511 * PAGE_SIZE, 1) == 511
        assert index_at_level(512 * PAGE_SIZE, 1) == 0

    def test_level2_index(self):
        assert index_at_level(2 * MIB, 2) == 1
        assert index_at_level(GIB - 1, 2) == 511

    def test_root_span_is_256_tib(self):
        assert VA_SPAN == 256 * 1024 * GIB


class TestSubtreeLevel:
    def test_small_pmo_level1(self):
        assert subtree_level_for(128 * KIB) == 1
        assert subtree_level_for(2 * MIB) == 1

    def test_medium_pmo_level2(self):
        assert subtree_level_for(2 * MIB + 1) == 2
        assert subtree_level_for(GIB) == 2

    def test_large_pmo_level3(self):
        assert subtree_level_for(GIB + 1) == 3
        assert subtree_level_for(512 * GIB) == 3

    def test_zero_size_rejected(self):
        with pytest.raises(TerpError):
            subtree_level_for(0)

    def test_too_large_rejected(self):
        with pytest.raises(TerpError):
            subtree_level_for(513 * GIB)


class TestBuildSubtree:
    def test_1gb_pmo_fully_populated(self):
        tree = build_subtree("pmo1", GIB)
        assert tree.level == 2
        assert tree.populated() == 512  # 512 x 2MB children

    def test_leaf_frames_cover_all_pages(self):
        tree = build_subtree("p", 16 * PAGE_SIZE)
        assert tree.level == 1
        frames = [tree.lookup(i) for i in range(16)]
        assert all(isinstance(f, Frame) for f in frames)
        assert [f.page_index for f in frames] == list(range(16))
        assert tree.lookup(16) is None

    def test_partial_last_node(self):
        # 3MB = 768 pages: one full level-1 child + one half-full.
        tree = build_subtree("p", 3 * MIB)
        assert tree.level == 2
        assert tree.populated() == 2
        assert tree.lookup(1).populated() == 256


class TestConventionalMapping:
    def test_map_and_walk(self):
        pt = PageTable()
        pt.map_pages(0x10000, "pmo", 4)
        frame = pt.walk(0x10000 + 2 * PAGE_SIZE)
        assert frame == Frame("pmo", 2)

    def test_walk_unmapped_returns_none(self):
        assert PageTable().walk(0x5000) is None

    def test_unaligned_base_rejected(self):
        with pytest.raises(TerpError):
            PageTable().map_pages(0x10001, "pmo", 1)

    def test_double_map_rejected(self):
        pt = PageTable()
        pt.map_pages(0, "a", 1)
        with pytest.raises(TerpError):
            pt.map_pages(0, "b", 1)

    def test_unmap(self):
        pt = PageTable()
        pt.map_pages(0, "a", 2)
        pt.unmap_pages(0, 2)
        assert not pt.is_mapped(0)
        assert not pt.is_mapped(PAGE_SIZE)

    def test_pte_writes_grow_linearly_with_size(self):
        """The overhead MERR's embedding removes: O(pages) PTE writes."""
        small, large = PageTable(), PageTable()
        small.map_pages(0, "a", 16)
        large.map_pages(0, "a", 256)
        assert large.pte_writes > small.pte_writes
        # At least one write per page.
        assert large.pte_writes >= 256

    def test_walk_out_of_range(self):
        assert PageTable().walk(VA_SPAN + PAGE_SIZE) is None
        assert PageTable().walk(-1) is None


class TestEmbeddedSubtree:
    def test_install_is_constant_pte_writes(self):
        """The headline property: attach cost independent of PMO size."""
        span = ENTRY_SPAN[2] * ENTRIES_PER_NODE  # 1GB alignment
        small_pt, large_pt = PageTable(), PageTable()
        small_tree = build_subtree("small", 3 * MIB)   # level-2, 2 children
        large_tree = build_subtree("large", GIB)       # level-2, 512 children
        small_pt.install_subtree(span, small_tree)
        large_pt.install_subtree(span, large_tree)
        # Identical number of process-side PTE writes despite the 300x
        # size difference (path creation + 1 entry).
        assert small_pt.pte_writes == large_pt.pte_writes

    def test_walk_through_subtree(self):
        pt = PageTable()
        tree = build_subtree("pmo", GIB)
        base = ENTRY_SPAN[2] * ENTRIES_PER_NODE * 3
        pt.install_subtree(base, tree)
        assert pt.walk(base) == Frame("pmo", 0)
        offset = 123 * PAGE_SIZE
        assert pt.walk(base + offset) == Frame("pmo", 123)
        last = GIB - PAGE_SIZE
        assert pt.walk(base + last) == Frame("pmo", last // PAGE_SIZE)

    def test_unaligned_install_rejected(self):
        pt = PageTable()
        tree = build_subtree("pmo", GIB)
        with pytest.raises(TerpError):
            pt.install_subtree(PAGE_SIZE, tree)

    def test_double_install_rejected(self):
        pt = PageTable()
        base = ENTRY_SPAN[2] * ENTRIES_PER_NODE
        pt.install_subtree(base, build_subtree("a", GIB))
        with pytest.raises(TerpError):
            pt.install_subtree(base, build_subtree("b", GIB))

    def test_remove_subtree(self):
        pt = PageTable()
        base = ENTRY_SPAN[2] * ENTRIES_PER_NODE
        pt.install_subtree(base, build_subtree("a", GIB))
        pt.remove_subtree(base, 2)
        assert pt.walk(base) is None

    def test_remove_missing_subtree_rejected(self):
        with pytest.raises(TerpError):
            PageTable().remove_subtree(0, 2)

    def test_reinstall_after_remove_at_new_base(self):
        """Randomization: same subtree, new base, old VA dead."""
        pt = PageTable()
        align = ENTRY_SPAN[2] * ENTRIES_PER_NODE
        tree = build_subtree("pmo", GIB)
        pt.install_subtree(align, tree)
        pt.remove_subtree(align, 2)
        pt.install_subtree(7 * align, tree)
        assert pt.walk(align) is None
        assert pt.walk(7 * align) == Frame("pmo", 0)

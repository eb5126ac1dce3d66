"""Multi-level page tables with embeddable PMO subtrees (Figure 1a).

The substrate models an x86-64-style radix page table: each level
indexes 9 bits of the virtual address, leaves map 4KB pages.  The root
(like the PML4) sits at level 4, so the user VA span is 256 TiB.

The MERR/TERP trick reproduced here: a PMO carries its own *page-table
subtree* as persistent metadata.  Attaching the PMO to a process means
installing a single entry in the process's table that points at the
PMO's subtree root — O(1) PTE writes instead of one per 4KB page.
Detaching removes that entry.  :class:`PageTable` counts PTE writes so
the cost difference is measurable (and tested).

"Physical" frames are symbolic ``Frame`` tuples — enough for a
functional MMU and deliberately free of real storage concerns.

Level convention: a node at level *N* (1 <= N <= 4) is indexed by VA
bits ``[12 + 9*(N-1), 12 + 9*N)``.  Entries of a level-1 node are
:class:`Frame` leaves; entries of higher nodes are child nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.errors import TerpError
from repro.core.units import PAGE_SIZE

BITS_PER_LEVEL = 9
ENTRIES_PER_NODE = 1 << BITS_PER_LEVEL
PAGE_SHIFT = 12  # 4KB pages
#: The root node's level (PML4-equivalent).
ROOT_LEVEL = 4
#: VA span covered by ONE ENTRY of a node at level N (index by level).
ENTRY_SPAN = {level: PAGE_SIZE * (ENTRIES_PER_NODE ** (level - 1))
              for level in range(1, ROOT_LEVEL + 1)}
#: Total VA span of the whole table (256 TiB).
VA_SPAN = ENTRY_SPAN[ROOT_LEVEL] * ENTRIES_PER_NODE


@dataclass(frozen=True)
class Frame:
    """A symbolic physical frame: which PMO (or anon region) and page."""

    owner: str
    page_index: int


def index_at_level(va: int, level: int) -> int:
    """The entry index ``va`` selects within a node at ``level``."""
    return (va >> (PAGE_SHIFT + BITS_PER_LEVEL * (level - 1))) \
        & (ENTRIES_PER_NODE - 1)


class PageTableNode:
    """One page-table page: up to 512 entries, children or Frames."""

    __slots__ = ("level", "entries")

    def __init__(self, level: int) -> None:
        if not 1 <= level <= ROOT_LEVEL:
            raise TerpError(f"invalid page-table level {level}")
        self.level = level
        self.entries: Dict[int, object] = {}

    def lookup(self, index: int):
        return self.entries.get(index)

    def set(self, index: int, value) -> None:
        if not 0 <= index < ENTRIES_PER_NODE:
            raise TerpError(f"page-table index {index} out of range")
        self.entries[index] = value

    def clear(self, index: int) -> None:
        self.entries.pop(index, None)

    def populated(self) -> int:
        return len(self.entries)


def subtree_level_for(size_bytes: int) -> int:
    """Smallest level whose single node spans ``size_bytes``.

    A 128KB PMO fits in one level-1 node (2MB span); a 1GB PMO needs a
    level-2 node (1GB span).
    """
    if size_bytes <= 0:
        raise TerpError("PMO size must be positive")
    level = 1
    while ENTRY_SPAN[level] * ENTRIES_PER_NODE < size_bytes:
        level += 1
        if level >= ROOT_LEVEL:
            raise TerpError(f"PMO of {size_bytes} bytes too large to embed")
    return level


class LazySubtreeNode(PageTableNode):
    """A PMO subtree node that materializes children on first lookup:
    O(1) to construct, where building every leaf up front would cost a
    1GB PMO ~262K Frame objects before a single access happens.
    """

    __slots__ = ("owner", "first_page", "num_pages")

    def __init__(self, owner: str, level: int, first_page: int,
                 num_pages: int) -> None:
        super().__init__(level)
        self.owner = owner
        self.first_page = first_page
        self.num_pages = num_pages

    def lookup(self, index: int):
        entry = self.entries.get(index)
        if entry is not None:
            return entry
        pages_per_entry = ENTRY_SPAN[self.level] // PAGE_SIZE
        start = self.first_page + index * pages_per_entry
        if start >= self.first_page + self.num_pages or index >= ENTRIES_PER_NODE:
            return None
        if self.level == 1:
            entry = Frame(self.owner, start)
        else:
            remaining = self.first_page + self.num_pages - start
            entry = LazySubtreeNode(self.owner, self.level - 1, start,
                                    min(pages_per_entry, remaining))
        self.entries[index] = entry
        return entry

    def populated(self) -> int:
        """Logical entry count (as if fully materialized)."""
        pages_per_entry = ENTRY_SPAN[self.level] // PAGE_SIZE
        return min(ENTRIES_PER_NODE,
                   -(-self.num_pages // pages_per_entry))


def build_subtree(owner: str, size_bytes: int) -> LazySubtreeNode:
    """Build the page-table subtree a PMO embeds, covering
    ``size_bytes``: its leaves map every page of the PMO to its own
    frames — the persistent metadata MERR embeds inside the PMO."""
    level = subtree_level_for(size_bytes)
    num_pages = (size_bytes + PAGE_SIZE - 1) // PAGE_SIZE
    return LazySubtreeNode(owner, level, 0, num_pages)


class PageTable:
    """A process page table supporting both mapping styles.

    * :meth:`map_pages` / :meth:`unmap_pages` — conventional per-page
      mapping: O(pages) PTE writes (what a plain mmap-style attach
      costs; the baseline MERR improves on).
    * :meth:`install_subtree` / :meth:`remove_subtree` — O(1)
      embedded-subtree attach used by MERR and TERP.

    ``pte_writes`` accumulates the number of PTE updates performed, the
    quantity the fast-attach design minimizes.
    """

    def __init__(self) -> None:
        self.root = PageTableNode(ROOT_LEVEL)
        self.pte_writes = 0

    # -- walking ------------------------------------------------------

    def walk(self, va: int) -> Optional[Frame]:
        """Resolve a VA to a Frame, or None if unmapped."""
        if not 0 <= va < VA_SPAN:
            return None
        node = self.root
        while True:
            entry = node.lookup(index_at_level(va, node.level))
            if entry is None:
                return None
            if isinstance(entry, Frame):
                return entry
            node = entry

    def is_mapped(self, va: int) -> bool:
        return self.walk(va) is not None

    # -- conventional mapping ------------------------------------------

    def map_pages(self, base_va: int, owner: str, num_pages: int) -> int:
        """Map ``num_pages`` pages one PTE at a time. Returns PTE writes."""
        if base_va % PAGE_SIZE:
            raise TerpError("base VA must be page aligned")
        writes = 0
        for page in range(num_pages):
            va = base_va + page * PAGE_SIZE
            node = self._ensure_path(va, 1)
            idx = index_at_level(va, 1)
            if node.lookup(idx) is not None:
                raise TerpError(f"page at {va:#x} already mapped")
            node.set(idx, Frame(owner, page))
            writes += 1
        self.pte_writes += writes
        return writes

    def unmap_pages(self, base_va: int, num_pages: int) -> int:
        writes = 0
        for page in range(num_pages):
            va = base_va + page * PAGE_SIZE
            node = self._node_at(va, 1)
            if node is not None and node.lookup(index_at_level(va, 1)) is not None:
                node.clear(index_at_level(va, 1))
                writes += 1
        self.pte_writes += writes
        return writes

    # -- embedded-subtree mapping ---------------------------------------

    def install_subtree(self, base_va: int, subtree: PageTableNode) -> int:
        """Install a PMO subtree at ``base_va``; O(1) PTE writes.

        ``base_va`` must be aligned to the subtree's span so the whole
        subtree hangs off a single parent entry (this is what makes the
        attach constant-time).
        """
        span = ENTRY_SPAN[subtree.level] * ENTRIES_PER_NODE
        if base_va % span:
            raise TerpError(
                f"base VA {base_va:#x} not aligned to subtree span {span:#x}")
        parent = self._ensure_path(base_va, subtree.level + 1)
        idx = index_at_level(base_va, subtree.level + 1)
        if parent.lookup(idx) is not None:
            raise TerpError(f"VA {base_va:#x} already mapped")
        parent.set(idx, subtree)
        self.pte_writes += 1
        return 1

    def remove_subtree(self, base_va: int, subtree_level: int) -> int:
        """Unmap the subtree at ``base_va``, and every intermediate
        node that leaves empty: a relocated PMO rarely comes back to a
        path, so those would pile up one path per relocation."""
        path = [self.root]          # the root down to the subtree
        while path[-1].level > subtree_level:
            node = path[-1].lookup(index_at_level(base_va,
                                                  path[-1].level))
            if not isinstance(node, PageTableNode):
                raise TerpError(f"no subtree mapped at {base_va:#x}")
            path.append(node)
        writes = 0
        for node in reversed(path[:-1]):
            node.clear(index_at_level(base_va, node.level))
            writes += 1
            if node.entries or node is self.root:
                break
        self.pte_writes += writes
        return writes

    # -- internals ------------------------------------------------------

    def _ensure_path(self, va: int, target_level: int) -> PageTableNode:
        """Descend (creating intermediate nodes) to the node at
        ``target_level`` on the path of ``va``."""
        node = self.root
        while node.level > target_level:
            idx = index_at_level(va, node.level)
            child = node.lookup(idx)
            if child is None:
                child = PageTableNode(node.level - 1)
                node.set(idx, child)
                self.pte_writes += 1
            elif isinstance(child, Frame):
                raise TerpError("cannot descend through a mapped frame")
            node = child
        return node

    def _node_at(self, va: int, target_level: int) -> Optional[PageTableNode]:
        node = self.root
        while node.level > target_level:
            child = node.lookup(index_at_level(va, node.level))
            if child is None or isinstance(child, Frame):
                return None
            node = child
        return node

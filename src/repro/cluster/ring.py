"""A seeded consistent-hash ring over PMO names.

Placement must satisfy three properties at once: every router process
(and the chaos checker) computes the same owner for the same name
with zero coordination; load spreads evenly across shards; and
adding or removing one shard remaps only ~1/N of the keyspace — the
classic consistent-hashing guarantee (Karger et al.), which the ring
gets from hashing each node to ``vnodes`` points on a 64-bit circle
and assigning a key to the first node point at or after the key's
hash.

Hashing is ``blake2b`` keyed by the seed — never the builtin
``hash()``, whose per-process ``PYTHONHASHSEED`` randomization would
give every shard process a different ring.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, List, Tuple

#: Points per node: enough that the max/mean load ratio stays small
#: at small N without making ring construction or lookup noticeable.
DEFAULT_VNODES = 96


class HashRing:
    """Consistent hashing of string keys onto integer node ids."""

    def __init__(self, nodes: Iterable[int], *,
                 vnodes: int = DEFAULT_VNODES,
                 seed: int = 2022) -> None:
        self.vnodes = vnodes
        self.seed = seed
        self._points: List[Tuple[int, int]] = []   # (hash, node)
        self._hashes: List[int] = []
        self._nodes: set = set()
        for node in nodes:
            self.add_node(node)

    def _hash(self, value: str) -> int:
        digest = hashlib.blake2b(
            value.encode("utf-8"), digest_size=8,
            key=self.seed.to_bytes(8, "big", signed=False)).digest()
        return int.from_bytes(digest, "big")

    def _rebuild(self) -> None:
        self._points.sort()
        self._hashes = [h for h, _ in self._points]

    def add_node(self, node: int) -> None:
        if node in self._nodes:
            raise ValueError(f"node {node} already on the ring")
        self._nodes.add(node)
        self._points.extend(
            (self._hash(f"node:{node}:{i}"), node)
            for i in range(self.vnodes))
        self._rebuild()

    def owner(self, key: str) -> int:
        """The node owning ``key``: first point clockwise of its hash."""
        if not self._points:
            raise ValueError("empty ring")
        index = bisect.bisect_right(self._hashes, self._hash(key))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    @property
    def nodes(self) -> List[int]:
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

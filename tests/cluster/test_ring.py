"""The consistent-hash ring: determinism, balance, remap stability."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.ring import HashRing


class TestDeterminism:
    def test_same_seed_same_placement(self):
        a = HashRing(range(4), seed=2022)
        b = HashRing(range(4), seed=2022)
        keys = [f"pmo-{i}" for i in range(500)]
        assert [a.owner(k) for k in keys] == \
            [b.owner(k) for k in keys]

    def test_different_seed_different_placement(self):
        a = HashRing(range(4), seed=2022)
        b = HashRing(range(4), seed=2023)
        keys = [f"pmo-{i}" for i in range(500)]
        assert [a.owner(k) for k in keys] != \
            [b.owner(k) for k in keys]

    def test_build_order_is_irrelevant(self):
        a = HashRing([0, 1, 2, 3], seed=7)
        b = HashRing([3, 1, 0, 2], seed=7)
        keys = [f"k{i}" for i in range(200)]
        assert [a.owner(k) for k in keys] == \
            [b.owner(k) for k in keys]


class TestBalance:
    def test_load_spreads_across_shards(self):
        ring = HashRing(range(4), seed=2022)
        counts = {n: 0 for n in range(4)}
        for i in range(4000):
            counts[ring.owner(f"pmo-{i}")] += 1
        # With 96 vnodes the max/mean ratio stays modest.
        assert min(counts.values()) > 4000 / 4 * 0.5
        assert max(counts.values()) < 4000 / 4 * 1.7


class TestRemapStability:
    @settings(max_examples=30, deadline=None)
    @given(nodes=st.integers(min_value=2, max_value=8),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_removal_remaps_at_most_its_own_share(self, nodes, seed):
        """The consistent-hashing guarantee: the ring without one of
        N nodes moves only the keys that node owned — every key owned
        by a survivor keeps its owner.  (That is at most ~1/N of the
        keyspace in expectation, well under the 2/N acceptance
        bound.)"""
        ring = HashRing(range(nodes), seed=seed)
        keys = [f"key-{seed}-{i}" for i in range(600)]
        before = {k: ring.owner(k) for k in keys}
        victim = seed % nodes
        survivors = HashRing(
            [n for n in range(nodes) if n != victim], seed=seed)
        moved = 0
        for k in keys:
            after = survivors.owner(k)
            if before[k] != victim:
                assert after == before[k], \
                    "a survivor-owned key moved"
            else:
                moved += 1
                assert after != victim
        assert moved <= len(keys) * 2 / nodes

    @settings(max_examples=30, deadline=None)
    @given(nodes=st.integers(min_value=1, max_value=8),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_addition_steals_only_for_itself(self, nodes, seed):
        ring = HashRing(range(nodes), seed=seed)
        keys = [f"key-{seed}-{i}" for i in range(600)]
        before = {k: ring.owner(k) for k in keys}
        ring.add_node(nodes)
        moved = 0
        for k in keys:
            after = ring.owner(k)
            if after != before[k]:
                # A key only ever moves *to* the new node.
                assert after == nodes
                moved += 1
        assert moved <= len(keys) * 2 / (nodes + 1)


class TestEdges:
    def test_duplicate_node_rejected(self):
        ring = HashRing(range(2))
        with pytest.raises(ValueError):
            ring.add_node(1)

    def test_empty_ring_rejects_lookup(self):
        ring = HashRing([])
        with pytest.raises(ValueError):
            ring.owner("k")

    def test_len_and_nodes(self):
        ring = HashRing([2, 0, 1])
        assert len(ring) == 3
        assert ring.nodes == [0, 1, 2]

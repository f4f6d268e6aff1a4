"""Consistent-hash ring: determinism, balance, minimal remapping."""

from __future__ import annotations

import pytest

from repro.serving.gateway.hashring import ConsistentHashRing


KEYS = [f"platform-{i}" for i in range(512)]


class TestRingBasics:
    def test_empty_ring_raises(self):
        with pytest.raises(LookupError):
            ConsistentHashRing().node("anything")

    def test_single_node_owns_everything(self):
        ring = ConsistentHashRing(["only"])
        assert all(ring.node(k) == "only" for k in KEYS)

    def test_duplicate_node_rejected(self):
        ring = ConsistentHashRing([0, 1])
        with pytest.raises(ValueError):
            ring.add(1)

    def test_remove_unknown_rejected(self):
        with pytest.raises(ValueError):
            ConsistentHashRing([0]).remove(7)

    def test_mapping_is_deterministic(self):
        a = ConsistentHashRing(range(4))
        b = ConsistentHashRing(range(4))
        assert [a.node(k) for k in KEYS] == [b.node(k) for k in KEYS]

    def test_insertion_order_does_not_matter(self):
        a = ConsistentHashRing([0, 1, 2, 3])
        b = ConsistentHashRing([3, 1, 0, 2])
        assert [a.node(k) for k in KEYS] == [b.node(k) for k in KEYS]


class TestRingProperties:
    def test_every_node_gets_a_share(self):
        ring = ConsistentHashRing(range(4))
        owners = [ring.node(key) for key in KEYS]
        counts = {node: owners.count(node) for node in range(4)}
        # vnodes keep the split coarse-balanced: nobody starves, nobody
        # hoards (bounds loose on purpose — affinity, not load balancing)
        assert min(counts.values()) >= len(KEYS) // 16
        assert max(counts.values()) <= len(KEYS) // 2

    def test_adding_a_node_remaps_only_a_slice(self):
        before = ConsistentHashRing(range(4))
        owners_before = {k: before.node(k) for k in KEYS}
        before.add(4)
        moved = sum(1 for k in KEYS if before.node(k) != owners_before[k])
        # consistent hashing: ~1/5 of keys move to the new node; modulo
        # hashing would remap ~4/5
        assert 0 < moved <= len(KEYS) // 2
        assert all(before.node(k) == 4
                   for k in KEYS if before.node(k) != owners_before[k])

    def test_removing_a_node_strands_no_key(self):
        ring = ConsistentHashRing(range(4))
        owners_before = {k: ring.node(k) for k in KEYS}
        ring.remove(2)
        for key in KEYS:
            owner = ring.node(key)
            assert owner != 2
            if owners_before[key] != 2:  # survivors keep their keys
                assert owner == owners_before[key]

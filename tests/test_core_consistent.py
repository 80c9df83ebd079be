"""Unit + property tests for the consistent-hashing baseline."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.consistent import ConsistentHashAssigner


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ConsistentHashAssigner([])

    def test_rejects_bad_virtual_nodes(self):
        with pytest.raises(ValueError):
            ConsistentHashAssigner([0], virtual_nodes=0)

    def test_members_sorted(self):
        assigner = ConsistentHashAssigner([3, 1, 2])
        assert assigner.members() == [1, 2, 3]


class TestAssignment:
    def test_stable(self):
        assigner = ConsistentHashAssigner(range(5))
        assert assigner.beacon_for("url") == assigner.beacon_for("url")

    def test_single_cache_gets_everything(self):
        assigner = ConsistentHashAssigner([7])
        for i in range(20):
            assert assigner.beacon_for(f"u{i}") == 7

    def test_roughly_uniform_with_virtual_nodes(self):
        assigner = ConsistentHashAssigner(range(10), virtual_nodes=128)
        counts = [0] * 10
        for i in range(10_000):
            counts[assigner.beacon_for(f"http://doc/{i}")] += 1
        for count in counts:
            assert 600 <= count <= 1500


class TestMembershipChanges:
    def test_add_duplicate_raises(self):
        assigner = ConsistentHashAssigner([0, 1])
        with pytest.raises(ValueError):
            assigner.add_cache(1)

    def test_minimal_disruption_on_removal(self):
        """Consistent hashing's defining property: removing one of n caches
        remaps only ~1/n of the keys."""
        assigner = ConsistentHashAssigner(range(10), virtual_nodes=64)
        urls = [f"http://doc/{i}" for i in range(3000)]
        before = {u: assigner.beacon_for(u) for u in urls}
        assigner = ConsistentHashAssigner(range(1, 10), virtual_nodes=64)
        moved = sum(1 for u in urls if assigner.beacon_for(u) != before[u])
        # Keys on cache 0 (~10%) must move; others stay (allow 2x slack).
        assert moved <= len(urls) * 0.2


class TestDiscoveryHops:
    def test_single_node_one_hop(self):
        assert ConsistentHashAssigner([0]).discovery_hops("u") == 1

    def test_log_n_hops(self):
        assert ConsistentHashAssigner(range(16)).discovery_hops("u") == 4
        assert ConsistentHashAssigner(range(10)).discovery_hops("u") == math.ceil(
            math.log2(10)
        )


@given(
    num_caches=st.integers(min_value=1, max_value=12),
    url=st.text(min_size=1, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_assignment_always_a_member(num_caches, url):
    assigner = ConsistentHashAssigner(range(num_caches), virtual_nodes=16)
    assert assigner.beacon_for(url) in range(num_caches)

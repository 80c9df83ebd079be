"""Unit tests for topology models."""

import random

import pytest

from repro.network.topology import (
    EuclideanTopology,
    ExplicitTopology,
    ms_to_minutes,
)


class TestMsToMinutes:
    def test_conversion(self):
        assert ms_to_minutes(60_000.0) == 1.0
        assert ms_to_minutes(30.0) == pytest.approx(0.0005)


class TestEuclideanTopology:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EuclideanTopology({})

    def test_self_latency_zero(self):
        topo = EuclideanTopology({0: (0, 0), 1: (3, 4)})
        assert topo.latency_ms(0, 0) == 0.0

    def test_latency_is_base_plus_distance(self):
        topo = EuclideanTopology({0: (0, 0), 1: (3, 4)})
        assert topo.latency_ms(0, 1) == pytest.approx(7.0)  # 2 + 5

    def test_latency_symmetric(self):
        topo = EuclideanTopology.random(10, random.Random(0))
        assert topo.latency_ms(2, 7) == topo.latency_ms(7, 2)

    def test_rtt_doubles_latency(self):
        topo = EuclideanTopology({0: (0, 0), 1: (3, 4)})
        assert topo.rtt_ms(0, 1) == 2 * topo.latency_ms(0, 1)

    def test_random_places_requested_nodes(self):
        topo = EuclideanTopology.random(25, random.Random(1))
        assert topo.nodes() == list(range(25))

    def test_random_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            EuclideanTopology.random(0)

    def test_clustered_placement_creates_proximity_structure(self):
        topo = EuclideanTopology.random(
            30, random.Random(2), num_clusters=3, cluster_spread=1.0, extent=1000.0
        )
        # Nodes in the same cluster (same index mod 3) are much closer than
        # nodes in different clusters, on average.
        same = topo.latency_ms(0, 3)  # cluster 0
        assert same < 50.0

    def test_add_node(self):
        topo = EuclideanTopology({0: (0, 0)})
        topo.add_node(-1, (1, 1))
        assert -1 in topo.nodes()

    def test_add_duplicate_node_raises(self):
        topo = EuclideanTopology({0: (0, 0)})
        with pytest.raises(ValueError):
            topo.add_node(0, (1, 1))


class TestExplicitTopology:
    def test_valid_matrix(self):
        topo = ExplicitTopology([[0, 5], [5, 0]])
        assert topo.latency_ms(0, 1) == 5

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ExplicitTopology([])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            ExplicitTopology([[0, 1]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            ExplicitTopology([[1, 2], [2, 0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            ExplicitTopology([[0, 1], [2, 0]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ExplicitTopology([[0, -1], [-1, 0]])

    def test_nodes(self):
        topo = ExplicitTopology([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
        assert topo.nodes() == [0, 1, 2]

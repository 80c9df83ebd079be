"""Unit tests for the multi-cloud edge cache network."""

import random

import pytest

from repro.core.cloud import CacheCloud
from repro.core.config import CloudConfig, PlacementScheme
from repro.core.edgenetwork import EdgeCacheNetwork
from repro.network.bandwidth import TrafficCategory
from repro.network.topology import EuclideanTopology
from repro.network.transport import CONTROL_MESSAGE_BYTES
from repro.workload.documents import build_corpus


@pytest.fixture
def corpus():
    return build_corpus(60, fixed_size=2048)


def base_config(**overrides):
    defaults = dict(
        num_caches=4,
        num_rings=2,
        intra_gen=100,
        cycle_length=10.0,
        placement=PlacementScheme.AD_HOC,
    )
    defaults.update(overrides)
    return CloudConfig(**defaults)


def make_network(corpus, memberships=((0, 1, 2, 3), (4, 5, 6, 7))):
    return EdgeCacheNetwork(memberships, base_config(), corpus)


class TestConstruction:
    def test_rejects_empty(self, corpus):
        with pytest.raises(ValueError):
            EdgeCacheNetwork([], base_config(), corpus)

    def test_rejects_overlapping_memberships(self, corpus):
        with pytest.raises(ValueError):
            EdgeCacheNetwork([(0, 1), (1, 2)], base_config(), corpus)

    def test_cloud_count_and_node_mapping(self, corpus):
        network = make_network(corpus)
        assert len(network) == 2
        assert network.cloud_of(0) == (0, 0)
        assert network.cloud_of(5) == (1, 1)
        assert network.cache_nodes() == list(range(8))

    def test_configs_resized_per_cloud(self, corpus):
        network = EdgeCacheNetwork(
            [(0, 1, 2, 3, 4, 5), (6, 7)], base_config(num_rings=2), corpus
        )
        assert len(network.clouds[0].caches) == 6
        assert len(network.clouds[1].caches) == 2
        # Two caches can form at most one 2-point ring.
        assert network.clouds[1].config.num_rings == 1

    def test_from_topology_uses_landmark_clustering(self, corpus):
        rng = random.Random(0)
        topo = EuclideanTopology.random(
            8, rng, extent=1000.0, num_clusters=2, cluster_spread=2.0
        )
        landmarks = []
        for i, pos in enumerate([(0, 0), (1000, 1000)]):
            node = 500 + i
            topo.add_node(node, pos)
            landmarks.append(node)
        network = EdgeCacheNetwork.from_topology(
            topo, list(range(8)), landmarks, 2, base_config(), corpus, rng=rng
        )
        assert len(network) == 2
        # Planted metro structure recovered: node i sits in metro (i % 2).
        for cloud_index in range(2):
            members = [
                node for node in range(8) if network.cloud_of(node)[0] == cloud_index
            ]
            assert len({node % 2 for node in members}) == 1


class TestRequestRouting:
    def test_requests_stay_in_their_cloud(self, corpus):
        network = make_network(corpus)
        network.handle_request(0, 7, now=0.0)
        assert network.clouds[0].requests_handled == 1
        assert network.clouds[1].requests_handled == 0

    def test_no_cross_cloud_peer_serving(self, corpus):
        network = make_network(corpus)
        network.handle_request(0, 7, now=0.0)  # cloud 0 now holds doc 7
        result = network.handle_request(4, 7, now=1.0)  # cloud 1 request
        from repro.core.cloud import RequestOutcome

        assert result.outcome is RequestOutcome.ORIGIN_FETCH

    def test_within_cloud_cooperation(self, corpus):
        network = make_network(corpus)
        network.handle_request(0, 7, now=0.0)
        result = network.handle_request(1, 7, now=1.0)
        from repro.core.cloud import RequestOutcome

        assert result.outcome is RequestOutcome.CLOUD_HIT


class TestUpdatePropagation:
    def test_one_server_message_per_holding_cloud(self, corpus):
        network = make_network(corpus)
        # Doc 7 held in both clouds, by two caches each.
        for node in (0, 1, 4, 5):
            network.handle_request(node, 7, now=0.0)
        refreshed = network.handle_update(7, now=1.0)
        assert refreshed == 4
        # 4 holders but only 2 server messages — one per cloud.
        assert network.origin.update_messages_sent == 2

    def test_versions_consistent_across_clouds(self, corpus):
        network = make_network(corpus)
        for node in (0, 4):
            network.handle_request(node, 7, now=0.0)
        network.handle_update(7, now=1.0)
        assert network.origin.version_of(7) == 1
        for node in (0, 4):
            cloud_index, local = network.cloud_of(node)
            assert network.clouds[cloud_index].caches[local].storage.version_of(7) == 1

    def test_update_with_no_holders_sends_no_bodies(self, corpus):
        """Each cloud's beacon point still gets the origin's one message: a
        bare notice, counted as a cloud on its own counts it."""
        network = make_network(corpus)
        assert network.handle_update(7, now=0.0) == 0
        assert network.origin.update_messages_sent == 2
        assert network.meter.bytes_for(TrafficCategory.UPDATE_SERVER_TO_BEACON) == 0
        assert network.meter.bytes_for(TrafficCategory.CONTROL) == 2 * CONTROL_MESSAGE_BYTES

    def test_one_cloud_federation_is_a_cloud_on_its_own(self, corpus):
        """The federation's update path is the cloud's: one cloud fed
        through an ``EdgeCacheNetwork`` and the same cloud driven bare
        agree on every byte, counter, directory and origin message, for
        updates of held and of unheld documents alike."""
        network = EdgeCacheNetwork([range(4)], base_config(), corpus)
        ours = network.clouds[0]
        bare = CacheCloud(ours.config, corpus)
        rng = random.Random(11)
        unheld = 0
        for i in range(300):
            now = i / 4.0
            node, doc_id = rng.randrange(4), rng.randrange(30)
            assert network.handle_request(node, doc_id, now) == (
                bare.handle_request(node, doc_id, now)
            )
            if rng.random() < 0.4:
                update_doc = rng.randrange(len(corpus))
                unheld += not ours.holders_of(update_doc)
                assert network.handle_update(update_doc, now) == (
                    bare.handle_update(update_doc, now)
                )
            if i % 40 == 39:
                network.run_cycles(now)
                bare.run_cycle(now)
        assert unheld > 0 and network.origin.updates_published > unheld
        assert {c: network.meter.bytes_for(c) for c in TrafficCategory} == {
            c: bare.transport.meter.bytes_for(c) for c in TrafficCategory
        }
        assert ours.aggregate_stats() == bare.aggregate_stats()
        for cache_id, beacon in ours.beacons.items():
            other = bare.beacons[cache_id]
            assert sorted(beacon.directory.snapshot()) == sorted(other.directory.snapshot())
            assert beacon.cycle_snapshot() == other.cycle_snapshot()
            assert beacon.total_load == other.total_load
        assert network.origin.update_messages_sent == bare.origin.update_messages_sent

    def test_every_member_cloud_notes_the_update(self, corpus):
        """As a standalone cloud does: one update-rate event."""
        network = make_network(corpus)
        network.handle_update(3, now=25.0)
        for cloud in network.clouds:
            assert cloud.update_rates.rate(3, 25.0) > 0.0

    def test_holders_network_wide(self, corpus):
        network = make_network(corpus)
        for node in (0, 1, 4):
            network.handle_request(node, 7, now=0.0)
        assert network.holders_network_wide(7) == 3


class TestCyclesAndStats:
    def test_run_cycles_touches_every_cloud(self, corpus):
        network = make_network(corpus)
        network.run_cycles(now=10.0)
        assert all(cloud.cycles_run == 1 for cloud in network.clouds)

    def test_stats_aggregate(self, corpus):
        network = make_network(corpus)
        network.handle_request(0, 7, now=0.0)
        network.handle_request(1, 7, now=1.0)
        network.handle_update(7, now=2.0)
        stats = network.stats()
        assert stats.requests == 2
        assert stats.updates == 1
        assert stats.cloud_hit_rate == pytest.approx(0.5)
        assert stats.total_megabytes > 0

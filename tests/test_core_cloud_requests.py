"""Unit tests for the cache-cloud request path (collaborative miss handling)."""

import pytest

from repro.core.cloud import RequestOutcome
from repro.core.config import AssignmentScheme, PlacementScheme
from repro.network.bandwidth import TrafficCategory
from tests.conftest import wire


class TestColdMiss:
    def test_group_miss_fetches_from_origin_and_stores(self, cloud_factory):
        cloud = cloud_factory()
        result = cloud.handle_request(0, 5, now=1.0)
        assert result.outcome is RequestOutcome.ORIGIN_FETCH
        assert cloud.caches[0].holds(5)
        assert cloud.origin.fetches_served == 1

    def test_directory_registers_holder(self, cloud_factory):
        cloud = cloud_factory()
        cloud.handle_request(0, 5, now=1.0)
        beacon = cloud.beacon_for_doc(5)
        assert cloud.beacons[beacon].directory.holders(5) == {0}

    def test_second_request_same_cache_is_local_hit(self, cloud_factory):
        cloud = cloud_factory()
        cloud.handle_request(0, 5, now=1.0)
        result = cloud.handle_request(0, 5, now=2.0)
        assert result.outcome is RequestOutcome.LOCAL_HIT
        assert cloud.caches[0].stats.local_hits == 1
        assert cloud.origin.fetches_served == 1  # no second fetch

    def test_lookup_load_recorded_at_beacon(self, cloud_factory):
        cloud = cloud_factory()
        cloud.handle_request(0, 5, now=1.0)
        beacon = cloud.beacon_for_doc(5)
        assert cloud.beacons[beacon].cycle_lookups == 1

    def test_local_hit_does_not_touch_beacon(self, cloud_factory):
        cloud = cloud_factory()
        cloud.handle_request(0, 5, now=1.0)
        beacon = cloud.beacon_for_doc(5)
        lookups_before = cloud.beacons[beacon].cycle_lookups
        cloud.handle_request(0, 5, now=2.0)
        assert cloud.beacons[beacon].cycle_lookups == lookups_before

    def test_protocol_trace_captures_lookup(self, cloud_factory):
        cloud = cloud_factory()
        beacon = cloud.beacon_for_doc(5)
        rows = wire(cloud, lambda: cloud.handle_request(0, 5, now=1.0))
        # One lookup leg out, its response back (the full miss: test_core_protocol).
        assert rows[:2] == [
            (0, beacon, 256, "control"),
            (beacon, 0, 256, "control"),
        ]


class TestCloudHit:
    def test_peer_retrieval(self, cloud_factory):
        cloud = cloud_factory()
        cloud.handle_request(0, 5, now=1.0)  # cache 0 now holds doc 5
        result = cloud.handle_request(1, 5, now=2.0)
        assert result.outcome is RequestOutcome.CLOUD_HIT
        assert result.served_by == 0
        assert cloud.caches[1].stats.cloud_hits == 1
        assert cloud.origin.fetches_served == 1  # origin not contacted again

    def test_peer_transfer_bytes_accounted(self, cloud_factory):
        cloud = cloud_factory()
        cloud.handle_request(0, 5, now=1.0)
        before = cloud.transport.meter.bytes_for(TrafficCategory.PEER_TRANSFER)
        cloud.handle_request(1, 5, now=2.0)
        after = cloud.transport.meter.bytes_for(TrafficCategory.PEER_TRANSFER)
        assert after - before > 1024  # body + header

    def test_ad_hoc_replicates_at_requester(self, cloud_factory):
        cloud = cloud_factory(placement=PlacementScheme.AD_HOC)
        cloud.handle_request(0, 5, now=1.0)
        cloud.handle_request(1, 5, now=2.0)
        assert cloud.caches[1].holds(5)
        beacon = cloud.beacon_for_doc(5)
        assert cloud.beacons[beacon].directory.holders(5) == {0, 1}

    def test_directory_repair_on_phantom_holder(self, cloud_factory):
        cloud = cloud_factory()
        beacon = cloud.beacon_for_doc(5)
        # Poison the directory with a holder that has no copy.
        cloud.beacons[beacon].directory.add_holder(5, cloud.doc_irh(5), 3)
        result = cloud.handle_request(0, 5, now=1.0)
        assert result.outcome is RequestOutcome.ORIGIN_FETCH
        assert cloud.directory_repairs == 1
        assert 3 not in cloud.beacons[beacon].directory.holders(5)


class TestNearestHolderChoice:
    """With a topology the beacon names the (latency, id)-nearest holder —
    on the walked answer and on the stamped (trusted) answer alike."""

    def _cloud(self, small_corpus, positions):
        from repro.core.cloud import CacheCloud
        from repro.core.config import CloudConfig
        from repro.network.topology import EuclideanTopology
        from repro.network.transport import Transport

        positions = dict(positions)
        positions[-1] = (500.0, 500.0)  # the origin
        config = CloudConfig(
            num_caches=len(positions) - 1, num_rings=1, intra_gen=100
        )
        transport = Transport(topology=EuclideanTopology(positions))
        return CacheCloud(config, small_corpus, transport=transport)

    def test_nearest_holder_serves(self, small_corpus):
        cloud = self._cloud(
            small_corpus,
            {0: (0.0, 0.0), 1: (90.0, 0.0), 2: (100.0, 0.0), 3: (10.0, 0.0)},
        )
        cloud.handle_request(0, 5, now=1.0)
        cloud.handle_request(1, 5, now=2.0)  # holders {0, 1}
        near_1 = cloud.handle_request(2, 5, now=3.0)  # walked, then stamped
        near_0 = cloud.handle_request(3, 5, now=4.0)  # answered from the stamp
        assert near_1.served_by == 1
        assert near_0.served_by == 0
        assert cloud.directory_repairs == 0

    def test_equidistant_holders_tie_to_the_lowest_id(self, small_corpus):
        # Holders 1 and 2 mirror each other across the line both requesters
        # (0 and 4) sit on, so each requester sees them at equal latency.
        cloud = self._cloud(
            small_corpus,
            {
                0: (0.0, 0.0),
                1: (30.0, -40.0),
                2: (-30.0, -40.0),
                3: (300.0, 300.0),
                4: (0.0, -40.0),
            },
        )
        beacon = cloud.beacon_for_doc(5)
        for holder in (2, 1):
            cloud.caches[holder].admit(5, 1024, 0, now=0.5)
            cloud.beacon_roles[beacon].accept_registration(
                5, cloud.doc_irh(5), holder
            )
        walked = cloud.handle_request(0, 5, now=1.0)
        trusted = cloud.handle_request(4, 5, now=2.0)
        assert walked.outcome is trusted.outcome is RequestOutcome.CLOUD_HIT
        assert walked.served_by == trusted.served_by == 1

    def test_redirect_target_is_the_nearest_live_cache(self, small_corpus):
        cloud = self._cloud(
            small_corpus,
            {0: (0.0, 0.0), 1: (30.0, 0.0), 2: (-30.0, 0.0), 3: (5.0, 0.0)},
        )
        cloud.redirect_on_dead = True
        cloud.caches[0].fail(now=1.0)
        assert cloud._redirect_target(0) == 3
        cloud.caches[3].fail(now=2.0)
        assert cloud._redirect_target(0) == 1  # 1 and 2 tie: lowest id


class TestBeaconPlacement:
    def test_group_miss_stores_at_beacon_not_requester(self, small_corpus):
        from tests.conftest import make_cloud

        cloud = make_cloud(small_corpus, placement=PlacementScheme.BEACON)
        doc = 5
        beacon = cloud.beacon_for_doc(doc)
        requester = (beacon + 1) % 4
        result = cloud.handle_request(requester, doc, now=1.0)
        assert result.outcome is RequestOutcome.ORIGIN_FETCH
        assert cloud.caches[beacon].holds(doc)
        assert not cloud.caches[requester].holds(doc)
        assert cloud.beacons[beacon].directory.holders(doc) == {beacon}

    def test_subsequent_requests_are_cloud_hits_from_beacon(self, small_corpus):
        from tests.conftest import make_cloud

        cloud = make_cloud(small_corpus, placement=PlacementScheme.BEACON)
        doc = 5
        beacon = cloud.beacon_for_doc(doc)
        requester = (beacon + 1) % 4
        cloud.handle_request(requester, doc, now=1.0)
        result = cloud.handle_request(requester, doc, now=2.0)
        assert result.outcome is RequestOutcome.CLOUD_HIT
        assert result.served_by == beacon

    def test_request_at_beacon_itself_stores_locally(self, small_corpus):
        from tests.conftest import make_cloud

        cloud = make_cloud(small_corpus, placement=PlacementScheme.BEACON)
        doc = 5
        beacon = cloud.beacon_for_doc(doc)
        cloud.handle_request(beacon, doc, now=1.0)
        assert cloud.caches[beacon].holds(doc)
        result = cloud.handle_request(beacon, doc, now=2.0)
        assert result.outcome is RequestOutcome.LOCAL_HIT


class TestEvictionNotification:
    def test_evicted_doc_leaves_directory(self, small_corpus):
        from tests.conftest import make_cloud

        # Room for exactly 2 fixed-size docs (1024 B each + no slack).
        cloud = make_cloud(small_corpus, capacity_bytes=2048)
        cloud.handle_request(0, 1, now=1.0)
        cloud.handle_request(0, 2, now=2.0)
        cloud.handle_request(0, 3, now=3.0)  # evicts doc 1 (LRU)
        assert not cloud.caches[0].holds(1)
        beacon = cloud.beacon_for_doc(1)
        assert 0 not in cloud.beacons[beacon].directory.holders(1)

    def test_document_larger_than_disk_not_registered(self, small_corpus):
        from tests.conftest import make_cloud

        cloud = make_cloud(small_corpus, capacity_bytes=512)  # smaller than any doc
        result = cloud.handle_request(0, 1, now=1.0)
        assert result.outcome is RequestOutcome.ORIGIN_FETCH
        assert not cloud.caches[0].holds(1)
        beacon = cloud.beacon_for_doc(1)
        assert cloud.beacons[beacon].directory.holders(1) == set()


class TestNoCooperation:
    def test_every_miss_goes_to_origin(self, small_corpus):
        from tests.conftest import make_cloud

        cloud = make_cloud(small_corpus, cooperation=False)
        cloud.handle_request(0, 5, now=1.0)
        cloud.handle_request(1, 5, now=2.0)  # peer holds it, but no cooperation
        assert cloud.origin.fetches_served == 2
        assert cloud.caches[1].stats.cloud_hits == 0

    def test_no_beacon_load_recorded(self, small_corpus):
        from tests.conftest import make_cloud

        cloud = make_cloud(small_corpus, cooperation=False)
        cloud.handle_request(0, 5, now=1.0)
        assert all(b.total_load == 0 for b in cloud.beacons.values())


class TestNoCooperationAccounting:
    """Latency and bytes of the origin-direct path describe one exchange.

    Historically this path reported the full round trip to the client but
    charged only the document direction to the meter; both directions are
    now dispatched (a control-sized request out, the document back), so the
    reported latency and the metered bytes agree.
    """

    def _cloud_with_topology(self, small_corpus):
        from repro.core.cloud import CacheCloud
        from repro.core.config import CloudConfig
        from repro.network.topology import EuclideanTopology
        from repro.network.transport import Transport

        topology = EuclideanTopology(
            {0: (0.0, 0.0), 1: (40.0, 0.0), -1: (100.0, 0.0)}
        )
        config = CloudConfig(
            num_caches=2, num_rings=1, intra_gen=100, cooperation=False
        )
        return CacheCloud(
            config, small_corpus, transport=Transport(topology=topology)
        )

    def test_latency_is_the_full_round_trip(self, small_corpus):
        cloud = self._cloud_with_topology(small_corpus)
        result = cloud.handle_request(0, 5, now=1.0)
        expected_ms = 60_000.0 * cloud.transport.rtt_minutes(
            cloud.origin.node_id, 0
        )
        assert result.latency_ms == pytest.approx(expected_ms)
        assert expected_ms > 0.0

    def test_both_directions_are_metered(self, small_corpus):
        from repro.network.transport import (
            CONTROL_MESSAGE_BYTES,
            TRANSFER_HEADER_BYTES,
        )

        cloud = self._cloud_with_topology(small_corpus)
        cloud.handle_request(0, 5, now=1.0)
        meter = cloud.transport.meter
        size = cloud.corpus[5].size_bytes
        # One control-sized request out, one document (plus header) back.
        assert meter.bytes_for(TrafficCategory.CONTROL) == CONTROL_MESSAGE_BYTES
        assert meter.bytes_for(TrafficCategory.ORIGIN_FETCH) == (
            size + TRANSFER_HEADER_BYTES
        )
        assert cloud.transport.messages_attempted == 2


class TestStaleCopies:
    def test_stale_copy_served_as_a_local_hit(self, cloud_factory):
        cloud = cloud_factory()
        cloud.handle_request(0, 5, now=1.0)
        # The origin publishes a new version without the cloud's update path
        # (models a lost update after a failure).
        cloud.origin.publish_update(5)
        results = []
        sent = wire(cloud, lambda: results.append(cloud.handle_request(0, 5, now=2.0)))
        # The holder serves what it holds: no origin fetch, no eviction
        # notice, no message at all; the stale serve is only counted.
        assert results[0].outcome is RequestOutcome.LOCAL_HIT
        assert sent == []
        assert cloud.stale_serves == 1
        assert cloud.origin.fetches_served == 1
        assert cloud.caches[0].storage.version_of(5) == 0
        beacon = cloud.beacon_for_doc(5)
        assert cloud.beacons[beacon].directory.holders(5) == {0}


class TestConsistentAssignment:
    def test_consistent_scheme_serves_requests(self, small_corpus):
        from tests.conftest import make_cloud

        cloud = make_cloud(small_corpus, assignment=AssignmentScheme.CONSISTENT)
        result = cloud.handle_request(0, 5, now=1.0)
        assert result.outcome is RequestOutcome.ORIGIN_FETCH
        assert cloud.handle_request(1, 5, now=2.0).outcome is RequestOutcome.CLOUD_HIT

    def test_multi_hop_lookup_charged(self, small_corpus):
        from tests.conftest import make_cloud
        from repro.network.bandwidth import TrafficCategory

        dynamic = make_cloud(small_corpus, assignment=AssignmentScheme.DYNAMIC)
        consistent = make_cloud(small_corpus, assignment=AssignmentScheme.CONSISTENT)
        dynamic.handle_request(0, 5, now=1.0)
        consistent.handle_request(0, 5, now=1.0)
        assert consistent.transport.meter.messages_for(
            TrafficCategory.CONTROL
        ) >= dynamic.transport.meter.messages_for(TrafficCategory.CONTROL)


class TestGuards:
    def test_request_to_failed_cache_raises(self, small_corpus):
        from tests.conftest import make_cloud

        cloud = make_cloud(small_corpus, failure_resilience=True)
        cloud.fail_cache(2, now=1.0)
        with pytest.raises(RuntimeError):
            cloud.handle_request(2, 5, now=2.0)

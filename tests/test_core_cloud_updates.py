"""Unit tests for cooperative update propagation."""

from repro.network.bandwidth import TrafficCategory
from tests.conftest import wire


class TestUpdateWithoutHolders:
    def test_bare_invalidation_only(self, cloud_factory):
        cloud = cloud_factory()
        refreshed = cloud.handle_update(5, now=1.0)
        assert refreshed == 0
        assert cloud.origin.version_of(5) == 1
        meter = cloud.transport.meter
        assert meter.bytes_for(TrafficCategory.UPDATE_SERVER_TO_BEACON) == 0
        assert meter.bytes_for(TrafficCategory.UPDATE_FANOUT) == 0
        assert meter.messages_for(TrafficCategory.CONTROL) == 1

    def test_notice_captured_without_body(self, cloud_factory):
        cloud = cloud_factory()
        rows = wire(cloud, lambda: cloud.handle_update(5, now=1.0))
        assert rows == [(cloud.origin.node_id, cloud.beacon_for_doc(5), 256, "control")]

    def test_update_load_recorded_at_beacon(self, cloud_factory):
        cloud = cloud_factory()
        cloud.handle_update(5, now=1.0)
        beacon = cloud.beacon_for_doc(5)
        assert cloud.beacons[beacon].cycle_updates == 1


class TestUpdateWithHolders:
    def prepare(self, cloud, holders=(0, 1, 2)):
        for t, cache_id in enumerate(holders):
            cloud.handle_request(cache_id, 5, now=float(t))
        return cloud

    def test_all_holders_refreshed(self, cloud_factory):
        cloud = self.prepare(cloud_factory())
        refreshed = cloud.handle_update(5, now=10.0)
        assert refreshed == 3
        for cache_id in (0, 1, 2):
            assert cloud.caches[cache_id].storage.version_of(5) == 1

    def test_single_server_to_beacon_body(self, cloud_factory):
        cloud = self.prepare(cloud_factory())
        cloud.handle_update(5, now=10.0)
        meter = cloud.transport.meter
        assert meter.messages_for(TrafficCategory.UPDATE_SERVER_TO_BEACON) == 1
        # The cooperative design's whole point: one server message per cloud.
        assert cloud.origin.update_messages_sent == 1

    def test_fanout_excludes_beacon_itself(self, cloud_factory):
        cloud = cloud_factory()
        beacon = cloud.beacon_for_doc(5)
        cloud.handle_request(beacon, 5, now=0.0)  # only the beacon holds it
        cloud.handle_update(5, now=1.0)
        meter = cloud.transport.meter
        assert meter.messages_for(TrafficCategory.UPDATE_FANOUT) == 0
        assert cloud.caches[beacon].storage.version_of(5) == 1

    def test_fanout_counts_non_beacon_holders(self, cloud_factory):
        cloud = self.prepare(cloud_factory())
        cloud.handle_update(5, now=10.0)
        beacon = cloud.beacon_for_doc(5)
        holders = {0, 1, 2}
        expected_pushes = len(holders - {beacon})
        assert (
            cloud.transport.meter.messages_for(TrafficCategory.UPDATE_FANOUT)
            == expected_pushes
        )

    def test_holders_keep_serving_local_hits_after_update(self, cloud_factory):
        from repro.core.cloud import RequestOutcome

        cloud = self.prepare(cloud_factory())
        cloud.handle_update(5, now=10.0)
        result = cloud.handle_request(1, 5, now=11.0)
        assert result.outcome is RequestOutcome.LOCAL_HIT


class TestUpdateRateMonitoring:
    def test_update_rate_feeds_placement_context(self, cloud_factory):
        cloud = cloud_factory()
        for i in range(20):
            cloud.handle_update(5, now=float(i))
        assert cloud.update_rates.rate(5, 20.0) > 0.1


class TestNoCooperationUpdates:
    def test_server_pushes_to_each_holder(self, small_corpus):
        from tests.conftest import make_cloud

        cloud = make_cloud(small_corpus, cooperation=False)
        cloud.handle_request(0, 5, now=0.0)
        cloud.handle_request(1, 5, now=1.0)
        refreshed = cloud.handle_update(5, now=2.0)
        assert refreshed == 2
        # One server message per holder — the cost cooperation avoids.
        assert cloud.origin.update_messages_sent == 2
        meter = cloud.transport.meter
        assert meter.messages_for(TrafficCategory.UPDATE_SERVER_TO_BEACON) == 2


class TestVersionMonotonicity:
    def test_versions_strictly_increase(self, cloud_factory):
        cloud = cloud_factory()
        cloud.handle_request(0, 5, now=0.0)
        for i in range(3):
            cloud.handle_update(5, now=float(i + 1))
        assert cloud.origin.version_of(5) == 3
        assert cloud.caches[0].storage.version_of(5) == 3

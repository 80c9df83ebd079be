"""Edge cases of the cloud orchestrator not covered by the main-path tests."""

import pytest

from repro.core.cloud import RequestOutcome
from repro.core.config import AssignmentScheme, PlacementScheme, UtilityWeights
from tests.conftest import make_cloud


class TestTinyClouds:
    def test_single_cache_cloud(self, small_corpus):
        cloud = make_cloud(small_corpus, num_caches=1, num_rings=1)
        first = cloud.handle_request(0, 5, now=0.0)
        second = cloud.handle_request(0, 5, now=1.0)
        assert first.outcome is RequestOutcome.ORIGIN_FETCH
        assert second.outcome is RequestOutcome.LOCAL_HIT
        cloud.run_cycle(10.0)  # single-member ring: must not blow up

    def test_two_caches_one_ring(self, small_corpus):
        cloud = make_cloud(small_corpus, num_caches=2, num_rings=1)
        cloud.handle_request(0, 5, now=0.0)
        result = cloud.handle_request(1, 5, now=1.0)
        assert result.outcome is RequestOutcome.CLOUD_HIT


class TestRequesterIsBeacon:
    def test_beacon_requesting_its_own_document(self, small_corpus):
        cloud = make_cloud(small_corpus)
        doc = 5
        beacon = cloud.beacon_for_doc(doc)
        result = cloud.handle_request(beacon, doc, now=0.0)
        assert result.outcome is RequestOutcome.ORIGIN_FETCH
        # Registration is local: no holder-registration control message
        # beyond the lookup round-trip itself.
        assert cloud.beacons[beacon].directory.holders(doc) == {beacon}


class TestUpdateStorms:
    def test_many_updates_between_requests(self, cloud_factory):
        cloud = cloud_factory()
        cloud.handle_request(0, 5, now=0.0)
        for i in range(50):
            cloud.handle_update(5, now=0.1 * (i + 1))
        assert cloud.caches[0].storage.version_of(5) == 50
        result = cloud.handle_request(0, 5, now=10.0)
        assert result.outcome is RequestOutcome.LOCAL_HIT

    def test_interleaved_updates_and_evictions(self, small_corpus):
        cloud = make_cloud(small_corpus, capacity_bytes=2048)
        cloud.handle_request(0, 1, now=0.0)
        cloud.handle_request(0, 2, now=1.0)
        cloud.handle_request(0, 3, now=2.0)  # evicts doc 1
        # An update to the evicted doc must not resurrect directory state.
        refreshed = cloud.handle_update(1, now=3.0)
        assert refreshed == 0
        beacon = cloud.beacon_for_doc(1)
        assert cloud.beacons[beacon].directory.holders(1) == set()


class TestCycleInterleavings:
    def test_request_between_cycles_follows_moved_range(self, cloud_factory):
        cloud = cloud_factory()
        # Build up state, force a move, and keep serving.
        for doc in range(20):
            cloud.handle_request(doc % 4, doc, now=0.1 * doc)
        for burst in range(3):
            doc = next(
                d for d in range(20) if cloud.doc_ring(d) == 0
            )
            for i in range(100):
                cloud.handle_update(doc, now=3.0 + burst + i * 0.001)
            cloud.run_cycle(now=4.0 + burst)
        for doc in range(20):
            requester = (doc + 1) % 4
            result = cloud.handle_request(requester, doc, now=20.0 + doc)
            assert result.outcome in (
                RequestOutcome.LOCAL_HIT,
                RequestOutcome.CLOUD_HIT,
                RequestOutcome.ORIGIN_FETCH,
            )

    def test_consecutive_cycles_without_traffic_are_stable(self, cloud_factory):
        cloud = cloud_factory()
        for doc in range(10):
            cloud.handle_request(0, doc, now=0.1 * doc)
        cloud.run_cycle(5.0)
        ranges_after_first = [
            ring.ranges() for ring in cloud.assigner.rings
        ]
        for t in (10.0, 15.0, 20.0):
            cloud.run_cycle(t)
        ranges_after_many = [
            ring.ranges() for ring in cloud.assigner.rings
        ]
        assert ranges_after_first == ranges_after_many


class TestUtilityPlacementIntegration:
    def test_high_update_rate_suppresses_replication(self, small_corpus):
        cloud = make_cloud(
            small_corpus,
            placement=PlacementScheme.UTILITY,
            utility_weights=UtilityWeights.equal_over(["afc", "dai", "cmc"]),
        )
        doc = 5
        # Drown the document in updates so CMC collapses.
        for i in range(200):
            cloud.handle_update(doc, now=0.05 * i)
        # First copy still lands (DAI=1 dominates)...
        cloud.handle_request(0, doc, now=11.0)
        assert cloud.caches[0].holds(doc)
        # ...but further replication is rejected.
        cloud.handle_request(1, doc, now=11.1)
        cloud.handle_request(2, doc, now=11.2)
        assert not cloud.caches[1].holds(doc)
        assert not cloud.caches[2].holds(doc)
        assert cloud.caches[1].stats.placement_rejects == 1

    def test_expiration_age_scheme_in_cloud(self, small_corpus):
        cloud = make_cloud(small_corpus, placement=PlacementScheme.EXPIRATION_AGE)
        doc = 5
        for i in range(100):
            cloud.handle_update(doc, now=0.1 * i)
        cloud.handle_request(0, doc, now=11.0)
        # One isolated access against a hot update stream: don't store.
        assert not cloud.caches[0].holds(doc)
        quiet_doc = 6
        cloud.handle_request(0, quiet_doc, now=12.0)  # never updated: store
        assert cloud.caches[0].holds(quiet_doc)


class TestConsistentSchemeCycles:
    def test_cycles_are_noop_for_consistent(self, small_corpus):
        cloud = make_cloud(small_corpus, assignment=AssignmentScheme.CONSISTENT)
        cloud.handle_request(0, 5, now=0.0)
        beacon_before = cloud.beacon_for_doc(5)
        cloud.run_cycle(10.0)
        assert cloud.beacon_for_doc(5) == beacon_before


class TestDocsStoredFraction:
    def test_fraction_counts_all_caches(self, small_corpus):
        cloud = make_cloud(small_corpus, num_caches=2, num_rings=1)
        cloud.handle_request(0, 1, now=0.0)
        cloud.handle_request(0, 2, now=0.1)
        cloud.handle_request(1, 1, now=0.2)
        # cache 0 holds 2 docs, cache 1 holds 1 → (2+1)/(2*50).
        assert cloud.docs_stored_fraction() == pytest.approx(3 / 100)

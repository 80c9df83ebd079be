"""Unit tests for the cooperative-leases baseline."""

import pytest

from repro.baselines.leases import CooperativeLeaseCloud, LeaseConfig
from repro.core.cloud import RequestOutcome
from repro.network.bandwidth import TrafficCategory
from repro.workload.documents import build_corpus


@pytest.fixture
def corpus():
    return build_corpus(40, fixed_size=2048)


def make_leases(corpus, **overrides):
    defaults = dict(num_caches=4, lease_duration_minutes=10.0)
    defaults.update(overrides)
    return CooperativeLeaseCloud(LeaseConfig(**defaults), corpus)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LeaseConfig(num_caches=0)
        with pytest.raises(ValueError):
            LeaseConfig(lease_duration_minutes=0.0)


class TestLeaseLifecycle:
    def test_first_request_takes_a_lease(self, corpus):
        cloud = make_leases(corpus)
        cloud.handle_request(0, 5, now=0.0)
        assert cloud.lease_active(5, now=1.0)
        assert cloud.lease_renewals == 1

    def test_lease_expires(self, corpus):
        cloud = make_leases(corpus, lease_duration_minutes=5.0)
        cloud.handle_request(0, 5, now=0.0)
        assert not cloud.lease_active(5, now=6.0)

    def test_lapsed_lease_renewed_on_next_hit(self, corpus):
        cloud = make_leases(corpus, lease_duration_minutes=5.0)
        cloud.handle_request(0, 5, now=0.0)
        cloud.handle_request(0, 5, now=7.0)  # local hit, lapsed lease
        assert cloud.lease_renewals == 2
        assert cloud.lease_active(5, now=8.0)

    def test_leaseholder_is_static(self, corpus):
        cloud = make_leases(corpus)
        assert cloud.leaseholder_of(5) == cloud.leaseholder_of(5)


class TestInvalidation:
    def test_update_during_lease_invalidates_copies(self, corpus):
        cloud = make_leases(corpus)
        cloud.handle_request(0, 5, now=0.0)
        cloud.handle_request(1, 5, now=1.0)
        invalidated = cloud.handle_update(5, now=2.0)
        assert invalidated == 2
        assert not cloud.caches[0].holds(5)
        assert not cloud.caches[1].holds(5)
        assert cloud.invalidations_sent == 1

    def test_invalidations_are_control_sized(self, corpus):
        cloud = make_leases(corpus)
        cloud.handle_request(0, 5, now=0.0)
        before = cloud.transport.meter.bytes_for(
            TrafficCategory.UPDATE_SERVER_TO_BEACON
        )
        cloud.handle_update(5, now=1.0)
        # No body travels on the update path — only control messages.
        assert (
            cloud.transport.meter.bytes_for(TrafficCategory.UPDATE_SERVER_TO_BEACON)
            == before
        )

    def test_update_after_expiry_sends_nothing(self, corpus):
        cloud = make_leases(corpus, lease_duration_minutes=2.0)
        cloud.handle_request(0, 5, now=0.0)
        assert cloud.handle_update(5, now=5.0) == 0
        assert cloud.invalidations_sent == 0
        # The copy survives and is now stale.
        assert cloud.caches[0].holds(5)

    def test_stale_hit_after_lapsed_lease_update(self, corpus):
        cloud = make_leases(corpus, lease_duration_minutes=2.0)
        cloud.handle_request(0, 5, now=0.0)
        cloud.handle_update(5, now=5.0)  # lease lapsed: silent update
        cloud.handle_request(0, 5, now=6.0)
        assert cloud.stale_hits == 1

    def test_consistency_holds_while_leased(self, corpus):
        cloud = make_leases(corpus, lease_duration_minutes=60.0)
        cloud.handle_request(0, 5, now=0.0)
        cloud.handle_update(5, now=1.0)  # invalidates
        result = cloud.handle_request(0, 5, now=2.0)  # refetch
        assert result.outcome is RequestOutcome.ORIGIN_FETCH
        assert cloud.caches[0].storage.version_of(5) == 1
        assert cloud.stale_hits == 0


class TestCooperation:
    def test_peer_serves_miss(self, corpus):
        cloud = make_leases(corpus)
        cloud.handle_request(0, 5, now=0.0)
        result = cloud.handle_request(1, 5, now=1.0)
        assert result.outcome is RequestOutcome.CLOUD_HIT

    def test_hot_doc_refetched_after_each_update(self, corpus):
        """The lease scheme's cost: invalidation turns updates into misses."""
        cloud = make_leases(corpus)
        cloud.handle_request(0, 5, now=0.0)
        fetches_before = cloud.origin.fetches_served
        for i in range(3):
            cloud.handle_update(5, now=1.0 + i)
            cloud.handle_request(0, 5, now=1.5 + i)
        assert cloud.origin.fetches_served == fetches_before + 3

    def test_eviction_unregisters_holder(self, corpus):
        cloud = make_leases(corpus, capacity_bytes=2 * 2048)
        cloud.handle_request(0, 1, now=0.0)
        cloud.handle_request(0, 2, now=1.0)
        cloud.handle_request(0, 3, now=2.0)
        assert 0 not in cloud._holders.get(1, set())

"""Unit tests for the TTL-consistency baseline."""

import pytest

from repro.baselines.ttl import TTLCloud, TTLConfig
from repro.core.cloud import RequestOutcome
from repro.network.bandwidth import TrafficCategory
from repro.workload.documents import build_corpus


@pytest.fixture
def corpus():
    return build_corpus(40, fixed_size=2048)


def make_ttl(corpus, **overrides):
    defaults = dict(num_caches=4, ttl_minutes=10.0)
    defaults.update(overrides)
    return TTLCloud(TTLConfig(**defaults), corpus)


class TestConfig:
    def test_validation(self, corpus):
        with pytest.raises(ValueError):
            TTLConfig(num_caches=0)
        with pytest.raises(ValueError):
            TTLConfig(ttl_minutes=0.0)
        with pytest.raises(ValueError):
            TTLConfig(capacity_bytes=0)


class TestTTLSemantics:
    def test_first_request_fetches_and_stores(self, corpus):
        ttl = make_ttl(corpus)
        result = ttl.handle_request(0, 5, now=0.0)
        assert result.outcome is RequestOutcome.ORIGIN_FETCH
        assert ttl.caches[0].holds(5)

    def test_unexpired_copy_served_without_origin_contact(self, corpus):
        ttl = make_ttl(corpus)
        ttl.handle_request(0, 5, now=0.0)
        fetches = ttl.origin.fetches_served
        result = ttl.handle_request(0, 5, now=5.0)
        assert result.outcome is RequestOutcome.LOCAL_HIT
        assert ttl.origin.fetches_served == fetches
        assert ttl.validations == 0

    def test_unexpired_copy_served_even_when_stale(self, corpus):
        ttl = make_ttl(corpus)
        ttl.handle_request(0, 5, now=0.0)
        ttl.handle_update(5, now=1.0)  # origin moves on; nothing is pushed
        result = ttl.handle_request(0, 5, now=2.0)
        assert result.outcome is RequestOutcome.LOCAL_HIT
        assert ttl.stale_hits == 1  # the consistency violation TTL permits

    def test_expired_fresh_copy_revalidates_not_modified(self, corpus):
        ttl = make_ttl(corpus, ttl_minutes=3.0)
        ttl.handle_request(0, 5, now=0.0)
        result = ttl.handle_request(0, 5, now=4.0)  # expired, still fresh
        assert result.outcome is RequestOutcome.LOCAL_HIT
        assert ttl.validations == 1
        assert ttl.validation_misses == 0
        # 304 extends the TTL: next request within 3 min is served blind.
        ttl.handle_request(0, 5, now=5.0)
        assert ttl.validations == 1

    def test_expired_stale_copy_refetches_body(self, corpus):
        ttl = make_ttl(corpus, ttl_minutes=3.0)
        ttl.handle_request(0, 5, now=0.0)
        ttl.handle_update(5, now=1.0)
        result = ttl.handle_request(0, 5, now=4.0)  # expired and stale
        assert result.outcome is RequestOutcome.ORIGIN_FETCH
        assert ttl.validation_misses == 1
        assert ttl.caches[0].storage.version_of(5) == 1

    def test_update_sends_nothing(self, corpus):
        ttl = make_ttl(corpus)
        ttl.handle_request(0, 5, now=0.0)
        assert ttl.handle_update(5, now=1.0) == 0
        meter = ttl.transport.meter
        assert meter.bytes_for(TrafficCategory.UPDATE_SERVER_TO_BEACON) == 0
        assert meter.bytes_for(TrafficCategory.UPDATE_FANOUT) == 0


class TestCooperation:
    def test_peer_serves_miss(self, corpus):
        ttl = make_ttl(corpus)
        ttl.handle_request(0, 5, now=0.0)
        result = ttl.handle_request(1, 5, now=1.0)
        assert result.outcome is RequestOutcome.CLOUD_HIT
        assert ttl.caches[1].holds(5)

    def test_staleness_spreads_through_peers(self, corpus):
        ttl = make_ttl(corpus)
        ttl.handle_request(0, 5, now=0.0)
        ttl.handle_update(5, now=0.5)
        ttl.handle_request(1, 5, now=1.0)  # peer hands over stale bytes
        assert ttl.stale_hits == 1
        assert ttl.caches[1].storage.version_of(5) == 0

    def test_expired_peers_not_used(self, corpus):
        ttl = make_ttl(corpus, ttl_minutes=2.0)
        ttl.handle_request(0, 5, now=0.0)
        result = ttl.handle_request(1, 5, now=5.0)  # peer copy expired
        assert result.outcome is RequestOutcome.ORIGIN_FETCH


class TestMetrics:
    def test_staleness_rate(self, corpus):
        ttl = make_ttl(corpus)
        ttl.handle_request(0, 5, now=0.0)
        ttl.handle_request(0, 5, now=1.0)  # fresh hit
        ttl.handle_update(5, now=2.0)
        ttl.handle_request(0, 5, now=3.0)  # stale hit
        assert ttl.staleness_rate == pytest.approx(0.5)

    def test_empty_staleness_rate(self, corpus):
        assert make_ttl(corpus).staleness_rate == 0.0

    def test_eviction_unregisters_holder(self, corpus):
        ttl = make_ttl(corpus, capacity_bytes=2 * 2048)
        ttl.handle_request(0, 1, now=0.0)
        ttl.handle_request(0, 2, now=1.0)
        ttl.handle_request(0, 3, now=2.0)  # evicts doc 1
        assert 0 not in ttl._holders.get(1, set())

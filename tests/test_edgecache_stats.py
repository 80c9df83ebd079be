"""Unit tests for rate estimators and cache statistics."""

import math

import pytest

from repro.edgecache.stats import (
    AccessFrequencyTracker,
    CacheStats,
    DecayingRate,
)

#: ``rate(now)`` per decayed event at half-life 10: count · ln 2 / half-life.
PER_EVENT = math.log(2) / 10.0


class TestDecayingRate:
    def test_rejects_bad_half_life(self):
        with pytest.raises(ValueError):
            DecayingRate(0.0)

    def test_zero_events_zero_rate(self):
        assert DecayingRate(10.0).rate(100.0) == 0.0

    def test_count_halves_per_half_life(self):
        rate = DecayingRate(half_life=10.0)
        rate.observe(0.0)
        assert rate.rate(10.0) == pytest.approx(0.5 * PER_EVENT)
        rate.observe(10.0)  # count back to 1.5
        assert rate.rate(20.0) == pytest.approx(0.75 * PER_EVENT)

    def test_rate_converges_to_poisson_intensity(self):
        # 5 events per unit, observed over many half-lives.
        rate = DecayingRate(half_life=20.0)
        t = 0.0
        while t < 400.0:
            for _ in range(5):
                rate.observe(t)
            t += 1.0
        assert rate.rate(400.0) == pytest.approx(5.0, rel=0.05)

    def test_weighted_observation(self):
        rate = DecayingRate(half_life=10.0)
        rate.observe(0.0, weight=3.0)
        assert rate.rate(0.0) == pytest.approx(3.0 * PER_EVENT)

    def test_time_does_not_go_backwards(self):
        rate = DecayingRate(half_life=10.0)
        rate.observe(10.0)
        # Querying an earlier time returns the current (later) state rather
        # than raising: estimators are monotone in observation time.
        assert rate.rate(5.0) == pytest.approx(1.0 * PER_EVENT)


class TestAccessFrequencyTracker:
    def test_unseen_doc_rate_zero(self):
        tracker = AccessFrequencyTracker()
        assert tracker.rate_of(1, 0.0) == 0.0

    def test_hot_doc_rate_above_mean(self):
        tracker = AccessFrequencyTracker(half_life=30.0)
        for t in range(100):
            tracker.observe(1, float(t))  # hot
            if t % 10 == 0:
                tracker.observe(2, float(t))  # cold
        now = 100.0
        assert tracker.rate_of(1, now) > tracker.mean_rate(now)
        assert tracker.rate_of(2, now) < tracker.mean_rate(now)

    def test_mean_rate_of_empty_tracker(self):
        assert AccessFrequencyTracker().mean_rate(0.0) == 0.0

    def test_mean_rate_is_aggregate_over_tracked_docs(self):
        tracker = AccessFrequencyTracker(half_life=10.0)
        tracker.observe(1, 0.0)
        tracker.observe(2, 0.0)
        total = tracker.rate_of(1, 0.0) + tracker.rate_of(2, 0.0)
        assert tracker.mean_rate(0.0) == pytest.approx(total / 2)

    def test_forget(self):
        tracker = AccessFrequencyTracker()
        tracker.observe(1, 0.0)
        tracker.forget(1)
        assert tracker.rate_of(1, 0.0) == 0.0
        assert tracker.mean_rate(0.0) == 0.0  # no live estimator left


class TestCacheStats:
    def test_rates_with_no_requests(self):
        stats = CacheStats()
        assert stats.local_hit_rate == 0.0
        assert stats.cloud_hit_rate == 0.0
        assert stats.mean_latency_ms == 0.0

    def test_hit_rates(self):
        stats = CacheStats(requests=10, local_hits=4, cloud_hits=3)
        assert stats.local_hit_rate == pytest.approx(0.4)
        assert stats.cloud_hit_rate == pytest.approx(0.7)

    def test_latency_accumulation(self):
        stats = CacheStats(requests=2)
        stats.record_latency(10.0)
        stats.record_latency(30.0)
        assert stats.mean_latency_ms == 20.0

    def test_latency_rejects_negative(self):
        with pytest.raises(ValueError):
            CacheStats().record_latency(-1.0)

    def test_merge(self):
        a = CacheStats(requests=5, local_hits=2, stores=1)
        b = CacheStats(requests=3, local_hits=1, origin_fetches=2)
        a.merge(b)
        assert a.requests == 8
        assert a.local_hits == 3
        assert a.origin_fetches == 2
        assert a.stores == 1

"""Unit tests for churn specs, schedules, and their safety rails."""

import pytest

from repro.faults.churn import (
    FAIL,
    RECOVER,
    ChurnEvent,
    ChurnSchedule,
    ChurnSpec,
    ChurnStats,
)
from repro.simulation.engine import Simulator
from tests.conftest import make_cloud


@pytest.fixture
def resilient_cloud(small_corpus):
    return make_cloud(
        small_corpus, num_caches=6, num_rings=2, failure_resilience=True
    )


class TestChurnEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChurnEvent(-1.0, 0, FAIL)
        with pytest.raises(ValueError):
            ChurnEvent(1.0, 0, "explode")


class TestChurnSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChurnSpec(duration_minutes=0.0)
        with pytest.raises(ValueError):
            ChurnSpec(duration_minutes=10.0, failure_rate_per_minute=-1.0)
        with pytest.raises(ValueError):
            ChurnSpec(duration_minutes=10.0, start_minutes=10.0)

    def test_poisson_timeline_is_deterministic(self):
        spec = ChurnSpec(
            duration_minutes=100.0, failure_rate_per_minute=0.2, seed=5
        )
        assert spec.build_events(8) == spec.build_events(8)

    def test_different_seeds_differ(self):
        a = ChurnSpec(duration_minutes=200.0, failure_rate_per_minute=0.2, seed=1)
        b = ChurnSpec(duration_minutes=200.0, failure_rate_per_minute=0.2, seed=2)
        assert a.build_events(8) != b.build_events(8)

    def test_fail_events_paired_with_recoveries(self):
        spec = ChurnSpec(
            duration_minutes=200.0, failure_rate_per_minute=0.1, seed=3
        )
        events = spec.build_events(8)
        fails = sum(1 for e in events if e.action == FAIL)
        recovers = sum(1 for e in events if e.action == RECOVER)
        assert fails > 0
        assert fails == recovers

    def test_events_sorted_by_time(self):
        spec = ChurnSpec(
            duration_minutes=200.0,
            failure_rate_per_minute=0.1,
            seed=3,
        )
        events = spec.build_events(8)
        assert events == sorted(events, key=lambda e: (e.time, e.cache_id, e.action))

    def test_zero_rate_builds_no_events(self):
        assert ChurnSpec(duration_minutes=10.0).build_events(4) == []


class TestChurnSchedule:
    def test_requires_failure_manager(self, small_corpus):
        cloud = make_cloud(small_corpus)  # no failure_resilience
        schedule = ChurnSchedule([ChurnEvent(1.0, 0, FAIL)])
        with pytest.raises(RuntimeError):
            schedule.apply_due(cloud, 2.0)

    def test_apply_due_fails_and_recovers(self, resilient_cloud):
        schedule = ChurnSchedule(
            [ChurnEvent(1.0, 0, FAIL), ChurnEvent(5.0, 0, RECOVER)]
        )
        schedule.apply_due(resilient_cloud, 2.0)
        assert not resilient_cloud.caches[0].alive
        schedule.apply_due(resilient_cloud, 6.0)
        assert resilient_cloud.caches[0].alive
        assert schedule.stats.failures == 1
        assert schedule.stats.recoveries == 1
        assert schedule.stats.unavailability_minutes == pytest.approx(4.0)
        assert schedule.stats.unavailability_windows == 1

    def test_apply_due_is_cursor_based(self, resilient_cloud):
        schedule = ChurnSchedule([ChurnEvent(1.0, 0, FAIL)])
        assert schedule.apply_due(resilient_cloud, 2.0) == 1
        assert schedule.apply_due(resilient_cloud, 3.0) == 0

    def test_skips_fail_of_dead_cache(self, resilient_cloud):
        schedule = ChurnSchedule(
            [ChurnEvent(1.0, 0, FAIL), ChurnEvent(2.0, 0, FAIL)]
        )
        schedule.apply_due(resilient_cloud, 3.0)
        assert schedule.stats.failures == 1
        assert schedule.stats.skipped == 1

    def test_skips_recover_of_live_cache(self, resilient_cloud):
        schedule = ChurnSchedule([ChurnEvent(1.0, 0, RECOVER)])
        schedule.apply_due(resilient_cloud, 2.0)
        assert schedule.stats.recoveries == 0
        assert schedule.stats.skipped == 1

    def test_never_empties_a_ring(self, small_corpus):
        # 2 caches / 2 rings: each ring has exactly one member, so every
        # fail event must be skipped rather than orphaning the documents.
        cloud = make_cloud(
            small_corpus, num_caches=2, num_rings=2, failure_resilience=True
        )
        schedule = ChurnSchedule(
            [ChurnEvent(1.0, 0, FAIL), ChurnEvent(2.0, 1, FAIL)]
        )
        schedule.apply_due(cloud, 3.0)
        assert schedule.stats.failures == 0
        assert schedule.stats.skipped == 2
        assert all(cache.alive for cache in cloud.caches)

    def test_attach_drives_events_through_simulator(self, resilient_cloud):
        simulator = Simulator()
        schedule = ChurnSchedule(
            [ChurnEvent(1.0, 0, FAIL), ChurnEvent(5.0, 0, RECOVER)]
        )
        schedule.attach(resilient_cloud, simulator)
        assert resilient_cloud.redirect_on_dead
        simulator.run_until(3.0)
        assert not resilient_cloud.caches[0].alive
        simulator.run_until(10.0)
        assert resilient_cloud.caches[0].alive
        assert resilient_cloud.failure_manager.failovers == 1
        assert resilient_cloud.failure_manager.recoveries == 1

    def test_redirects_requests_addressed_to_dead_cache(self, resilient_cloud):
        schedule = ChurnSchedule([ChurnEvent(1.0, 0, FAIL)])
        schedule.apply_due(resilient_cloud, 2.0)
        result = resilient_cloud.handle_request(0, 7, now=3.0)
        assert result is not None
        assert resilient_cloud.requests_redirected == 1

    def test_finalize_closes_open_windows(self, resilient_cloud):
        schedule = ChurnSchedule([ChurnEvent(1.0, 0, FAIL)])
        schedule.apply_due(resilient_cloud, 2.0)
        schedule.finalize(11.0)
        assert schedule.stats.unavailability_minutes == pytest.approx(10.0)
        assert schedule.stats.unavailability_windows == 1


class TestChurnStats:
    def test_close_without_open_is_noop(self):
        stats = ChurnStats()
        stats.close_window(3, 10.0)
        assert stats.unavailability_windows == 0

    def test_as_dict_keys(self):
        stats = ChurnStats(failures=2, recoveries=1, skipped=1)
        summary = stats.as_dict()
        assert summary["churn_failures"] == 2.0
        assert summary["churn_recoveries"] == 1.0
        assert summary["churn_skipped"] == 1.0

"""Unit tests for the synthetic (Zipf) trace generator."""

import pytest

from repro.workload.generator import (
    SyntheticTraceGenerator,
    WorkloadConfig,
    poisson_arrivals,
)
import random


class TestWorkloadConfig:
    def test_defaults_are_paper_like(self):
        config = WorkloadConfig()
        assert config.num_documents == 25_000
        assert config.alpha_requests == 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(num_documents=0)
        with pytest.raises(ValueError):
            WorkloadConfig(num_caches=0)
        with pytest.raises(ValueError):
            WorkloadConfig(request_rate_per_cache=-1)
        with pytest.raises(ValueError):
            WorkloadConfig(duration_minutes=0)


class TestPoissonArrivals:
    def test_zero_rate_yields_nothing(self):
        assert list(poisson_arrivals(0.0, 100.0, random.Random(0))) == []

    def test_arrivals_sorted_and_bounded(self):
        times = list(poisson_arrivals(5.0, 50.0, random.Random(1)))
        assert times == sorted(times)
        assert all(0 <= t < 50.0 for t in times)

    def test_mean_rate_approximates_requested(self):
        times = list(poisson_arrivals(10.0, 1000.0, random.Random(2)))
        assert len(times) / 1000.0 == pytest.approx(10.0, rel=0.1)
        # ... and the counts per 5-minute window are Poisson too: their
        # variance is their mean (index of dispersion 1).
        counts = [0] * 200
        for t in times:
            counts[int(t // 5.0)] += 1
        mean = sum(counts) / len(counts)
        variance = sum((c - mean) ** 2 for c in counts) / len(counts)
        assert variance / mean == pytest.approx(1.0, abs=0.3)


def small_config(**overrides):
    defaults = dict(
        num_documents=100,
        num_caches=4,
        request_rate_per_cache=20.0,
        update_rate=10.0,
        alpha_requests=0.9,
        duration_minutes=30.0,
        seed=11,
    )
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


class TestSyntheticTraceGenerator:
    def test_trace_reproducible_for_same_seed(self):
        a = SyntheticTraceGenerator(small_config()).build_trace()
        b = SyntheticTraceGenerator(small_config()).build_trace()
        assert a.requests == b.requests
        assert a.updates == b.updates

    def test_different_seed_changes_trace(self):
        a = SyntheticTraceGenerator(small_config(seed=1)).build_trace()
        b = SyntheticTraceGenerator(small_config(seed=2)).build_trace()
        assert a.requests != b.requests

    def test_records_within_bounds(self):
        trace = SyntheticTraceGenerator(small_config()).build_trace()
        config = small_config()
        for record in trace.requests:
            assert 0 <= record.time < config.duration_minutes
            assert 0 <= record.cache_id < config.num_caches
            assert 0 <= record.doc_id < config.num_documents
        for record in trace.updates:
            assert 0 <= record.doc_id < config.num_documents

    def test_request_volume_tracks_rate(self):
        config = small_config(request_rate_per_cache=50.0, duration_minutes=60.0)
        trace = SyntheticTraceGenerator(config).build_trace()
        expected = config.num_caches * 50.0 * 60.0
        assert len(trace.requests) == pytest.approx(expected, rel=0.1)

    def test_popularity_is_skewed(self):
        gen = SyntheticTraceGenerator(small_config(duration_minutes=120.0))
        trace = gen.build_trace()
        counts = trace.request_counts_by_doc()
        hottest_doc = gen.doc_for_rank(0)
        median = sorted(counts.values())[len(counts) // 2]
        assert counts[hottest_doc] > 3 * median

    def test_updates_share_popularity_permutation(self):
        gen = SyntheticTraceGenerator(
            small_config(update_rate=100.0, duration_minutes=120.0)
        )
        trace = gen.build_trace()
        counts = trace.update_counts_by_doc()
        hottest_doc = gen.doc_for_rank(0)
        assert counts.get(hottest_doc, 0) >= max(counts.values()) * 0.3

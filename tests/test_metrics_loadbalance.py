"""Unit + property tests for load-balance statistics."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics.loadbalance import (
    coefficient_of_variation,
    improvement_percent,
    load_balance_stats,
    mean,
    peak_to_mean,
    std_deviation,
)


class TestBasics:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean([])
        with pytest.raises(ValueError):
            coefficient_of_variation([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mean([1.0, -1.0])

    def test_mean_and_std(self):
        loads = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        assert mean(loads) == 5.0
        assert std_deviation(loads) == pytest.approx(2.0)

    def test_cov_of_uniform_is_zero(self):
        assert coefficient_of_variation([5.0, 5.0, 5.0]) == 0.0

    def test_cov_of_all_zero_is_zero(self):
        assert coefficient_of_variation([0.0, 0.0]) == 0.0

    def test_peak_to_mean(self):
        assert peak_to_mean([1.0, 1.0, 4.0]) == 2.0
        assert peak_to_mean([0.0, 0.0]) == 1.0

    def test_stats_bundle(self):
        stats = load_balance_stats([1.0, 3.0])
        assert stats.mean == 2.0
        assert stats.peak == 3.0
        assert stats.min == 1.0
        assert stats.spread == 2.0
        assert stats.peak_to_mean == 1.5
        assert stats.cov == pytest.approx(0.5)


class TestImprovement:
    def test_positive_when_improved_is_lower(self):
        assert improvement_percent(2.0, 1.0) == 50.0

    def test_negative_when_worse(self):
        assert improvement_percent(1.0, 2.0) == -100.0

    def test_zero_baseline(self):
        assert improvement_percent(0.0, 1.0) == 0.0


# Subnormals are excluded: doubling a subnormal rounds (2 * 5e-324 loses
# scale invariance), which fails the dimensionless-statistics assertions
# below for reasons that have nothing to do with the statistics.
positive_loads = st.lists(
    st.floats(
        min_value=0.0, max_value=1e9, allow_nan=False, allow_subnormal=False
    ),
    min_size=1,
    max_size=50,
)


@given(loads=positive_loads)
@example(loads=[0.0, 3.666454014692339e-162])  # squared deviations underflow
@settings(max_examples=100, deadline=None)
def test_statistics_invariants(loads):
    stats = load_balance_stats(loads)
    # One-ulp tolerance: summing identical large floats rounds the mean.
    tol = 1e-9 * max(1.0, stats.peak)
    assert stats.min <= stats.mean + tol
    assert stats.mean <= stats.peak + tol
    assert stats.cov >= 0.0
    assert stats.peak_to_mean >= 1.0 - 1e-9 or stats.mean == 0.0
    # Scale invariance of the dimensionless statistics.
    scaled = load_balance_stats([2.0 * v for v in loads])
    assert scaled.cov == pytest.approx(stats.cov, rel=1e-9, abs=1e-12)
    assert scaled.peak_to_mean == pytest.approx(
        stats.peak_to_mean, rel=1e-9, abs=1e-12
    )

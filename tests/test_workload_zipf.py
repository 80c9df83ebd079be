"""Unit + property tests for the Zipf sampler."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.zipf import (
    ZipfSampler,
    permuted_ranks,
    zipf_weights,
)


class TestZipfWeights:
    def test_alpha_zero_is_uniform(self):
        assert zipf_weights(5, 0.0) == [1.0] * 5

    def test_weights_decrease_with_rank(self):
        weights = zipf_weights(10, 0.9)
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 0.9)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            zipf_weights(5, -0.1)


class TestZipfSampler:
    def test_probabilities_sum_to_one(self):
        sampler = ZipfSampler(100, 0.9)
        total = sum(sampler.probability(r) for r in range(100))
        assert total == pytest.approx(1.0)

    def test_probability_out_of_range(self):
        sampler = ZipfSampler(10, 0.9)
        with pytest.raises(IndexError):
            sampler.probability(10)

    def test_rank0_is_hottest(self):
        sampler = ZipfSampler(100, 0.9)
        assert sampler.probability(0) > sampler.probability(1)

    def test_sampling_is_deterministic_with_seeded_rng(self):
        a = ZipfSampler(50, 0.9, random.Random(3))
        b = ZipfSampler(50, 0.9, random.Random(3))
        assert [a.sample() for _ in range(20)] == [b.sample() for _ in range(20)]

    def test_empirical_skew_matches_theory(self):
        # Head, shoulder and tail of the rank-frequency curve, at two skews:
        # the slope is right, not only the hottest rank.
        for alpha in (0.9, 0.5):
            sampler = ZipfSampler(20, alpha, random.Random(0))
            draws = [sampler.sample() for _ in range(20_000)]
            for rank in (0, 1, 9):
                freq = draws.count(rank) / len(draws)
                assert freq == pytest.approx(sampler.probability(rank), rel=0.1)

    @given(
        n=st.integers(min_value=1, max_value=500),
        alpha=st.floats(min_value=0.0, max_value=2.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_samples_always_in_range(self, n, alpha, seed):
        sampler = ZipfSampler(n, alpha, random.Random(seed))
        for _ in range(50):
            assert 0 <= sampler.sample() < n

    @given(
        n=st.integers(min_value=2, max_value=200),
        alpha=st.floats(min_value=0.0, max_value=1.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_probability_monotone_nonincreasing(self, n, alpha):
        sampler = ZipfSampler(n, alpha)
        probs = [sampler.probability(r) for r in range(n)]
        assert all(a >= b - 1e-12 for a, b in zip(probs, probs[1:]))


class TestHelpers:
    def test_permuted_ranks_is_a_bijection(self):
        perm = permuted_ranks(100, random.Random(1))
        assert sorted(perm) == list(range(100))

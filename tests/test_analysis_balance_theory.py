"""Tests for the analytical load-balance model, including Monte-Carlo
validation of the closed forms and their agreement with the real machinery.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.balance_theory import (
    expected_cov_ring_balanced,
    expected_cov_static,
    monte_carlo_cov,
    self_collision_mass,
    zipf_load_weights,
)


class TestWeights:
    def test_normalized(self):
        weights = zipf_load_weights(100, 0.9)
        assert sum(weights) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_load_weights(0, 0.9)
        with pytest.raises(ValueError):
            zipf_load_weights(10, -0.1)

    def test_self_collision_mass_bounds(self):
        uniform = zipf_load_weights(100, 0.0)
        skewed = zipf_load_weights(100, 1.2)
        assert self_collision_mass(uniform) == pytest.approx(0.01)
        assert self_collision_mass(skewed) > self_collision_mass(uniform)

    def test_mass_requires_normalization(self):
        with pytest.raises(ValueError):
            self_collision_mass([0.5, 0.2])


class TestClosedForms:
    def test_single_cache_is_balanced(self):
        weights = zipf_load_weights(50, 0.9)
        assert expected_cov_static(weights, 1) == 0.0

    def test_single_ring_balances_perfectly(self):
        weights = zipf_load_weights(50, 0.9)
        assert expected_cov_ring_balanced(weights, 10, 10) == 0.0

    def test_ring_size_must_divide(self):
        weights = zipf_load_weights(50, 0.9)
        with pytest.raises(ValueError):
            expected_cov_ring_balanced(weights, 10, 3)

    def test_paper_claim_two_point_rings_beat_static(self):
        """The §2.3 theory claim, derived: k=2 gives a 1/3 CoV cut at m=10."""
        weights = zipf_load_weights(2000, 0.9)
        improvement = 1.0 - expected_cov_ring_balanced(
            weights, 10, 2
        ) / expected_cov_static(weights, 10)
        # CoV_ring/CoV_static = sqrt((5-1)/(10-1)) = 2/3 exactly.
        assert improvement == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_paper_claim_bigger_rings_improve_incrementally(self):
        weights = zipf_load_weights(2000, 0.9)
        cov = {
            k: expected_cov_ring_balanced(weights, 10, k) for k in (1, 2, 5, 10)
        }
        assert cov[1] > cov[2] > cov[5] > cov[10] == 0.0
        # Diminishing returns: the 1→2 step cuts more than the 2→5 step
        # relative to what is left.
        first_cut = cov[1] - cov[2]
        second_cut = cov[2] - cov[5]
        assert first_cut > 0 and second_cut > 0

    def test_skew_scales_both_schemes_equally(self):
        mild = zipf_load_weights(2000, 0.3)
        strong = zipf_load_weights(2000, 1.1)
        # The *ratio* static/ring is independent of the workload: both forms
        # share the sqrt(S) factor.
        ratio_mild = expected_cov_static(mild, 10) / expected_cov_ring_balanced(
            mild, 10, 2
        )
        ratio_strong = expected_cov_static(strong, 10) / expected_cov_ring_balanced(
            strong, 10, 2
        )
        assert ratio_mild == pytest.approx(ratio_strong)


class TestMonteCarloValidation:
    def test_static_form_matches_simulation(self):
        weights = zipf_load_weights(1000, 0.9)
        predicted = expected_cov_static(weights, 10)
        simulated = monte_carlo_cov(weights, 10, ring_size=1, trials=300)
        assert simulated == pytest.approx(predicted, rel=0.12)

    def test_ring_form_matches_simulation(self):
        weights = zipf_load_weights(1000, 0.9)
        predicted = expected_cov_ring_balanced(weights, 10, 2)
        simulated = monte_carlo_cov(weights, 10, ring_size=2, trials=300)
        assert simulated == pytest.approx(predicted, rel=0.12)

    def test_simulated_ordering_static_vs_rings(self):
        weights = zipf_load_weights(500, 0.9)
        static = monte_carlo_cov(weights, 10, 1, trials=200)
        ring2 = monte_carlo_cov(weights, 10, 2, trials=200)
        ring5 = monte_carlo_cov(weights, 10, 5, trials=200)
        assert static > ring2 > ring5

    def test_validation_against_real_md5_machinery(self):
        """The closed form predicts the behaviour of the actual assigners."""
        from repro.core.hashing import StaticHashAssigner

        num_docs, num_caches = 3000, 10
        weights = zipf_load_weights(num_docs, 0.9)
        # Shuffle which URL carries which weight, as the experiments do.
        rng = random.Random(3)
        perm = list(range(num_docs))
        rng.shuffle(perm)
        assigner = StaticHashAssigner(list(range(num_caches)))
        buckets = [0.0] * num_caches
        for doc, rank in enumerate(perm):
            buckets[assigner.beacon_for(f"http://d/{doc}")] += weights[rank]
        from repro.metrics.loadbalance import coefficient_of_variation

        observed = coefficient_of_variation(buckets)
        predicted = expected_cov_static(weights, num_caches)
        # One realization of a random variable: allow a generous band, but
        # the prediction must be the right order of magnitude.
        assert 0.4 * predicted < observed < 2.0 * predicted

    def test_monte_carlo_validation_inputs(self):
        weights = zipf_load_weights(10, 0.9)
        with pytest.raises(ValueError):
            monte_carlo_cov(weights, 10, trials=0)
        with pytest.raises(ValueError):
            monte_carlo_cov(weights, 10, ring_size=3)


@given(
    alpha=st.floats(min_value=0.0, max_value=1.3),
    num_docs=st.integers(min_value=20, max_value=500),
    ring_size=st.sampled_from([1, 2, 5]),
)
@settings(max_examples=50, deadline=None)
def test_ring_balancing_never_predicted_worse_than_static(alpha, num_docs, ring_size):
    weights = zipf_load_weights(num_docs, alpha)
    static = expected_cov_static(weights, 10)
    ring = expected_cov_ring_balanced(weights, 10, ring_size)
    assert ring <= static + 1e-12

"""Unit + property tests for the utility function."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import UtilityWeights
from repro.core.utility import (
    PlacementContext,
    UtilityComponents,
    UtilityComputer,
    _ratio,
)


def make_context(**overrides):
    defaults = dict(
        cache_id=0,
        doc_id=1,
        size_bytes=1000,
        now=10.0,
        beacon_id=2,
        existing_holders=frozenset(),
        local_access_rate=1.0,
        cache_mean_rate=1.0,
        update_rate=0.0,
        expected_residence_new=None,
        min_residence_existing=None,
    )
    defaults.update(overrides)
    return PlacementContext(**defaults)


class TestComponents:
    def test_components_validated(self):
        with pytest.raises(ValueError):
            UtilityComponents(afc=1.5, dai=0.0, dscc=0.0, cmc=0.0)

    def test_afc_average_doc_is_half(self):
        computer = UtilityComputer(UtilityWeights())
        ctx = make_context(local_access_rate=2.0, cache_mean_rate=2.0)
        assert computer.components(ctx).afc == pytest.approx(0.5)

    def test_afc_hot_doc_above_half(self):
        computer = UtilityComputer(UtilityWeights())
        ctx = make_context(local_access_rate=9.0, cache_mean_rate=1.0)
        assert computer.components(ctx).afc == pytest.approx(0.9)

    def test_afc_neutral_without_signal(self):
        computer = UtilityComputer(UtilityWeights())
        ctx = make_context(local_access_rate=0.0, cache_mean_rate=0.0)
        assert computer.components(ctx).afc == 0.5

    def test_dai_first_copy_is_one(self):
        computer = UtilityComputer(UtilityWeights())
        assert computer.components(make_context()).dai == 1.0

    def test_dai_diminishes_with_replicas(self):
        computer = UtilityComputer(UtilityWeights())
        ctx = make_context(existing_holders=frozenset({1, 2, 3}))
        assert computer.components(ctx).dai == pytest.approx(0.25)

    def test_dscc_unbounded_residence_is_one(self):
        computer = UtilityComputer(UtilityWeights())
        assert computer.components(make_context()).dscc == 1.0

    def test_dscc_contended_new_copy_vs_stable_holders(self):
        computer = UtilityComputer(UtilityWeights())
        ctx = make_context(expected_residence_new=10.0, min_residence_existing=None)
        assert computer.components(ctx).dscc == 0.5

    def test_dscc_ratio(self):
        computer = UtilityComputer(UtilityWeights())
        ctx = make_context(expected_residence_new=30.0, min_residence_existing=10.0)
        assert computer.components(ctx).dscc == pytest.approx(0.75)

    def test_cmc_read_mostly_doc_near_one(self):
        computer = UtilityComputer(UtilityWeights())
        ctx = make_context(local_access_rate=99.0, update_rate=1.0)
        assert computer.components(ctx).cmc == pytest.approx(0.99)

    def test_cmc_write_mostly_doc_near_zero(self):
        computer = UtilityComputer(UtilityWeights())
        ctx = make_context(local_access_rate=1.0, update_rate=99.0)
        assert computer.components(ctx).cmc == pytest.approx(0.01)


class TestRatio:
    """``n / (n + m)``: the no-signal guard is exact, not a tolerance."""

    def test_tiny_total_is_a_signal(self):
        assert _ratio(1e-300, 0.0) == 1.0
        assert _ratio(5e-324, 5e-324) == 0.5  # divides: 5e-324 / 1e-323
        assert _ratio(0.0, 1e-300) == 0.0

    def test_no_signal_is_neutral(self):
        assert _ratio(0.0, 0.0) == 0.5
        assert _ratio(0.0, 0.0, neutral=0.25) == 0.25
        assert _ratio(-1.0, 0.5) == 0.5  # a non-positive total never divides


class TestDecision:
    def test_weighted_sum(self):
        weights = UtilityWeights(afc=1.0, dai=0.0, dscc=0.0, cmc=0.0)
        computer = UtilityComputer(weights, threshold=0.5)
        hot = make_context(local_access_rate=9.0, cache_mean_rate=1.0)
        cold = make_context(local_access_rate=1.0, cache_mean_rate=9.0)
        assert computer.should_store(hot)
        assert not computer.should_store(cold)

    def test_threshold_boundary_is_strict(self):
        weights = UtilityWeights(afc=1.0, dai=0.0, dscc=0.0, cmc=0.0)
        computer = UtilityComputer(weights, threshold=0.5)
        ctx = make_context(local_access_rate=1.0, cache_mean_rate=1.0)  # afc = 0.5
        assert not computer.should_store(ctx)  # strict >

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            UtilityComputer(UtilityWeights(), threshold=1.1)

    def test_accept_rate_tracked(self):
        weights = UtilityWeights(afc=0.0, dai=1.0, dscc=0.0, cmc=0.0)
        computer = UtilityComputer(weights, threshold=0.5)
        computer.should_store(make_context())  # dai=1 → accept
        computer.should_store(
            make_context(existing_holders=frozenset({1, 2}))
        )  # dai=1/3 → reject
        assert computer.evaluations == 2
        assert computer.accepts == 1
        assert computer.accept_rate == 0.5

    def test_update_rate_suppresses_storage(self):
        """The paper's Figure 7 mechanism: higher update rate, fewer stores."""
        weights = UtilityWeights.equal_over(["afc", "dai", "cmc"])
        computer = UtilityComputer(weights, threshold=0.5)
        quiet = make_context(
            local_access_rate=1.0,
            cache_mean_rate=2.0,
            update_rate=0.1,
            existing_holders=frozenset({1, 2, 3, 4}),
        )
        churning = make_context(
            local_access_rate=1.0,
            cache_mean_rate=2.0,
            update_rate=50.0,
            existing_holders=frozenset({1, 2, 3, 4}),
        )
        assert computer.value(quiet) > computer.value(churning)


rates = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
residences = st.one_of(st.none(), st.floats(min_value=0.01, max_value=1e6))


@given(
    access=rates,
    mean=rates,
    update=rates,
    holders=st.sets(st.integers(1, 20), max_size=10),
    res_new=residences,
    res_min=residences,
)
@settings(max_examples=100, deadline=None)
def test_utility_always_in_unit_interval(
    access, mean, update, holders, res_new, res_min
):
    computer = UtilityComputer(UtilityWeights())
    ctx = make_context(
        local_access_rate=access,
        cache_mean_rate=mean,
        update_rate=update,
        existing_holders=frozenset(holders),
        expected_residence_new=res_new,
        min_residence_existing=res_min,
    )
    value = computer.value(ctx)
    assert 0.0 <= value <= 1.0
    components = computer.components(ctx)
    for name in ("afc", "dai", "dscc", "cmc"):
        assert 0.0 <= getattr(components, name) <= 1.0

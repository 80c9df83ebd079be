"""Unit tests for feedback-based weight adaptation."""

import pytest

from repro.core import adaptive
from repro.core.adaptive import FeedbackWeightAdapter
from repro.core.config import UtilityWeights, WEIGHTS_DSCC_OFF
from repro.core.placement import UtilityPlacement
from repro.core.utility import UtilityComputer
from repro.network.bandwidth import TrafficCategory, TrafficMeter


def make_adapter(weights=None):
    placement = UtilityPlacement(
        UtilityComputer(weights if weights is not None else WEIGHTS_DSCC_OFF)
    )
    meter = TrafficMeter()
    return FeedbackWeightAdapter(placement, meter), placement, meter


class TestObservation:
    def test_no_traffic_returns_none(self):
        adapter, _, _ = make_adapter()
        assert adapter.observe_update_share() is None
        assert adapter.adapt(now=1.0) is None

    def test_update_share_computation(self):
        adapter, _, meter = make_adapter()
        meter.record(TrafficCategory.UPDATE_FANOUT, 300)
        meter.record(TrafficCategory.ORIGIN_FETCH, 100)
        assert adapter.observe_update_share() == pytest.approx(0.75)

    def test_share_is_per_period_delta(self):
        adapter, _, meter = make_adapter()
        meter.record(TrafficCategory.UPDATE_FANOUT, 1000)
        adapter.adapt(now=1.0)  # consumes the first period
        meter.record(TrafficCategory.ORIGIN_FETCH, 100)
        assert adapter.observe_update_share() == pytest.approx(0.0)

    def test_control_traffic_ignored(self):
        adapter, _, meter = make_adapter()
        meter.record(TrafficCategory.CONTROL, 10_000)
        assert adapter.observe_update_share() is None


class TestAdaptation:
    def test_update_heavy_traffic_raises_cmc(self):
        adapter, placement, meter = make_adapter()
        before = placement.computer.weights.cmc
        meter.record(TrafficCategory.UPDATE_FANOUT, 900)
        meter.record(TrafficCategory.ORIGIN_FETCH, 100)
        new_weights = adapter.adapt(now=1.0)
        assert new_weights.cmc > before
        assert new_weights.afc < 1 / 3

    def test_miss_heavy_traffic_raises_afc_and_dai(self):
        adapter, placement, meter = make_adapter()
        meter.record(TrafficCategory.ORIGIN_FETCH, 900)
        meter.record(TrafficCategory.UPDATE_FANOUT, 100)
        new_weights = adapter.adapt(now=1.0)
        assert new_weights.afc > 1 / 3
        assert new_weights.dai > 1 / 3
        assert new_weights.cmc < 1 / 3

    def test_weights_stay_normalized(self):
        adapter, placement, meter = make_adapter()
        for step in range(20):
            meter.record(TrafficCategory.UPDATE_FANOUT, 1000)
            adapter.adapt(now=float(step))
            total = sum(placement.computer.weights.as_dict().values())
            assert total == pytest.approx(1.0)

    def test_floor_prevents_starvation(self, monkeypatch):
        monkeypatch.setattr(adaptive, "STEP", 0.2)
        adapter, placement, meter = make_adapter()
        for step in range(50):
            meter.record(TrafficCategory.UPDATE_FANOUT, 1000)
            adapter.adapt(now=float(step))
        weights = placement.computer.weights
        assert weights.afc >= 0.04  # floor held (normalization may nudge it)
        assert weights.dai >= 0.04

    def test_disabled_component_stays_disabled(self):
        adapter, placement, meter = make_adapter(weights=WEIGHTS_DSCC_OFF)
        meter.record(TrafficCategory.UPDATE_FANOUT, 1000)
        adapter.adapt(now=1.0)
        assert placement.computer.weights.dscc == 0.0

    def test_history_recorded(self):
        adapter, _, meter = make_adapter()
        meter.record(TrafficCategory.UPDATE_FANOUT, 100)
        adapter.adapt(now=3.0)
        assert len(adapter.history) == 1
        assert adapter.history[0].time == 3.0
        assert adapter.history[0].update_share == pytest.approx(1.0)

    def test_cmc_only_gainer_needs_enabled_donors(self):
        # All weight on CMC already: update-heavy traffic has no donors.
        weights = UtilityWeights(afc=0.0, dai=0.0, dscc=0.0, cmc=1.0)
        adapter, placement, meter = make_adapter(weights=weights)
        meter.record(TrafficCategory.UPDATE_FANOUT, 1000)
        assert adapter.adapt(now=1.0) is None
        assert placement.computer.weights.cmc == 1.0

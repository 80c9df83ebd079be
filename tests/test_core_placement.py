"""Unit tests for placement policies."""

from repro.core.config import CloudConfig, PlacementScheme, UtilityWeights
from repro.core.placement import (
    AdHocPlacement,
    BeaconPlacement,
    UtilityPlacement,
    make_placement,
)
from repro.core.utility import PlacementContext, UtilityComputer


def make_context(cache_id=0, beacon_id=1, **overrides):
    defaults = dict(
        cache_id=cache_id,
        doc_id=1,
        size_bytes=100,
        now=0.0,
        beacon_id=beacon_id,
        existing_holders=frozenset(),
        local_access_rate=1.0,
        cache_mean_rate=1.0,
        update_rate=0.0,
        expected_residence_new=None,
        min_residence_existing=None,
    )
    defaults.update(overrides)
    return PlacementContext(**defaults)


class TestAdHoc:
    def test_always_stores(self):
        policy = AdHocPlacement()
        assert policy.should_store(make_context())
        assert policy.should_store(make_context(existing_holders=frozenset(range(9))))
        assert policy.name == "ad_hoc"


class TestBeacon:
    def test_stores_only_at_beacon(self):
        policy = BeaconPlacement()
        assert policy.should_store(make_context(cache_id=1, beacon_id=1))
        assert not policy.should_store(make_context(cache_id=0, beacon_id=1))
        assert policy.name == "beacon"


class TestUtility:
    def test_delegates_to_computer(self):
        weights = UtilityWeights(afc=0.0, dai=1.0, dscc=0.0, cmc=0.0)
        policy = UtilityPlacement(UtilityComputer(weights, threshold=0.5))
        assert policy.should_store(make_context())  # first copy, dai = 1
        assert not policy.should_store(
            make_context(existing_holders=frozenset({1, 2, 3}))
        )
        assert policy.name == "utility"


class TestFactory:
    def test_ad_hoc(self):
        config = CloudConfig(placement=PlacementScheme.AD_HOC)
        assert isinstance(make_placement(config), AdHocPlacement)

    def test_beacon(self):
        config = CloudConfig(placement=PlacementScheme.BEACON)
        assert isinstance(make_placement(config), BeaconPlacement)

    def test_utility_wired_with_config_weights(self):
        config = CloudConfig(
            placement=PlacementScheme.UTILITY,
            utility_weights=UtilityWeights(afc=1.0, dai=0.0, dscc=0.0, cmc=0.0),
            utility_threshold=0.3,
        )
        policy = make_placement(config)
        assert isinstance(policy, UtilityPlacement)
        assert policy.computer.threshold == 0.3
        assert policy.computer.weights.afc == 1.0


class TestExpirationAge:
    def make(self):
        from repro.core.placement import ExpirationAgePlacement

        return ExpirationAgePlacement()

    def test_never_updated_doc_is_stored(self):
        policy = self.make()
        assert policy.should_store(make_context(update_rate=0.0))

    def test_long_lived_copy_stored(self):
        # Accessed 10x per update: expiration age >> inter-access time.
        policy = self.make()
        assert policy.should_store(
            make_context(local_access_rate=10.0, update_rate=1.0)
        )

    def test_short_lived_copy_rejected(self):
        policy = self.make()
        assert not policy.should_store(
            make_context(local_access_rate=1.0, update_rate=10.0)
        )

    def test_the_bar_is_the_update_rate(self):
        policy = self.make()
        assert not policy.should_store(
            make_context(local_access_rate=2.0, update_rate=2.0)
        )
        assert policy.should_store(
            make_context(local_access_rate=2.0, update_rate=1.999)
        )

    def test_factory(self):
        from repro.core.placement import ExpirationAgePlacement

        config = CloudConfig(placement=PlacementScheme.EXPIRATION_AGE)
        assert isinstance(make_placement(config), ExpirationAgePlacement)

"""Unit tests for the strategy plane (:mod:`repro.strategies`).

Covers the spec layer (validation, composition), the on-path admission
family's hop decisions, and — the accounting contract this PR's bugfix
satellite pins — that every requester-side decision ticks exactly one of
``stores`` / ``placement_rejects`` *at the requester's cache*, including
when an on-path strategy stores at an intermediate node mid-route.
"""

from __future__ import annotations

import pytest

from repro.core.cloud import CacheCloud
from repro.core.config import AssignmentScheme, CloudConfig, PlacementScheme
from repro.strategies import (
    BeaconPointStrategy,
    CUPTreeStrategy,
    KNOWN_SCHEMES,
    LCDStrategy,
    LCEStrategy,
    PolicyStrategy,
    ProbCacheStrategy,
    StrategySpec,
    build_strategy,
)
from repro.workload.documents import build_corpus


def _config(**overrides) -> CloudConfig:
    base = dict(
        num_caches=4,
        num_rings=2,
        intra_gen=100,
        cycle_length=10.0,
        assignment=AssignmentScheme.DYNAMIC,
        placement=PlacementScheme.UTILITY,
        seed=3,
    )
    base.update(overrides)
    return CloudConfig(**base)


@pytest.fixture
def corpus():
    return build_corpus(50, fixed_size=1024)


def _cloud(scheme: str, corpus, **spec_knobs) -> CacheCloud:
    config = _config()
    strategy = build_strategy(StrategySpec(scheme=scheme, **spec_knobs), config)
    return CacheCloud(config, corpus, strategy=strategy)


def _drive(cloud, steps=80):
    """The fabric tests' deterministic request/update/cycle mix."""
    for i in range(steps):
        cloud.handle_request(
            i % len(cloud.caches), (7 * i) % len(cloud.corpus), now=float(i)
        )
        if i % 5 == 4:
            cloud.handle_update((3 * i) % len(cloud.corpus), now=float(i))
        if i % 20 == 19:
            cloud.run_cycle(now=float(i))


class TestStrategySpec:
    def test_known_schemes_build(self, corpus):
        config = _config()
        for scheme in KNOWN_SCHEMES:
            strategy = build_strategy(StrategySpec(scheme=scheme), config)
            assert scheme in strategy.name or strategy.name == scheme

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy scheme"):
            StrategySpec(scheme="mru")

    def test_probability_bounds(self):
        with pytest.raises(ValueError, match="store_probability"):
            StrategySpec(scheme="probcache", store_probability=1.5)
        with pytest.raises(ValueError, match="store_probability"):
            ProbCacheStrategy(store_probability=-0.1)

    def test_fanout_and_base_placement_validated(self):
        with pytest.raises(ValueError, match="tree_fanout"):
            StrategySpec(scheme="cup_tree", tree_fanout=0)
        with pytest.raises(ValueError, match="base_placement"):
            StrategySpec(scheme="cup_tree", base_placement="lce")

    def test_composition_types(self):
        config = _config()
        assert isinstance(
            build_strategy(StrategySpec(scheme="beacon"), config),
            BeaconPointStrategy,
        )
        assert isinstance(
            build_strategy(StrategySpec(scheme="ad_hoc"), config),
            PolicyStrategy,
        )
        assert isinstance(
            build_strategy(StrategySpec(scheme="lce"), config), LCEStrategy
        )
        assert isinstance(
            build_strategy(StrategySpec(scheme="lcd"), config), LCDStrategy
        )
        cup = build_strategy(
            StrategySpec(scheme="cup_tree", base_placement="ad_hoc"), config
        )
        assert isinstance(cup, CUPTreeStrategy)
        assert cup.name == "cup_tree:ad_hoc"

    def test_config_composition_uses_clouds_own_policy(self, corpus):
        """Adaptive layers retune ``cloud.placement`` — the default strategy
        must share that exact object, not a private copy."""
        cloud = CacheCloud(_config(), corpus)
        assert cloud.strategy.policy is cloud.placement

    def test_explicit_strategy_rebinds_cloud_placement(self, corpus):
        config = _config()
        strategy = build_strategy(StrategySpec(scheme="ad_hoc"), config)
        cloud = CacheCloud(config, corpus, strategy=strategy)
        assert cloud.placement is strategy.policy
        assert cloud.placement.name == "ad_hoc"


class TestOnPathHopDecisions:
    """Micro-scenarios pinning where each on-path strategy leaves copies."""

    def _routed_request(self, cloud):
        """A (requester, doc) pair whose beacon is a different cache."""
        for doc_id in range(len(cloud.corpus)):
            beacon = cloud.beacon_for_doc(doc_id)
            requester = (beacon + 1) % len(cloud.caches)
            return requester, doc_id, beacon
        raise AssertionError("empty corpus")

    def test_lce_stores_at_both_hops(self, corpus):
        cloud = _cloud("lce", corpus)
        requester, doc_id, beacon = self._routed_request(cloud)
        cloud.handle_request(requester, doc_id, now=1.0)
        assert cloud.caches[beacon].holds(doc_id)
        assert cloud.caches[requester].holds(doc_id)
        assert cloud.caches[beacon].stats.stores == 1
        assert cloud.caches[requester].stats.stores == 1
        assert cloud.aggregate_stats().placement_rejects == 0

    def test_lcd_descends_one_level_per_retrieval(self, corpus):
        cloud = _cloud("lcd", corpus)
        requester, doc_id, beacon = self._routed_request(cloud)
        # First retrieval: origin-served via the beacon — the copy lands at
        # the beacon hop; the requester declines (one level down only).
        cloud.handle_request(requester, doc_id, now=1.0)
        assert cloud.caches[beacon].holds(doc_id)
        assert not cloud.caches[requester].holds(doc_id)
        assert cloud.caches[requester].stats.placement_rejects == 1
        # Second retrieval: a cloud hit off the beacon's copy — now the
        # requester stores (the copy descends to the edge).
        cloud.handle_request(requester, doc_id, now=2.0)
        assert cloud.caches[requester].holds(doc_id)
        assert cloud.caches[requester].stats.stores == 1

    def test_probcache_decisions_accounted_at_deciding_cache(self, corpus):
        cloud = _cloud("probcache", corpus)
        _drive(cloud)
        for cache in cloud.caches:
            decisions = cache.stats.stores + cache.stats.placement_rejects
            # Every decision this cache made is visible as exactly one tick.
            assert decisions > 0
        stats = cloud.aggregate_stats()
        assert stats.stores > 0 and stats.placement_rejects > 0

    def test_beacon_requester_decline_lands_on_requester(self, corpus):
        """The bugfix satellite's core claim: when the copy is stored
        mid-route (at the beacon hop), the requester-side decline must tick
        the *requester's* reject counter, not the beacon's."""
        cloud = _cloud("beacon", corpus)
        requester, doc_id, beacon = self._routed_request(cloud)
        cloud.handle_request(requester, doc_id, now=1.0)
        assert cloud.caches[beacon].stats.stores == 1
        assert cloud.caches[beacon].stats.placement_rejects == 0
        assert cloud.caches[requester].stats.stores == 0
        assert cloud.caches[requester].stats.placement_rejects == 1


#: Pinned (stores, placement_rejects) totals for the deterministic drive.
#: These are the accounting regression the bugfix satellite asks for: any
#: change to who decides (or double/dropped ticks) shifts these counts.
PINNED_ACCOUNTING = {
    "ad_hoc": (80, 0),
    "beacon": (50, 55),
    "utility": (79, 1),
    "expiration_age": (78, 2),
    "lce": (105, 0),
    "lcd": (68, 37),
    "probcache": (66, 48),
    "cup_tree": (79, 1),
}


class TestAccountingRegression:
    @pytest.mark.parametrize("scheme", sorted(PINNED_ACCOUNTING))
    def test_store_and_decline_counts_pinned(self, corpus, scheme):
        cloud = _cloud(scheme, corpus)
        _drive(cloud)
        stats = cloud.aggregate_stats()
        assert (stats.stores, stats.placement_rejects) == PINNED_ACCOUNTING[
            scheme
        ]

    def test_cup_tree_matches_its_base_placement_on_requests(self, corpus):
        """CUP-tree changes update propagation only; its request-path
        admission is the base policy, so request-side accounting matches."""
        assert PINNED_ACCOUNTING["cup_tree"] == PINNED_ACCOUNTING["utility"]

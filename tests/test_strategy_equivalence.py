"""The strategy seam draws no shared randomness, and it is live.

Every scheme :class:`~repro.core.config.PlacementScheme` names is composed
from a bare ``CloudConfig`` carrying it as ``placement``. Driven with the
fabric suite's deterministic request/update/cycle mix:

* two clouds composed from equal configs are message-for-message
  identical: same dispatch log, request outcomes and latencies, meter,
  ledger and cache stats (composition depends on the config alone),
* no composition draws from the global ``random`` module (strategy
  composition must never consume shared randomness, or every seeded stream
  downstream would shift — ProbCache's coins come from its own derived
  stream), and
* a strategy beyond the paper really changes behaviour.

That the paper's schemes behave exactly as before the seam existed is
pinned by the golden fingerprints and the fabric-plan digests.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import PlacementScheme
from tests.conftest import make_cloud


def _drive(cloud, steps=60):
    """The fabric suite's deterministic request/update/cycle mix."""
    results = []
    for i in range(steps):
        cache_id = i % len(cloud.caches)
        doc_id = (7 * i) % len(cloud.corpus)
        result = cloud.handle_request(cache_id, doc_id, now=float(i))
        results.append((result.outcome, result.latency_ms, result.served_by))
        if i % 5 == 4:
            cloud.handle_update((3 * i) % len(cloud.corpus), now=float(i))
        if i % 20 == 19:
            cloud.run_cycle(now=float(i))
    return results


@pytest.mark.parametrize("scheme", list(PlacementScheme))
def test_equal_configs_compose_identical_clouds(small_corpus, scheme):
    """The config alone decides behaviour: equal configs, equal wires."""
    first = make_cloud(small_corpus, placement=scheme)
    second = make_cloud(small_corpus, placement=scheme)
    first_log = first.fabric.capture_dispatches()
    second_log = second.fabric.capture_dispatches()

    assert _drive(first) == _drive(second)

    assert len(first_log) > 0
    assert first_log == second_log
    assert first.transport.meter == second.transport.meter
    assert first.transport.messages_attempted == second.transport.messages_attempted
    assert first.transport.bytes_attempted == second.transport.bytes_attempted
    assert first.fabric.stats == second.fabric.stats
    first_stats = first.aggregate_stats()
    second_stats = second.aggregate_stats()
    assert first_stats.stores == second_stats.stores
    assert first_stats.placement_rejects == second_stats.placement_rejects
    assert first_stats.local_hits == second_stats.local_hits
    assert first_stats.cloud_hits == second_stats.cloud_hits
    assert first_stats.origin_fetches == second_stats.origin_fetches


@pytest.mark.parametrize("scheme", list(PlacementScheme))
def test_zero_global_rng_draws(small_corpus, scheme):
    """No composition may touch the shared ``random`` module."""
    random.seed(1234)
    before = random.getstate()
    cloud = make_cloud(small_corpus, placement=scheme)
    _drive(cloud)
    assert cloud.fabric.stats.dispatches > 0
    assert random.getstate() == before


def test_a_policy_scheme_reports_its_own_name(small_corpus):
    """The reporting surface is the policy the config names."""
    for scheme in (
        PlacementScheme.AD_HOC,
        PlacementScheme.BEACON,
        PlacementScheme.UTILITY,
        PlacementScheme.EXPIRATION_AGE,
    ):
        cloud = make_cloud(small_corpus, placement=scheme)
        assert cloud.strategy.policy.name == scheme.value


def test_probcache_coins_follow_the_config_seed(small_corpus):
    """ProbCache's stream is derived from ``config.seed``: a new seed moves
    its decisions, the same seed repeats them."""

    def stores(seed):
        cloud = make_cloud(small_corpus, placement=PlacementScheme.PROBCACHE, seed=seed)
        _drive(cloud)
        return [cache.stats.stores for cache in cloud.caches]

    assert stores(1) == stores(1)
    assert any(stores(1) != stores(seed) for seed in (2, 3, 4))


def test_extended_schemes_diverge_from_paper_schemes(small_corpus):
    """The seam is live: a non-paper strategy really changes behaviour."""
    baseline = make_cloud(small_corpus)
    lce = make_cloud(small_corpus, placement=PlacementScheme.LCE)
    _drive(baseline)
    _drive(lce)
    assert baseline.aggregate_stats().stores != lce.aggregate_stats().stores

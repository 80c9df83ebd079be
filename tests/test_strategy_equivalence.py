"""Structural equivalence: the strategy seam is invisible for paper schemes.

The tentpole refactor's safety proof. Each of the paper's four placement
schemes can now be composed two ways:

* **native** — a bare ``CloudConfig`` carrying the scheme as its
  ``placement`` field (the pre-refactor spelling; ``CacheCloud`` composes
  the default strategy from it), and
* **spec** — a config carrying a *different* placement (the utility
  baseline) plus ``build_strategy(...)`` injected at
  the composition root.

Driven with the fabric suite's deterministic request/update/cycle mix, the
two must be indistinguishable: message-for-message identical dispatch
logs, identical request outcomes/latencies, identical meter and ledger
totals, identical cache stats — and zero draws from the global ``random``
module (strategy composition must never consume shared randomness, or
every seeded stream downstream would shift).
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.core.cloud import CacheCloud
from repro.core.config import PlacementScheme
from repro.strategies import PAPER_SCHEMES, build_strategy
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


def _native_cloud(corpus, scheme: str) -> CacheCloud:
    return make_cloud(corpus, placement=PlacementScheme(scheme))


def _spec_cloud(corpus, scheme: str) -> CacheCloud:
    """Same cloud, composed through the seam from a config whose own
    ``placement`` field names a *different* scheme — proof the injected
    strategy, not the config field, decides behaviour."""
    other = (
        PlacementScheme.AD_HOC
        if scheme == PlacementScheme.UTILITY.value
        else PlacementScheme.UTILITY
    )
    native = make_cloud(corpus, placement=PlacementScheme(scheme))
    config = replace(native.config, placement=other)
    strategy = build_strategy(scheme, config)
    return CacheCloud(config, corpus, strategy=strategy)


@pytest.mark.parametrize("scheme", PAPER_SCHEMES)
class TestPaperSchemeEquivalence:
    def test_dispatch_log_message_for_message_identical(
        self, small_corpus, scheme
    ):
        native = _native_cloud(small_corpus, scheme)
        via_spec = _spec_cloud(small_corpus, scheme)
        native_log = native.fabric.capture_dispatches()
        spec_log = via_spec.fabric.capture_dispatches()

        assert _drive(native) == _drive(via_spec)

        assert len(native_log) > 0
        assert native_log == spec_log

    def test_meter_ledger_and_stats_identical(self, small_corpus, scheme):
        native = _native_cloud(small_corpus, scheme)
        via_spec = _spec_cloud(small_corpus, scheme)
        _drive(native)
        _drive(via_spec)

        assert native.transport.meter == via_spec.transport.meter
        assert (
            native.transport.messages_attempted
            == via_spec.transport.messages_attempted
        )
        assert (
            native.transport.bytes_attempted
            == via_spec.transport.bytes_attempted
        )
        assert native.fabric.stats == via_spec.fabric.stats
        native_stats = native.aggregate_stats()
        spec_stats = via_spec.aggregate_stats()
        assert native_stats.stores == spec_stats.stores
        assert native_stats.placement_rejects == spec_stats.placement_rejects
        assert native_stats.local_hits == spec_stats.local_hits
        assert native_stats.cloud_hits == spec_stats.cloud_hits
        assert native_stats.origin_fetches == spec_stats.origin_fetches

    def test_zero_global_rng_draws(self, small_corpus, scheme):
        """Neither composition may touch the shared ``random`` module."""
        random.seed(1234)
        before = random.getstate()
        native = _native_cloud(small_corpus, scheme)
        via_spec = _spec_cloud(small_corpus, scheme)
        _drive(native)
        _drive(via_spec)
        assert random.getstate() == before


class TestSeamComposition:
    def test_spec_cloud_reports_scheme_placement_name(self, small_corpus):
        """The reporting surface follows the injected strategy's policy."""
        for scheme in PAPER_SCHEMES:
            cloud = _spec_cloud(small_corpus, scheme)
            assert cloud.placement.name == scheme

    def test_extended_schemes_diverge_from_paper_schemes(self, small_corpus):
        """The seam is live: a non-paper strategy really changes behaviour."""
        baseline = make_cloud(small_corpus)
        config = replace(baseline.config)
        lce = CacheCloud(
            config,
            small_corpus,
            strategy=build_strategy("lce", config),
        )
        _drive(baseline)
        _drive(lce)
        assert (
            baseline.aggregate_stats().stores != lce.aggregate_stats().stores
        )

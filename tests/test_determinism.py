"""Determinism guarantees: identical inputs → bit-identical results.

A reproduction's credibility rests on runs being exactly repeatable. These
tests run complete experiments twice and require every reported statistic
to match exactly (not approximately) — any hidden global RNG, dict-order
dependence, or wall-clock leak fails them.
"""

from repro.core.config import CloudConfig, PlacementScheme
from repro.experiments.runner import run_experiment
from repro.workload.documents import build_corpus
from repro.workload.generator import SyntheticTraceGenerator, WorkloadConfig
from repro.workload.sydney import SydneyConfig, SydneyTraceGenerator


def run_once(seed=11):
    corpus = build_corpus(150, fixed_size=2048)
    generator = SyntheticTraceGenerator(
        WorkloadConfig(
            num_documents=150,
            num_caches=6,
            request_rate_per_cache=30.0,
            update_rate=15.0,
            duration_minutes=30.0,
            seed=seed,
        )
    )
    config = CloudConfig(
        num_caches=6,
        num_rings=3,
        intra_gen=200,
        cycle_length=8.0,
        placement=PlacementScheme.UTILITY,
        seed=seed,
    )
    return run_experiment(
        config, corpus, generator.requests(), generator.updates(), duration=30.0
    )


def fingerprint(result):
    return (
        result.requests,
        result.updates,
        tuple(sorted(result.beacon_loads.items())),
        result.load_stats.cov,
        result.load_stats.peak_to_mean,
        result.network_mb_per_unit,
        result.docs_stored_percent,
        result.stats.local_hits,
        result.stats.cloud_hits,
        result.stats.origin_fetches,
        result.stats.latency_total_ms,
        tuple(sorted(result.traffic.breakdown().items())),
    )


class TestExperimentDeterminism:
    def test_identical_runs_are_bit_identical(self):
        assert fingerprint(run_once()) == fingerprint(run_once())

    def test_seed_changes_the_run(self):
        assert fingerprint(run_once(seed=11)) != fingerprint(run_once(seed=12))

    def test_cloud_state_matches_across_runs(self):
        a = run_once().cloud
        b = run_once().cloud
        for cache_a, cache_b in zip(a.caches, b.caches):
            assert set(cache_a.storage) == set(cache_b.storage)
        for cache_id in a.beacons:
            dir_a = a.beacons[cache_id].directory
            dir_b = b.beacons[cache_id].directory
            assert sorted(dir_a.snapshot()) == sorted(dir_b.snapshot())
        for ring_a, ring_b in zip(a.assigner.rings, b.assigner.rings):
            assert ring_a.ranges() == ring_b.ranges()


class TestGeneratorDeterminism:
    def test_sydney_trace_bit_identical(self):
        config = SydneyConfig(
            num_documents=200,
            num_caches=4,
            peak_request_rate_per_cache=40.0,
            base_update_rate=10.0,
            duration_minutes=30.0,
            diurnal_period_minutes=30.0,
            num_epochs=2,
            drift_pool=50,
            seed=5,
        )
        a = SydneyTraceGenerator(config).build_trace()
        b = SydneyTraceGenerator(config).build_trace()
        assert a.requests == b.requests
        assert a.updates == b.updates

    def test_lazy_and_materialized_streams_agree(self):
        config = WorkloadConfig(
            num_documents=100,
            num_caches=4,
            request_rate_per_cache=20.0,
            update_rate=5.0,
            duration_minutes=20.0,
            seed=9,
        )
        lazy = list(SyntheticTraceGenerator(config).requests())
        materialized = SyntheticTraceGenerator(config).build_trace().requests
        assert lazy == materialized


class TestFigureDeterminism:
    def test_figure6_repeatable(self):
        from repro.experiments.figures import TINY_SCALE, figure6

        a = figure6(TINY_SCALE, alphas=(0.9,))
        b = figure6(TINY_SCALE, alphas=(0.9,))
        assert a.column("static CoV") == b.column("static CoV")
        assert a.column("dynamic CoV") == b.column("dynamic CoV")

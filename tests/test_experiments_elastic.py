"""The diurnal autoscaling sweep: arms, acceptance, and determinism.

The tiny-scale sweep runs in a few seconds and is the anchor here: its
claims (elastic matches the over-provisioned arm's flash tail at fewer
node-minutes, beats the under-provisioned arm's rejection rate, scales
both ways, audits clean) are asserted directly; job-count invariance of
its fingerprint is the registry test's (``test_experiments_registry``).
"""

import pytest

from repro.core.elastic import ElasticConfig
from repro.experiments.elastic import (
    ARMS,
    MIN_CACHES,
    NUM_CACHES,
    _arm_elastic_config,
    _service_model,
    flash_window,
)
from repro.experiments import registry
from repro.experiments.figures import SMALL_SCALE, TINY_SCALE
from repro.experiments.reporting import fingerprint


@pytest.fixture(scope="module")
def tiny_sweep(smoke):
    return smoke("elastic").result


@pytest.fixture(scope="module")
def arms(tiny_sweep):
    return tiny_sweep.extras["arms"]


class TestArmConfigs:
    def test_bounds_pin_the_static_arms(self):
        over = _arm_elastic_config("over", TINY_SCALE)
        assert over.min_caches == over.max_caches == NUM_CACHES
        assert over.initial_caches is None
        under = _arm_elastic_config("under", TINY_SCALE)
        assert under.min_caches == under.max_caches == MIN_CACHES
        elastic = _arm_elastic_config("elastic", TINY_SCALE)
        assert (elastic.min_caches, elastic.max_caches) == (
            MIN_CACHES,
            NUM_CACHES,
        )
        assert elastic.initial_caches == MIN_CACHES

    def test_unknown_arm_rejected(self):
        with pytest.raises(ValueError):
            _arm_elastic_config("sideways", TINY_SCALE)

    def test_every_arm_config_validates(self):
        for arm in ARMS:
            assert isinstance(_arm_elastic_config(arm, TINY_SCALE), ElasticConfig)

    def test_service_model_normalizes_utilization_across_scales(self):
        tiny = _service_model(TINY_SCALE)
        small = _service_model(SMALL_SCALE)
        # Utilization = rate x service time is scale-invariant.
        assert small.service_ms * SMALL_SCALE.request_rate_per_cache == (
            pytest.approx(tiny.service_ms * TINY_SCALE.request_rate_per_cache)
        )

    def test_flash_window_fractions(self):
        start, end = flash_window(100.0)
        assert start == pytest.approx(55.0)
        assert end == pytest.approx(65.0)


class TestTinySweep:
    def test_all_arms_complete(self, tiny_sweep, arms):
        assert not tiny_sweep.failures
        assert set(arms) == set(ARMS)
        assert tiny_sweep.column("arm") == list(ARMS)
        assert set(tiny_sweep.extras["series"]) == set(ARMS)

    def test_acceptance_criteria_hold(self, smoke):
        verdicts = smoke("elastic").claims
        assert set(verdicts) == {
            "flash_p99_matches_over",
            "fewer_node_minutes_than_over",
            "fewer_rejections_than_under",
            "scaled_both_ways",
            "audits_clean",
        }
        failing = [name for name, ok in verdicts.items() if not ok]
        assert not failing, f"acceptance failed: {failing}"

    def test_elastic_arm_actually_scaled(self, arms):
        elastic = arms["elastic"]
        assert elastic.scale_out_events > 0
        assert elastic.scale_in_events > 0
        # The vacuity check CI's smoke job also runs: the size series must
        # actually move, or the comparison is three static arms.
        sizes = {v for _, v in elastic.series["cloud_size"]}
        assert len(sizes) > 1
        assert elastic.drain_bytes > 0
        assert elastic.docs_handed_off > 0

    def test_static_arms_never_scale(self, arms):
        for arm in ("over", "under"):
            result = arms[arm]
            assert result.scale_out_events == 0
            assert result.scale_in_events == 0
            sizes = {v for _, v in result.series["cloud_size"]}
            assert len(sizes) == 1

    def test_scale_in_audits_ran_and_were_clean(self, arms):
        elastic = arms["elastic"]
        assert elastic.scale_in_audits >= elastic.scale_in_events > 0
        assert elastic.scale_in_audit_violations == 0
        for result in arms.values():
            assert result.final_audit_violations == 0

    def test_render_reports_verdicts(self, smoke):
        rendered = smoke("elastic").render()
        assert "claims: flash_p99_matches_over=PASS" in rendered
        assert "FAIL" not in rendered
        for arm in ARMS:
            assert arm in rendered

    def test_seed_override_changes_the_workload(self, tiny_sweep):
        reseeded = registry.run("elastic", "tiny", jobs=1, seed=99).result
        assert fingerprint(reseeded) != fingerprint(tiny_sweep)
        assert set(reseeded.extras["arms"]) == set(ARMS)

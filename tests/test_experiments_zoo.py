"""Tests for the strategy-zoo sweep (:mod:`repro.experiments.zoo`)."""

from __future__ import annotations

import pytest

from repro.experiments import registry, sweeps
from repro.experiments.reporting import fingerprint
from repro.experiments.sweeps import Scale
from repro.experiments.zoo import DEFAULT_SCHEMES, ZOO_TINY, zoo_sweep
from repro.strategies import KNOWN_SCHEMES
from tests.conftest import run_materialized


@pytest.fixture(scope="module")
def tiny_result(smoke):
    """The registry's serial tiny sweep, shared by the read-only assertions."""
    return smoke("zoo").result


class TestZooSweep:
    def test_every_scheme_ranked_once(self, tiny_result):
        assert tiny_result.failures == []
        assert len(tiny_result.rows) == len(DEFAULT_SCHEMES)
        assert [row[0] for row in tiny_result.rows] == list(
            range(1, len(DEFAULT_SCHEMES) + 1)
        )
        assert sorted(tiny_result.column("strategy")) == sorted(KNOWN_SCHEMES)

    def test_ranking_orders_by_cloud_hit_rate(self, tiny_result):
        hit_rates = [row[2] for row in tiny_result.rows]
        assert hit_rates == sorted(hit_rates, reverse=True)

    def test_row_lookup_and_render(self, tiny_result):
        row = tiny_result.row("lce")
        assert row[1] == "lce"
        with pytest.raises(KeyError):
            tiny_result.row("nonesuch")
        rendered = tiny_result.render()
        assert "strategy ranking" in rendered
        assert all(scheme in rendered for scheme in KNOWN_SCHEMES)

    def test_schemes_differentiate(self, tiny_result):
        """The zoo is not a mirror hall: strategies disagree on stores."""
        stores = {row[1]: row[7] for row in tiny_result.rows}
        assert len(set(stores.values())) > 1

    def test_subset_sweep(self):
        result = zoo_sweep(scale=ZOO_TINY, schemes=("lce", "lcd"), jobs=1)
        assert set(result.column("strategy")) == {"lce", "lcd"}

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            zoo_sweep(scale=ZOO_TINY, schemes=("mru",))

    def test_scale_validation(self):
        with pytest.raises(ValueError, match="must be positive"):
            Scale(
                num_caches=0, num_rings=1, num_documents=10,
                request_rate_per_cache=1.0, update_rate=1.0,
                duration_minutes=1.0, cycle_length=1.0,
            )


class TestZooDeterminism:
    def test_streaming_matches_materialized(self, tiny_result, monkeypatch):
        """Every arm re-run from the materialized trace lands on the same table."""
        monkeypatch.setattr(sweeps, "run_spec", run_materialized)
        materialized = zoo_sweep(scale=ZOO_TINY, jobs=1)
        assert fingerprint(materialized) == fingerprint(tiny_result)

    def test_checkpointed_resume_fingerprint_identical(
        self, tiny_result, tmp_path
    ):
        path = tmp_path / "zoo.ckpt"
        first = zoo_sweep(scale=ZOO_TINY, jobs=1, checkpoint=path)
        resumed = zoo_sweep(scale=ZOO_TINY, jobs=1, checkpoint=path)
        assert fingerprint(first) == fingerprint(tiny_result)
        assert fingerprint(resumed) == fingerprint(tiny_result)

    def test_seed_override_changes_outcome(self, tiny_result):
        reseeded = registry.run("zoo", "tiny", jobs=1, seed=123).result
        assert fingerprint(reseeded) != fingerprint(tiny_result)
        # A preset keeps its registry name under any root seed.
        assert reseeded.extras["scale_label"] == tiny_result.extras["scale_label"]

"""Integration tests for the resilience sweep (loss × churn grid).

The grid is the registry's shared smoke run: loss 0 / 0.3 / 0.7 × churn
0 / 0.05 (``smoke`` fixture).
"""

import pytest

from repro.experiments import registry
from repro.experiments.figures import TINY_SCALE
from repro.experiments.reporting import fingerprint

LOSS_RATES = (0.0, 0.3, 0.7)


@pytest.fixture(scope="module")
def sweep(smoke):
    return smoke("resilience").result


class TestResilienceSweep:
    def test_no_failed_points(self, sweep):
        assert sweep.failures == []
        assert len(sweep.rows) == 6

    def test_hit_rate_degrades_monotonically_with_loss(self, sweep):
        rates = [
            sweep.record(loss, 0.0)["cloud hit rate (%)"] for loss in LOSS_RATES
        ]
        assert rates[0] > rates[1] > rates[2]

    def test_origin_load_grows_with_loss(self, sweep):
        fetches = [sweep.record(loss, 0.0)["origin fetches"] for loss in LOSS_RATES]
        assert fetches[0] < fetches[1] < fetches[2]

    def test_perfect_network_row_is_clean(self, sweep):
        columns = sweep.record(0.0, 0.0)
        assert columns["retries"] == 0.0
        assert columns["timeouts"] == 0.0
        assert columns["failovers"] == 0.0
        assert columns["unavailable (min)"] == 0.0

    def test_lossy_rows_show_protocol_work(self, sweep):
        row = sweep.record(0.7, 0.0)
        assert row["retries"] > 0.0
        assert row["timeouts"] > 0.0

    def test_render_contains_grid(self, sweep):
        rendered = sweep.render()
        assert "Resilience" in rendered
        assert "cloud hit rate (%)" in rendered


class TestSeedOverride:
    _POINT = dict(loss_rates=(0.5,), churn_rates=(0.0,), jobs=1)

    def test_seed_changes_the_sweep(self):
        base = registry.run("resilience", "tiny", **self._POINT)
        reseeded = registry.run("resilience", "tiny", seed=99, **self._POINT)
        assert base.failures == [] and reseeded.failures == []
        # A new root seed re-derives workload and fault streams: the sweep
        # must actually change, not just relabel.
        assert fingerprint(base.result) != fingerprint(reseeded.result)

    def test_explicit_scale_seed_is_a_noop_override(self):
        base = registry.run("resilience", "tiny", **self._POINT)
        same = registry.run(
            "resilience", "tiny", seed=TINY_SCALE.seed, **self._POINT
        )
        assert fingerprint(base.result) == fingerprint(same.result)


class TestAntiEntropySweep:
    @pytest.fixture(scope="class")
    def sweep(self, smoke):
        return smoke("anti-entropy").result

    def test_no_failed_points(self, sweep):
        assert sweep.failures == []
        assert len(sweep.rows) == 1

    def test_repair_reduces_end_of_run_staleness(self, sweep):
        row = sweep.record(0.5, 0.1)
        assert row["stale (off)"] >= row["stale (on)"]
        assert row["repairs"] > 0.0
        assert row["repair traffic (MB)"] > 0.0
        if row["stale (off)"]:
            expected = (
                100.0
                * (row["stale (off)"] - row["stale (on)"])
                / row["stale (off)"]
            )
            assert row["stale reduction (%)"] == pytest.approx(expected)

    def test_render_contains_header(self, sweep):
        rendered = sweep.render()
        assert "Anti-entropy" in rendered
        assert "stale (off)" in rendered


class TestChurnColumn:
    def test_churn_produces_failovers_and_unavailability(self, sweep):
        row = sweep.record(0.0, 0.05)
        assert row["failovers"] > 0.0
        assert row["unavailable (min)"] > 0.0

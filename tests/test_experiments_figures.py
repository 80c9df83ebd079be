"""Smoke + shape tests for the figure reproductions (tiny scale).

Tiny runs are statistically noisy, so assertions here target *robust* shape
properties (orderings that hold by construction) rather than the paper's
ratios; EXPERIMENTS.md validates the ratios at benchmark scale. Every test
reads the registry's shared smoke run of its figure (``smoke`` fixture).
"""

import pytest

from repro.experiments import figures
from repro.experiments.figures import TINY_SCALE
from repro.experiments.sweeps import Scale


class TestFigureScale:
    def test_validation(self):
        with pytest.raises(ValueError):
            Scale(
                num_documents=0,
                request_rate_per_cache=1.0,
                update_rate=1.0,
                duration_minutes=10.0,
            )

    def test_presets_exist(self):
        assert figures.SMALL_SCALE.num_documents > TINY_SCALE.num_documents
        assert figures.PAPER_SCALE.num_documents == 25_000


class TestFigure3:
    def test_structure(self, smoke):
        result = smoke("fig3").result
        static, dynamic = result.extras["static"], result.extras["dynamic"]
        assert len(static.beacon_loads) == 10
        assert len(dynamic.beacon_loads) == 10
        assert result.column("rank") == list(range(1, 11))
        assert result.column("static load") == static.sorted_loads()
        assert result.column("dynamic load") == dynamic.sorted_loads()
        # Identical workload: total load conserved across schemes.
        assert sum(static.beacon_loads.values()) == pytest.approx(
            sum(dynamic.beacon_loads.values()), rel=0.05
        )
        rendered = result.render()
        assert "Figure 3" in rendered
        assert "peak/mean" in rendered


class TestFigure5:
    def test_rows_and_labels(self, smoke):
        result = smoke("fig5").result
        assert result.columns == (
            "caches", "static", "dynamic/2-per-ring", "dynamic/10-per-ring"
        )
        assert result.column("caches") == [10]
        for value in result.row(10)[1:]:
            assert value >= 0.0
        assert "Figure 5" in result.render()

    def test_bigger_rings_balance_at_least_as_well(self, smoke):
        result = smoke("fig5").result
        # A single 10-member ring balances across all beacon points; it must
        # beat (or match) the 2-member configuration on the same workload.
        covs = result.record(10)
        assert covs["dynamic/10-per-ring"] <= covs["dynamic/2-per-ring"] + 0.05


class TestFigure6:
    def test_series_lengths(self, smoke):
        result = smoke("fig6").result
        assert result.column("zipf alpha") == [0.0, 0.9, 0.99]
        assert len(result.column("static CoV")) == 3
        assert len(result.column("dynamic CoV")) == 3
        assert "Figure 6" in result.render()

    def test_skew_increases_static_imbalance(self, smoke):
        result = smoke("fig6").result
        static = result.column("static CoV")
        assert static[1] > static[0]


class TestFigures7And8:
    @pytest.fixture(scope="class")
    def results(self, smoke):
        return smoke("fig7-8").result

    def test_series_present(self, results):
        stored, traffic = results
        for result in (stored, traffic):
            assert result.columns == ("update rate", "ad hoc", "utility", "beacon")
            assert len(result.rows) == 2

    def test_figure7_orderings(self, results):
        stored, _ = results
        for _, adhoc, utility, beacon in stored.rows:
            assert adhoc > utility > beacon

    def test_beacon_stores_one_copy_per_doc(self, results):
        stored, _ = results
        # ~10% per cache in a 10-cache cloud (one copy per requested doc).
        for value in stored.column("beacon"):
            assert 5.0 < value < 20.0

    def test_utility_storage_decreases_with_update_rate(self, results):
        stored, _ = results
        assert stored.column("utility")[1] < stored.column("utility")[0]

    def test_figure8_adhoc_traffic_grows_with_update_rate(self, results):
        _, traffic = results
        assert traffic.column("ad hoc")[1] > traffic.column("ad hoc")[0]

    def test_utility_beats_adhoc_at_high_update_rate(self, results):
        _, traffic = results
        assert traffic.column("utility")[1] < traffic.column("ad hoc")[1]

    def test_value_accessor_and_render(self, results):
        stored, traffic = results
        # Rows are keyed by the simulated rate: the paper's, scaled.
        rates = [rate * TINY_SCALE.update_sweep_scale for rate in (10.0, 500.0)]
        assert stored.column("update rate") == rates
        assert stored.record(rates[0])["ad hoc"] == stored.column("ad hoc")[0]
        assert "update rate" in traffic.render()
        # One sweep, two labelled views.
        assert (stored.header[0], traffic.header[0]) == ("Figure 7", "Figure 8")
        assert stored.extras["unique_docs"] == traffic.extras["unique_docs"]


class TestFigure9:
    def test_limited_disk_run(self, smoke):
        result = smoke("fig9").result
        assert result.columns[1:] == ("ad hoc", "utility", "beacon")
        assert result.header[0] == "Figure 9"
        assert all(v > 0 for row in result.rows for v in row)

    def test_utility_not_worse_than_adhoc(self, smoke):
        result = smoke("fig9").result
        for utility, adhoc in zip(result.column("utility"), result.column("ad hoc")):
            assert utility <= adhoc * 1.1

"""Smoke + shape tests for the extension experiments (tiny scale).

Each result is the registry's shared smoke run (``smoke`` fixture).
"""

import pytest


class TestConsistencyComparison:
    @pytest.fixture(scope="class")
    def result(self, smoke):
        return smoke("consistency").result

    def test_three_modes_present(self, result):
        modes = [row[0] for row in result.rows]
        assert modes[0].startswith("push")
        assert modes[1].startswith("TTL")
        assert modes[2].startswith("leases")

    def test_push_is_never_stale(self, result):
        assert result.row("push (cache cloud)")[2] == 0.0

    def test_ttl_serves_stale_documents(self, result):
        assert result.row("TTL (15 min)")[2] > 1.0  # visibly stale

    def test_leases_much_fresher_than_ttl(self, result):
        assert result.row("leases (30 min)")[2] < result.row("TTL (15 min)")[2]

    def test_push_sends_one_origin_message_per_update(self, result):
        assert result.row("push (cache cloud)")[3] == pytest.approx(1.0, abs=0.05)

    def test_render(self, result):
        assert "consistency modes" in result.render()


class TestMultiCloudSavings:
    @pytest.fixture(scope="class")
    def result(self, smoke):
        return smoke("multi-cloud").result

    def test_rows(self, result):
        assert result.column("clouds") == [1, 2]
        assert len(result.column("coop msgs")) == 2

    def test_cooperation_saves_server_messages(self, result):
        for row in (result.record(1), result.record(2)):
            assert row["saving (%)"] > 30.0
            assert row["saving (%)"] == pytest.approx(
                100.0 * (1.0 - row["coop msgs"] / row["per-holder msgs"])
            )

    def test_savings_do_not_collapse_with_more_clouds(self, result):
        # One message per cloud still beats one per holder at every size.
        assert result.record(2)["saving (%)"] > 20.0

    def test_render(self, result):
        assert "server update messages" in result.render()


class TestAdaptiveWeights:
    @pytest.fixture(scope="class")
    def result(self, smoke):
        return smoke("adaptive-weights").result

    def test_adaptation_actually_stepped(self, result):
        assert result.steps >= 2

    def test_weights_remain_normalized(self, result):
        assert sum(result.final_weights.values()) == pytest.approx(1.0)

    def test_dscc_stays_disabled(self, result):
        assert result.final_weights["dscc"] == 0.0

    def test_adaptive_not_much_worse_than_fixed(self, result):
        # The controller must never blow up traffic; on the shifting
        # workload it typically improves it.
        assert result.adaptive_mb <= result.fixed_mb * 1.10

    def test_render(self, result):
        rendered = result.render()
        assert "fixed weights" in rendered
        assert "adaptive weights" in rendered


class TestFailureResilienceValue:
    @pytest.fixture(scope="class")
    def result(self, smoke):
        return smoke("failure-resilience").result

    def test_two_variants(self, result):
        assert [row[0] for row in result.rows] == ["with replica", "without replica"]

    def test_replica_reduces_origin_fetches(self, result):
        assert result.row("with replica")[2] <= result.row("without replica")[2]

    def test_render(self, result):
        assert "lazy directory replication" in result.render()


class TestClientLatency:
    @pytest.fixture(scope="class")
    def result(self, smoke):
        return smoke("latency").result

    @staticmethod
    def latency(result, scheme):
        return result.record(scheme)["mean latency (ms)"]

    def test_five_schemes(self, result):
        assert len(result.rows) == 5

    def test_no_cooperation_is_worst(self, result):
        worst = self.latency(result, "no cooperation")
        for scheme in ("ad hoc", "utility", "expiration age", "beacon"):
            assert self.latency(result, scheme) < worst

    def test_beacon_pays_for_single_copy(self, result):
        assert self.latency(result, "beacon") > self.latency(result, "utility")

    def test_unknown_scheme_raises(self, result):
        with pytest.raises(KeyError):
            self.latency(result, "bogus")

    def test_render(self, result):
        assert "client latency" in result.render()


class TestCapabilityProportionality:
    @pytest.fixture(scope="class")
    def result(self, smoke):
        return smoke("capabilities").result

    def test_loads_for_all_caches(self, result):
        assert result.column("cache") == list(range(10))
        assert result.column("capability") == [3.0] * 5 + [1.0] * 5
        assert all(load > 0 for load in result.column("static load"))
        assert all(load > 0 for load in result.column("dynamic load"))

    def test_dynamic_respects_capability_better(self, result):
        imbalance = result.extras
        assert imbalance["dynamic_imbalance"] < imbalance["static_imbalance"] * 1.05

    def test_render(self, result):
        assert "capability" in result.render()

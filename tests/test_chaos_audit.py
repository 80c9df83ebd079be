"""End-to-end chaos-audit harness tests.

The acceptance bar for the repair subsystem: every fault campaign must
quiesce to a violation-free cloud when anti-entropy is on, and the same
grid must leave visible divergence when it is off (proving the harness
actually injects the damage anti-entropy exists to repair).
"""

from dataclasses import replace

import pytest

from repro.audit.chaos import (
    CHAOS_SCALE,
    ChaosScenario,
    chaos_audit_grid,
    run_chaos_scenario,
)

#: Small enough for CI, long enough for churn + loss to do real damage.
_FAST = {"duration_minutes": 30.0}


@pytest.fixture(scope="module")
def ae_on_grid(smoke):
    """The registry's smoke grid: 2 seeds × 2 loss × 2 churn, 30 minutes each."""
    return smoke("audit").result


def total(grid, column):
    return sum(grid.column(column))


class TestScenarioValidation:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            ChaosScenario("x", CHAOS_SCALE, loss_rate=1.0, churn_rate=0.0)
        with pytest.raises(ValueError):
            ChaosScenario("x", CHAOS_SCALE, loss_rate=0.1, churn_rate=-1.0)
        with pytest.raises(ValueError):  # the sizing is a Scale: it validates itself
            replace(CHAOS_SCALE, duration_minutes=0.0)


class TestAntiEntropyOn:
    def test_campaign_injects_real_divergence(self, ae_on_grid):
        # Vacuity guard: a chaos harness that breaks nothing proves nothing.
        assert total(ae_on_grid, "pre divergence") > 0
        assert len(ae_on_grid.rows) == len(ae_on_grid.extras["outcomes"]) == 8

    def test_quiesces_to_zero_unrepaired(self, ae_on_grid, smoke):
        assert not ae_on_grid.failures
        assert total(ae_on_grid, "unrepaired") == 0
        assert total(ae_on_grid, "post stale") == 0
        assert smoke("audit").claims["quiesces_to_zero_unrepaired"]

    def test_never_any_hard_violations(self, ae_on_grid):
        assert total(ae_on_grid, "hard") == 0

    def test_render_reports_verdict(self, ae_on_grid):
        text = ae_on_grid.render()
        assert "Chaos audit" in text
        assert "CLEAN" in text


class TestAntiEntropyOff:
    def test_divergence_persists_without_repair(self):
        grid = chaos_audit_grid(
            _FAST,
            seeds=(1,),
            loss_rates=(0.3,),
            churn_rates=(0.1,),
            anti_entropy=False,
        )
        assert not grid.failures
        # Nothing repaired anything, so what the campaign broke stays broken.
        assert total(grid, "unrepaired") > 0
        assert total(grid, "post stale") > 0
        rendered = grid.render()
        assert "OFF" in rendered and "CLEAN" not in rendered
        assert f"verdict: unrepaired={total(grid, 'unrepaired')} hard=0" in rendered
        for outcome in grid.extras["outcomes"]:
            assert outcome.quiesce_repairs == 0
            assert outcome.ae_stats == {}

    def test_off_still_forbids_hard_violations(self):
        grid = chaos_audit_grid(
            _FAST,
            seeds=(2,),
            loss_rates=(0.15,),
            churn_rates=(0.0,),
            anti_entropy=False,
        )
        assert total(grid, "hard") == 0


class TestSingleScenario:
    def test_outcome_carries_both_audits(self):
        outcome = run_chaos_scenario(
            ChaosScenario(
                key=(3, 0.2, 0.0),
                scale=replace(CHAOS_SCALE, seed=3, duration_minutes=20.0),
                loss_rate=0.2,
                churn_rate=0.0,
            )
        )
        assert outcome.key == (3, 0.2, 0.0)
        assert outcome.pre_audit["audit_violations"] >= 0.0
        assert outcome.post_audit["audit_violations"] == outcome.hard_violations
        assert outcome.ae_stats["ae_cycles"] > 0
        assert outcome.resilience  # the run's counters ship with the outcome

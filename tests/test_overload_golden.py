"""Zero-cost overload equivalence and flash-crowd sweep determinism.

The overload model's pass-through promise, pinned at full pipeline scale:
attaching :data:`~repro.core.overload.ZERO_COST_OVERLOAD` (unbounded
queues, zero service time, unreachable watermarks) to every sweep point
must reproduce the *golden* fingerprints captured on code that predates
the overload subsystem entirely — same outcomes, same latencies, same
bytes, same resilience counters, hash for hash. This is the strongest
form of "with no queues configured, the simulator is value-identical to
the pre-overload simulator".

The flash-crowd sweep's own determinism (same seed, same fingerprint at any
job count) is the registry test's (``test_experiments_registry``); here its
saturated point must actually engage the degradation machinery.
"""

from repro.core.overload import ZERO_COST_OVERLOAD
from repro.experiments.figures import TINY_SCALE, figure3, figure6
from repro.experiments.overload import point_key
from repro.experiments.reporting import fingerprint
from repro.experiments.resilience import resilience_sweep
from tests.test_golden_fingerprints import (
    GOLDEN_FIGURE3,
    GOLDEN_FIGURE6,
    GOLDEN_RESILIENCE,
)


class TestZeroCostOverloadIsValueIdentical:
    """ZERO_COST_OVERLOAD runs hash to the pre-overload golden values."""

    def test_figure3_fingerprint_unchanged(self):
        result = figure3(TINY_SCALE, jobs=1, overload=ZERO_COST_OVERLOAD)
        assert fingerprint(result) == GOLDEN_FIGURE3

    def test_figure6_fingerprint_unchanged(self):
        result = figure6(
            TINY_SCALE, alphas=(0.0, 0.9), jobs=1, overload=ZERO_COST_OVERLOAD
        )
        assert fingerprint(result) == GOLDEN_FIGURE6

    def test_resilience_fingerprint_unchanged(self):
        result = resilience_sweep(
            TINY_SCALE,
            loss_rates=(0.0, 0.2),
            churn_rates=(0.0, 0.05),
            jobs=1,
            overload=ZERO_COST_OVERLOAD,
        )
        assert fingerprint(result) == GOLDEN_RESILIENCE


class TestOverloadSweepDeterminism:
    def test_saturation_engages_degradation(self, smoke):
        result = smoke("overload").result
        assert not result.failures
        row = result.record(16.0, "cooperative")
        assert row["rejected (%)"] > 0.0
        assert row["shed (%)"] > 0.0
        # The windowed flight series rode along for both arms.
        series = result.extras["series"][point_key(16.0, "cooperative")]
        assert len(series["rejection_rate"]) == 20
        assert max(value for _, value in series["rejection_rate"]) > 0.0
        assert point_key(16.0, "direct") in result.extras["series"]

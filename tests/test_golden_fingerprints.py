"""Golden-fingerprint lock on the experiment pipeline.

The hashes below were captured on the pre-refactor protocol code (the
forked ``_serve_miss_with_faults`` / ``_serve_miss_cooperatively``
implementation, commit 4e9eab7) and lock the unified protocol plane to
value-identity: every outcome, latency, byte count, and resilience counter
of these three pipelines feeds the canonical-JSON hash, so any behavioural
drift in the miss path, the update path, fault handling, or churn
scheduling changes a fingerprint.

If a fingerprint breaks, the refactor-safety contract is: either the
change is an intentional, documented behavioural change (re-capture the
hash and say why in the commit), or it is a regression (fix it). Never
re-capture to silence a diff you cannot explain.

The configs are TINY on purpose (~1-2 s each); the full-scale figures are
exercised by ``benchmarks/``. Every registry entry's own tiny-scale run is
pinned in ``TINY_FINGERPRINTS`` (``tests/test_experiments_registry.py``);
the goldens here hash their own grids.
"""

from repro.experiments.figures import TINY_SCALE, figure3, figure6, figure7_and_8
from repro.experiments.reporting import fingerprint
from repro.experiments.resilience import resilience_sweep

#: Captured on pre-refactor code; see module docstring before touching.
#: Re-recorded at 9f7682d when figs. 3 and 6 became row tables: each equals
#: the hash of that commit's result JSON re-nested into the table's shape
#: (fig. 3 without the three ``CloudConfig`` fields it lost), so no value
#: moved (was ``e011005a…`` / ``c25dbd4d…``). Fig. 3 re-recorded again when
#: the resilience summary's ``stale_refreshes`` became ``stale_serves``: its
#: point extras carry that summary, and the parent's result JSON with the
#: one key renamed hashes to this value, so no value moved (was
#: ``3dcc2c78…``).
GOLDEN_FIGURE3 = (
    "e32884a6e3314bec06abf96f0c852f5c1b31e3b58902c3127fd456d886717cac"
)
GOLDEN_FIGURE6 = (
    "cee44e782fc8952dc31ecdcb7ddfaa63efbc5dd3a6c6445cd13c72fed5eb1d76"
)
#: Re-recorded when a holder came to serve a stale copy instead of dropping
#: and refetching it: lossy and churned points serve stale copies as local
#: hits, and the column became ``stale serves`` (was ``46180117…``).
GOLDEN_RESILIENCE = (
    "c286a0427b6fa4b9d6a0cf33431aef6003963b82e88487794598a370fc1fa928"
)
#: Captured at f892e04, the commit before a store without a byte budget
#: stopped keeping a replacement order: the unlimited-disk figures must not
#: be able to tell (figs. 3 and 6 above run unlimited too).
GOLDEN_FIGURE7_8 = (
    "2b8b55f7b9061e02503f921a35533c76c717463fa6379bb27ddfdd77ea698371"
)


class TestGoldenFingerprints:
    def test_figure3_fingerprint_unchanged(self):
        result = figure3(TINY_SCALE, jobs=1)
        assert fingerprint(result) == GOLDEN_FIGURE3

    def test_figure6_fingerprint_unchanged(self):
        result = figure6(TINY_SCALE, alphas=(0.0, 0.9), jobs=1)
        assert fingerprint(result) == GOLDEN_FIGURE6

    def test_figure7_8_fingerprint_unchanged(self):
        result = figure7_and_8(TINY_SCALE, update_rates=(20.0, 300.0), jobs=1)
        assert fingerprint(result) == GOLDEN_FIGURE7_8

    def test_resilience_fingerprint_unchanged(self):
        result = resilience_sweep(
            TINY_SCALE,
            loss_rates=(0.0, 0.2),
            churn_rates=(0.0, 0.05),
            jobs=1,
        )
        assert fingerprint(result) == GOLDEN_RESILIENCE


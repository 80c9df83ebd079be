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
exercised by ``benchmarks/``.
"""

from repro.experiments.figures import TINY_SCALE, figure3, figure6, figure7_and_8
from repro.experiments.reporting import fingerprint
from repro.experiments.resilience import resilience_sweep

#: Captured on pre-refactor code; see module docstring before touching.
#: Re-recorded at 9f7682d when figs. 3 and 6 became row tables: each equals
#: the hash of that commit's result JSON re-nested into the table's shape
#: (fig. 3 without the three ``CloudConfig`` fields it lost), so no value
#: moved (was ``e011005a…`` / ``c25dbd4d…``).
GOLDEN_FIGURE3 = (
    "3dcc2c7850322a76804212eb2ef4f099468f944a2cb8b711ea8bec1132fa5bf3"
)
GOLDEN_FIGURE6 = (
    "cee44e782fc8952dc31ecdcb7ddfaa63efbc5dd3a6c6445cd13c72fed5eb1d76"
)
GOLDEN_RESILIENCE = (
    "46180117cf904e758b50903e4e501de9a603eae8677719367973c609b7516d9e"
)
#: Captured at f892e04, the commit before a store without a byte budget
#: stopped keeping a replacement order: the unlimited-disk figures must not
#: be able to tell (figs. 3 and 6 above run unlimited too).
GOLDEN_FIGURE7_8 = (
    "2b8b55f7b9061e02503f921a35533c76c717463fa6379bb27ddfdd77ea698371"
)
#: Captured at e51fbe9, the last commit whose ``overload`` / ``elastic``
#: series came from a sampler with its own clock: the flight windows that
#: replaced it must give the same series, sample for sample.
GOLDEN_OVERLOAD = (
    "4477f952282766b3f6dc4084d1419bcde8e0913623f8bd891ebcbdc4f2f87e98"
)
#: Re-recorded when every directory hand-over came to be sized
#: ``max(256, n·96)``: only the ``elastic`` and ``under`` arms' ``total_mb``
#: moved (by a retirement's and a join's bytes; was ``c198f8be…``).
GOLDEN_ELASTIC = (
    "c3b790873ba1ebd0438e23526ce9414cec7a8756ecf1c5f328fce4fed4c05687"
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

    def test_overload_fingerprint_unchanged(self, smoke):
        assert fingerprint(smoke("overload").result) == GOLDEN_OVERLOAD

    def test_elastic_fingerprint_unchanged(self, smoke):
        assert fingerprint(smoke("elastic").result) == GOLDEN_ELASTIC

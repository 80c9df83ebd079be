"""The experiment registry: every entry runs, claims, and fails loudly.

One parametrized pass over :data:`repro.experiments.registry.REGISTRY` at
the smoke scale replaces the per-module smoke tests: each entry must run
with no failed point and state a non-empty set of named boolean claims, all
true — except the claims listed in :data:`FALSE_AT_TINY`, which need more
than a 300-document, 40-minute run to resolve (the benchmark harness and
CI assert them at the small scale).
"""

import pytest

from repro.experiments import parallel, registry
from repro.experiments.registry import REGISTRY, SMOKE_SCALE
from repro.experiments.reporting import fingerprint

#: Claims that are false at the tiny scale, with the measured values. Every
#: other claim of every entry must hold there.
FALSE_AT_TINY = {
    ("fig3", "dynamic_peak_below_1.45"),  # 1.453
    ("fig4", "dynamic_cov_below_static"),  # 0.485 vs 0.418
    ("ring-theory", "measured_improvement_near_a_third"),  # 0.034
    ("capabilities", "dynamic_respects_capability"),  # 0.391 vs 0.8 x 0.362
}

#: The beyond-paper sweeps run serially and across worker processes.
DETERMINISM_MATRIX = ("resilience", "overload", "elastic", "zoo", "audit")


@pytest.mark.parametrize("name", list(REGISTRY))
def test_entry_runs_and_claims_hold(name, smoke):
    outcome = smoke(name)
    assert outcome.failures == []
    assert outcome.result is not None
    assert outcome.claims, "an entry must claim something"
    assert all(
        isinstance(claim, str) and isinstance(verdict, bool)
        for claim, verdict in outcome.claims.items()
    )
    false = {(name, claim) for claim, verdict in outcome.claims.items() if not verdict}
    expected = {pair for pair in FALSE_AT_TINY if pair[0] == name}
    assert false == expected
    assert outcome.ok == (not expected)
    rendered = outcome.render()
    assert rendered.rstrip().splitlines()[-1].startswith("claims: ")
    assert ("FAIL" in rendered) == bool(expected)


def test_experiments_md_catalogue_is_generated(smoke):
    """EXPERIMENTS.md embeds ``registry.catalogue()`` over the smoke runs."""
    from pathlib import Path

    text = (Path(__file__).parent.parent / "EXPERIMENTS.md").read_text("utf-8")
    embedded = text.split("<!-- registry:begin -->\n")[1].split(
        "\n<!-- registry:end -->"
    )[0]
    claims = {name: list(smoke(name).claims) for name in REGISTRY}
    assert embedded == registry.catalogue(claims)
    # ...and, under it, what each experiment module costs per claim it states.
    from tests.test_experiment_layering import lines_per_claim

    ranked = text.split("<!-- lines-per-claim:begin -->\n")[1].split(
        "\n<!-- lines-per-claim:end -->"
    )[0]
    assert ranked == lines_per_claim(claims)


def test_known_false_claims_name_real_claims(smoke):
    for name, claim in FALSE_AT_TINY:
        assert claim in smoke(name).claims


@pytest.mark.parametrize("name", DETERMINISM_MATRIX)
def test_fingerprint_is_job_count_invariant(name, smoke):
    """Same seed, same fingerprint, serially and across worker processes."""
    serial = smoke(name)
    pooled = registry.run(name, SMOKE_SCALE, jobs=2)
    assert not pooled.failures
    assert fingerprint(pooled.result) == fingerprint(serial.result)
    assert pooled.claims == serial.claims


class TestResolve:
    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="no 'paper' scale"):
            registry.run("zoo", "paper")

    def test_root_seed_rejected_where_seeds_are_a_grid(self):
        with pytest.raises(ValueError, match="root seed"):
            registry.run("audit", SMOKE_SCALE, seed=3)

    def test_seed_reseeds_the_sizing(self):
        _, sizing = registry.resolve("fig3", SMOKE_SCALE, seed=99)
        assert sizing.seed == 99
        _, default = registry.resolve("fig3", SMOKE_SCALE)
        assert default is REGISTRY["fig3"].scales[SMOKE_SCALE]

    def test_flags_are_split_among_their_owners(self):
        grids = registry.given_grids(
            ["resilience", "fig3"], {"loss_rates": [0.1], "scale": "tiny"}
        )
        assert grids == {"resilience": {"loss_rates": (0.1,)}, "fig3": {}}
        with pytest.raises(ValueError, match="--loss applies to none of: fig3"):
            registry.given_grids(["fig3"], {"loss_rates": [0.1]})

    def test_a_repeated_grid_value_is_rejected(self):
        """Points are keyed by grid value: a repeat ran twice into one row."""
        with pytest.raises(ValueError, match="--loss names a value more than once"):
            registry.given_grids(["resilience"], {"loss_rates": [0.1, 0.1]})

    def test_a_run_is_given_jobs_exactly_when_it_accepts_them(self, monkeypatch):
        for name, run in (
            ("serial", lambda scale: "serial"),
            ("pooled", lambda scale, jobs=None: jobs),
        ):
            entry = registry.Experiment(name, "", run, lambda result: {})
            monkeypatch.setitem(REGISTRY, name, entry)
        assert registry.run("serial", SMOKE_SCALE, jobs=3).result == "serial"
        assert registry.run("pooled", SMOKE_SCALE, jobs=3).result == 3


class TestFailedPoints:
    """A point that fails twice is reported by key, never masked or kept.

    Regression: ``figure3`` used to *return* a result holding the
    ``FailedRun`` (crashing later in ``render``), ``figure6`` and
    ``ablation_threshold`` raised ``AttributeError`` on the placeholder —
    hiding the real error — and the CLI printed no ``FAILED`` line.
    """

    @pytest.fixture
    def second_point_always_fails(self, monkeypatch):
        real = parallel.run_live
        seen = []

        def flaky(spec, *args, **kwargs):
            if spec.key not in seen:
                seen.append(spec.key)
            if seen.index(spec.key) == 1:  # first attempt and the serial retry
                raise RuntimeError(f"boom at {spec.key}")
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(parallel, "run_live", flaky)
        return seen

    @pytest.mark.parametrize(
        "name", ["fig3", "fig6", "threshold", "capabilities", "resilience"]
    )
    def test_failed_line_and_exit_code(self, name, second_point_always_fails, capsys):
        from repro.cli import main

        assert main(["exp", name, "--scale", SMOKE_SCALE, "--jobs", "1"]) == 1
        out = capsys.readouterr().out
        failed_key = second_point_always_fails[1]
        assert f"FAILED {failed_key}: RuntimeError: boom at {failed_key}" in out
        assert "claims:" not in out

    def test_partial_table_keeps_the_points_that_ran(self, second_point_always_fails):
        outcome = registry.run("threshold", SMOKE_SCALE, jobs=1)
        assert not outcome.ok
        assert [failed.key for failed in outcome.failures] == [0.5]
        assert outcome.result.column("threshold") == [0.1, 0.9]

    def test_a_figure_needs_every_point(self, second_point_always_fails):
        outcome = registry.run("fig3", SMOKE_SCALE, jobs=1)
        assert outcome.result is None and not outcome.ok
        assert [failed.error_type for failed in outcome.failures] == ["RuntimeError"]

    def test_a_failed_figure_is_not_archived_as_a_result(
        self, second_point_always_fails, tmp_path, capsys
    ):
        """``--out`` used to write ``{"payload": null}`` and fingerprint ``null``."""
        from repro.cli import main

        archive = tmp_path / "fig3.json"
        argv = ["exp", "fig3", "--scale", SMOKE_SCALE, "--jobs", "1"]
        assert main(argv + ["--out", str(archive), "--fingerprint"]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "archived to" not in out and "fingerprint:" not in out
        assert not archive.exists()

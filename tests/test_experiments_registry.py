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

#: Every entry's tiny-scale fingerprint, read off the same smoke run. A
#: moved value fails :func:`test_tiny_fingerprint_is_pinned` for that entry;
#: re-record it only for an intended, documented change (see
#: ``tests/test_golden_fingerprints.py``), never to silence a diff.
TINY_FINGERPRINTS = {
    # Re-recorded when ``stale_refreshes`` became ``stale_serves``: the
    # point extras carry the resilience summary, and the parent's JSON with
    # that one key renamed hashes to this value (was ``3dcc2c78…``). So
    # does fig4's (was ``d5f1a898…``).
    "fig3": "e32884a6e3314bec06abf96f0c852f5c1b31e3b58902c3127fd456d886717cac",
    "fig4": "1089db8acb480ec79e6cbf5edefadb8a5e1a050f016ea42d1051f7c420806704",
    "fig5": "8890ed60e16a03eb49f85667ccc3f366442a7b69b709ac26bc0ec5d661b809ca",
    "fig6": "8d2007e8c50c1c88978448f3d4446b82e201ee92671c5e1cf134ae1667427a0e",
    "fig7-8": "33d9e4293f8e21993a187e88ddf951e8a7718815184ace360f6bb3b71494b23f",
    "fig9": "d1343861c59929cb975aebaf5e75ec42b044dc1da30bfb54e72861cff3d1312c",
    "load-info": "acd8f3dbbe4161965f1efb442ec4a125f72fef2924f24e4c4d884e9b24ff2471",
    "consistent-hashing": "5149cfa262c7297ea4ae329e99397172de41bfd8d58e31a8a25e081079de7dd8",
    "threshold": "8244249de4b5555ed15edfb800194f542c4158bc794dbb9a930a8a5223499780",
    "cycle-length": "3f99059c5b5d69ac358660f2dc57a90e4111b4571a16a9f8c1339519a575883c",
    "ring-theory": "7074f9da3ea220912aba305ede87048eafd7a05a08ad792624e87b033be68173",
    "consistency": "864b72e4b546176dc0c864e05d1bbe94424576aec0571555a7f6588803a222c9",
    "multi-cloud": "e4c92de99641c11958a6e47819b4ecf7bfbf9c769f05b5aaf28ea63b3ace45ea",
    "adaptive-weights": "616339ad2c855324e51733880cf6b6acbd19b2ff507104104e83ebfa0a284bae",
    "failure-resilience": "979a7d0a9e1ee9766f4b1e650678eef963a47ed788be548772efc9e963b2802e",
    "latency": "b1a0a512597c314b63f3a4c431999fe05a942a7831b5b6ef69f4ef75a7d1f911",
    "capabilities": "b7167f9556ad34dae5d70e3d74fb0d68b06ea057007774cb63e843577e874bb5",
    # Re-recorded when a holder came to serve a stale copy instead of
    # refetching it; so were anti-entropy (was ``c13c9be6…``), overload
    # (``4477f952…``) and audit (``62965943…``). Was ``59e4c4dc…``.
    "resilience": "910745d6fef4b476246148e74a49f3fc092b2e07028ebbaeb8c91b4b502e5f06",
    "anti-entropy": "6e70e7ba864d67a5b24061ba262b903d4be316d2e0d6676165091b170c3a1ff3",
    # Was GOLDEN_OVERLOAD, captured at e51fbe9: the last commit whose
    # ``overload`` / ``elastic`` series came from a sampler with its own
    # clock. The flight windows that replaced it gave the same series,
    # sample for sample (re-recorded since: see ``resilience``).
    "overload": "7d0f333416b792978b4eb5fc93bee480a180c6387b865d0f42487d05b3c9cacf",
    # Was GOLDEN_ELASTIC, re-recorded when every directory hand-over came
    # to be sized ``max(256, n·96)``: only the ``elastic`` and ``under``
    # arms' ``total_mb`` moved (by a retirement's and a join's bytes; was
    # ``c198f8be…``).
    "elastic": "c3b790873ba1ebd0438e23526ce9414cec7a8756ecf1c5f328fce4fed4c05687",
    "zoo": "c1755cdbb8f0849f23fc66b1425b2e0662d1fcb09810e7eb62d826554e39d932",
    "audit": "f16fd93f753ab6ce1173259ab8ddad77e8c1b337654beb4e42480771856001f9",
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


@pytest.mark.parametrize("name", list(REGISTRY))
def test_tiny_fingerprint_is_pinned(name, smoke):
    assert fingerprint(smoke(name).result) == TINY_FINGERPRINTS[name], name


def test_every_entry_has_a_pinned_fingerprint():
    assert list(TINY_FINGERPRINTS) == list(REGISTRY)


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

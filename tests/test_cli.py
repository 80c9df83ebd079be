"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


#: The nine sweep verbs `repro exp` replaced, each with a once-valid tail.
REMOVED_VERBS = [
    ["figure", "3"],
    ["figures"],
    ["ablation", "threshold"],
    ["extension", "consistency"],
    ["resilience"],
    ["overload"],
    ["elastic"],
    ["zoo"],
    ["audit"],
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_requires_valid_number(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exp", "fig12"])

    def test_scale_choices(self):
        args = build_parser().parse_args(["exp", "fig3", "--scale", "tiny"])
        assert args.scale == "tiny"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exp", "fig3", "--scale", "huge"])

    def test_trace_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_elastic_flags_parse(self):
        args = build_parser().parse_args(
            ["exp", "elastic", "--scale", "tiny", "--jobs", "2", "--seed", "9",
             "--fingerprint"]
        )
        assert args.command == "exp"
        assert args.names == ["elastic"]
        assert args.scale == "tiny"
        assert args.jobs == 2
        assert args.seed == 9
        assert args.fingerprint
        assert args.out is None

    @pytest.mark.parametrize("argv", REMOVED_VERBS, ids=lambda argv: argv[0])
    def test_removed_verbs_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_exactly_six_verbs(self):
        (verbs,) = [
            action.choices
            for action in build_parser()._actions
            if action.dest == "command"
        ]
        assert list(verbs) == ["exp", "trace", "run", "observe", "flight", "compare"]

    def test_experiment_flags_come_from_the_registry(self):
        from repro.experiments.registry import REGISTRY

        parser = build_parser()
        for entry in REGISTRY.values():
            args = parser.parse_args(["exp", entry.name])
            # Ungiven grid flags stay absent: each entry applies its own default.
            assert not {param.name for param in entry.params} & set(vars(args))
        args = parser.parse_args(
            ["exp", "audit", "--seeds", "3", "4", "--no-anti-entropy", "--duration", "5"]
        )
        assert (args.seeds, args.anti_entropy, args.duration) == ([3, 4], False, 5.0)


class TestExpUsageErrors:
    """Well-formed command lines asking for something an experiment lacks."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["exp", "fig3", "--loss", "0.1"], "--loss applies to none of: fig3"),
            (["exp", "audit", "--scale", "paper"], "audit has no 'paper' scale"),
            (["exp", "audit", "--seed", "3"], "takes no root seed"),
            (["exp", "fig3", "fig4", "--out", "x.json"], "name exactly one"),
            (
                ["exp", "zoo", "--schemes", "utility", "utility", "--flight-dir", "d"],
                "--schemes names a value more than once",
            ),
        ],
    )
    def test_rejected_before_anything_runs(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


#: A flight artifact recorded once for the rows that read one.
_SMALL_FLIGHT = [
    "flight", "record",
    "--documents", "80",
    "--caches", "4",
    "--rings", "2",
    "--duration", "4",
    "--cycle", "2",
    "--window", "2",
]


class TestRejectedValuesAndFiles:
    """A value a verb's constructors reject, a negative count or bound, or an
    input file that cannot be opened: exit 2 with one stderr line, before
    anything runs, and never a traceback."""

    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("flight") / "flight.jsonl")
        assert main(_SMALL_FLIGHT + ["--out", path]) == 0
        return path

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["flight", "record", "--out", "{out}", "--window", "0"], "window width"),
            (["flight", "record", "--out", "{out}", "--top-docs", "-1"], "top_docs"),
            (["observe", "--span-limit", "0"], "max_spans must be positive"),
            (["run", "--caches", "0"], "num_caches must be positive"),
            (["run", "--duration", "0"], "duration_minutes must be positive"),
            (["trace", "--duration", "-5", "--out", "{out}"], "duration_minutes"),
            (["flight", "render", "{missing}"], "No such file"),
            (["compare", "{missing}", "{missing}"], "No such file"),
            (["flight", "render", "{artifact}", "--top", "-1"], "--top must be >= 0"),
            (
                ["flight", "diff", "{artifact}", "{artifact}", "--tolerance", "-0.1"],
                "--tolerance must be >= 0",
            ),
            (["flight", "record", "--out", "{out}", "--window", "nan"], "window width"),
            (["flight", "record", "--out", "{out}", "--window", "inf"], "window width"),
        ],
    )
    def test_exit_two_with_one_line(self, argv, message, artifact, tmp_path, capsys):
        out = tmp_path / "out"
        paths = dict(out=out, missing=tmp_path / "missing.json", artifact=artifact)
        try:
            code = main([arg.format(**paths) for arg in argv])
        except SystemExit as exit_info:
            code = exit_info.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and message in captured.err
        assert not out.exists()  # nothing ran, nothing was written


class TestCommands:
    def test_figure3_tiny(self, capsys):
        # One claim is known-false at the tiny scale (dynamic peak/mean is
        # 1.453 there), and a false claim is a failing run.
        assert main(["exp", "fig3", "--scale", "tiny"]) == 1
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "peak/mean" in out
        assert "dynamic_peak_below_static=PASS" in out
        assert "dynamic_peak_below_1.45=FAIL" in out

    def test_ablation_load_info_tiny(self, capsys):
        assert main(["exp", "load-info", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "CIrHLd" in out

    def test_extension_consistency_tiny(self, capsys):
        assert main(["exp", "consistency", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "TTL" in out

    def test_several_experiments_in_one_invocation(self, capsys):
        code = main(
            ["exp", "failure-resilience", "zoo", "--scale", "tiny",
             "--schemes", "lce", "lcd", "--fingerprint"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.index("lazy directory replication") < out.index("strategy ranking")
        assert out.count("claims: ") == out.count("fingerprint: ") == 2
        assert "probcache" not in out  # --schemes reached the zoo only

    def test_resilience_telemetry_reruns_the_harshest_point(self, tmp_path, capsys):
        import json

        artifact = tmp_path / "harshest.json"
        code = main(
            ["exp", "resilience", "--scale", "tiny", "--loss", "0", "0.2",
             "--churn", "0", "--telemetry", str(artifact)]
        )
        assert code == 0
        assert f"telemetry for point (loss=0.2, churn=0.0) -> {artifact}" in (
            capsys.readouterr().out
        )
        data = json.loads(artifact.read_text())
        assert data["spans"]["recorded"] > 0
        assert any(key.startswith("latency_ms.") for key in data["histograms"])

    def test_trace_generation(self, tmp_path, capsys):
        out_file = tmp_path / "trace.txt"
        code = main(
            [
                "trace",
                "--documents", "50",
                "--caches", "4",
                "--duration", "5",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        content = out_file.read_text()
        assert content.startswith(("R ", "U "))
        assert "wrote" in capsys.readouterr().out

    def test_run_command(self, capsys):
        code = main(
            [
                "run",
                "--documents", "100",
                "--caches", "4",
                "--rings", "2",
                "--duration", "10",
                "--cycle", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cloud hit rate" in out
        assert "CoV" in out

    def test_run_with_static_and_beacon(self, capsys):
        code = main(
            [
                "run",
                "--documents", "100",
                "--caches", "4",
                "--rings", "2",
                "--duration", "10",
                "--assignment", "static",
                "--placement", "beacon",
            ]
        )
        assert code == 0


class TestResilienceSeedFlag:
    def test_seed_parses(self):
        args = build_parser().parse_args(["exp", "resilience", "--seed", "42"])
        assert args.seed == 42

    def test_seed_defaults_to_none(self):
        args = build_parser().parse_args(["exp", "resilience"])
        assert args.seed is None


class TestAuditCommand:
    _FAST = [
        "exp", "audit",
        "--seeds", "1",
        "--loss", "0.3",
        "--churn", "0.1",
        "--duration", "20",
    ]

    def test_clean_grid_exits_zero(self, capsys):
        assert main(self._FAST) == 0
        out = capsys.readouterr().out
        assert "Chaos audit" in out
        assert "CLEAN" in out

    def test_no_anti_entropy_reports_divergence(self, capsys):
        code = main(self._FAST + ["--no-anti-entropy"])
        out = capsys.readouterr().out
        assert "anti-entropy OFF" in out
        # Unrepaired divergence is what the control arm claims; only hard
        # violations (or no divergence at all) would fail the command.
        assert code == 0
        assert "verdict: unrepaired=" in out
        assert "divergence_persists_without_repair=PASS" in out

    def test_fingerprint_and_archive(self, tmp_path, capsys):
        out_file = tmp_path / "audit.json"
        code = main(
            self._FAST + ["--fingerprint", "--out", str(out_file)]
        )
        assert code == 0
        assert out_file.exists()
        assert "fingerprint: " in capsys.readouterr().out


class TestCompareCommand:
    def _write(self, tmp_path, name, payload, filename):
        from repro.experiments.reporting import save_result

        path = tmp_path / filename
        save_result(payload, path, name=name)
        return str(path)

    def test_no_drift_exits_zero(self, tmp_path, capsys):
        a = self._write(tmp_path, "e", {"v": 1.0}, "a.json")
        b = self._write(tmp_path, "e", {"v": 1.0}, "b.json")
        assert main(["compare", a, b]) == 0
        assert "no metric drifted" in capsys.readouterr().out

    def test_drift_exits_nonzero_and_lists_paths(self, tmp_path, capsys):
        a = self._write(tmp_path, "e", {"v": 1.0}, "a.json")
        b = self._write(tmp_path, "e", {"v": 2.0}, "b.json")
        assert main(["compare", a, b]) == 1
        out = capsys.readouterr().out
        assert "v: 1 -> 2" in out

    def test_one_sided_paths_exit_nonzero_with_a_count(self, tmp_path, capsys):
        a = self._write(tmp_path, "e", {"rows": [[1.0], [2.0], [3.0]]}, "a.json")
        b = self._write(tmp_path, "e", {"rows": [[1.0]]}, "b.json")
        assert main(["compare", a, b]) == 1
        out = capsys.readouterr().out
        assert "2 present in one archive only" in out
        assert "rows[2][0]: 3 -> absent" in out

    def test_tolerance_flag(self, tmp_path):
        a = self._write(tmp_path, "e", {"v": 1.0}, "a.json")
        b = self._write(tmp_path, "e", {"v": 1.2}, "b.json")
        assert main(["compare", a, b, "--tolerance", "0.5"]) == 0
        assert main(["compare", a, b, "--tolerance", "0.1"]) == 1


class TestObserveCommand:
    _FAST = [
        "observe",
        "--documents", "80",
        "--caches", "4",
        "--rings", "2",
        "--duration", "8",
        "--cycle", "4",
    ]

    def test_summary_includes_collaborative_miss_tree(self, capsys):
        assert main(self._FAST) == 0
        out = capsys.readouterr().out
        assert "== histograms ==" in out
        assert "example collaborative miss" in out
        for name in ("request", "beacon_lookup", "peer_fetch", "placement"):
            assert name in out

    def test_json_mode_and_artifact(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "telemetry.json"
        assert main(self._FAST + ["--json", "--out", str(out_file)]) == 0
        stdout = capsys.readouterr().out
        data = json.loads(out_file.read_text())
        assert data["schema_version"] == 1
        latency = [key for key in data["histograms"] if key.startswith("latency_ms.")]
        assert latency
        for key in latency:
            for stat in ("p50", "p90", "p99"):
                assert data["histograms"][key][stat] is not None, (key, stat)
        assert data["spans"]["recorded"] > 0
        # The printed JSON is the same canonical document.
        assert json.loads(stdout[: stdout.rindex("}") + 1]) == data

    def test_same_seed_artifacts_are_bit_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(self._FAST + ["--out", str(a)]) == 0
        assert main(self._FAST + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestRunTelemetryFlag:
    def test_flag_defaults_off(self):
        args = build_parser().parse_args(["run"])
        assert args.telemetry is None

    def test_flag_without_value_uses_default_path(self):
        args = build_parser().parse_args(["run", "--telemetry"])
        assert args.telemetry == "telemetry.json"

    def test_run_writes_artifact(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "run-telemetry.json"
        code = main(
            [
                "run",
                "--documents", "100",
                "--caches", "4",
                "--rings", "2",
                "--duration", "10",
                "--cycle", "5",
                "--telemetry", str(out_file),
            ]
        )
        assert code == 0
        assert "telemetry:" in capsys.readouterr().out
        data = json.loads(out_file.read_text())
        for key in data["histograms"]:
            if key.startswith("latency_ms."):
                assert data["histograms"][key]["p99"] is not None


class TestFlightCommand:
    _RECORD = [
        "flight", "record",
        "--documents", "150",
        "--caches", "4",
        "--rings", "2",
        "--duration", "8",
        "--cycle", "4",
        "--window", "2",
        "--seed", "5",
    ]

    def test_record_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["flight", "record"])

    def test_record_render_and_self_diff(self, tmp_path, capsys):
        artifact = tmp_path / "flight.jsonl"
        assert main(self._RECORD + ["--out", str(artifact), "--report"]) == 0
        out = capsys.readouterr().out
        assert "flight artifact ->" in out
        assert "per-phase cost stack" in out

        html_file = tmp_path / "flight.html"
        assert main(
            ["flight", "render", str(artifact), "--html", str(html_file)]
        ) == 0
        assert "outcome mix" in capsys.readouterr().out
        assert html_file.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")

        assert main(["flight", "diff", str(artifact), str(artifact)]) == 0
        diff_out = capsys.readouterr().out
        assert "OK" in diff_out and "FAIL" not in diff_out

    def test_diff_flags_perturbed_artifact(self, tmp_path, capsys):
        import json

        artifact = tmp_path / "flight.jsonl"
        assert main(self._RECORD + ["--out", str(artifact)]) == 0
        capsys.readouterr()
        perturbed = tmp_path / "perturbed.jsonl"
        lines = []
        for line in artifact.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if record.get("type") == "window" and record.get("index") == 1:
                record["requests"] = int(record["requests"]) * 4
            lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
        perturbed.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["flight", "diff", str(artifact), str(perturbed)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_artifact_carries_windows_phases_and_walk_leaders(self, tmp_path):
        from repro.observe.flight import read_flight

        artifact = tmp_path / "flight.jsonl"
        assert main(self._RECORD + ["--out", str(artifact)]) == 0
        log = read_flight(str(artifact))
        assert len(log.windows) == 8 // 2  # one per --duration / --window
        phases = {phase for window in log.windows for phase in window.get("cost", {})}
        assert {"beacon_lookup", "holder_verify", "placement"} <= phases
        assert any(window.get("walk", {}).get("top") for window in log.windows)
        assert log.summary["profile"]["holder_walk_length"]["count"] > 0

    def test_same_seed_artifacts_are_bit_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(self._RECORD + ["--out", str(a)]) == 0
        assert main(self._RECORD + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zoo_flight_dir_parses(self):
        args = build_parser().parse_args(
            ["exp", "zoo", "--scale", "tiny", "--flight-dir", "arms"]
        )
        assert args.flight_dir == "arms"

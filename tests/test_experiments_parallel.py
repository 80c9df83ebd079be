"""Unit tests for the parallel sweep executor."""

from __future__ import annotations

import pickle

import pytest

from repro.core.config import AssignmentScheme, CloudConfig, PlacementScheme
from repro.core.elastic import ElasticConfig
from repro.core.overload import OverloadConfig
from repro.experiments import parallel
from repro.experiments.parallel import (
    JOBS_ENV_VAR,
    ExperimentSpec,
    FailedRun,
    WorkloadSpec,
    resolve_jobs,
    run_live,
    run_spec,
    run_sweep,
)
from repro.experiments.reporting import fingerprint
from repro.experiments.sweeps import Scale, paper_cloud, poisson_churn, zipf_workload
from repro.faults.plan import FaultPlan
from repro.observe.flight import FlightSpec
from repro.simulation.rng import derive_seed
from repro.workload.generator import WorkloadConfig
from repro.workload.sydney import SydneyConfig
from tests.conftest import run_materialized


def zipf_spec(key="spec", seed=7, alpha=0.9) -> ExperimentSpec:
    """A small, fast spec used throughout these tests."""
    workload = WorkloadSpec(
        generator_config=WorkloadConfig(
            num_documents=60,
            num_caches=4,
            request_rate_per_cache=30.0,
            update_rate=10.0,
            alpha_requests=alpha,
            duration_minutes=10.0,
            seed=seed,
        ),
        corpus_documents=60,
        corpus_seed=seed,
    )
    config = CloudConfig(
        num_caches=4,
        num_rings=2,
        intra_gen=100,
        cycle_length=5.0,
        assignment=AssignmentScheme.DYNAMIC,
        placement=PlacementScheme.AD_HOC,
        seed=seed,
    )
    return ExperimentSpec(
        key=key, config=config, workload=workload, duration=10.0, warmup=0.0
    )


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_sensitive_to_every_part(self):
        base = derive_seed(1, "a", 2)
        assert derive_seed(2, "a", 2) != base
        assert derive_seed(1, "b", 2) != base
        assert derive_seed(1, "a", 3) != base


class TestWorkloadSpec:
    def test_materialize_is_deterministic(self):
        spec = zipf_spec().workload
        corpus_a, trace_a = spec.materialize()
        corpus_b, trace_b = spec.materialize()
        assert [d.size_bytes for d in corpus_a] == [d.size_bytes for d in corpus_b]
        assert trace_a.requests == trace_b.requests
        assert trace_a.updates == trace_b.updates

    def test_sydney_config_selects_sydney_generator(self):
        spec = WorkloadSpec(
            generator_config=SydneyConfig(
                num_documents=40,
                num_caches=4,
                peak_request_rate_per_cache=20.0,
                base_update_rate=5.0,
                duration_minutes=10.0,
                diurnal_period_minutes=10.0,
                num_epochs=2,
                drift_pool=10,
                seed=3,
            ),
            corpus_documents=40,
            corpus_seed=3,
        )
        trace = spec.build_trace()
        assert trace.requests  # the Sydney generator produced a workload

    def test_specs_are_picklable_and_small(self):
        spec = zipf_spec()
        blob = pickle.dumps(spec)
        assert pickle.loads(blob) == spec
        # The whole point: the recipe crosses the process boundary, not the
        # materialized trace (thousands of records).
        assert len(blob) < 10_000


class TestResolveJobs:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "8")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "5")
        assert resolve_jobs() == 5

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs() == 1

    def test_zero_means_all_cpus(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(0) >= 1

    def test_invalid_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        with pytest.raises(ValueError, match=JOBS_ENV_VAR):
            resolve_jobs()


class TestRunSweep:
    def test_empty_sweep(self):
        assert run_sweep([]) == []

    def test_results_in_spec_order(self):
        specs = [zipf_spec(key=k, alpha=a) for k, a in (("a", 0.2), ("b", 0.9))]
        results = run_sweep(specs, jobs=1)
        assert [r.config.seed for r in results] == [s.config.seed for s in specs]
        # Different alphas genuinely produce different workloads/results.
        assert results[0].requests != 0
        assert results[0].load_stats != results[1].load_stats

    def test_results_are_detached(self):
        (result,) = run_sweep([zipf_spec()], jobs=1)
        assert result.cloud is None
        assert result.unique_request_docs > 0

    def test_parallel_matches_serial_exactly(self):
        """The headline guarantee: jobs=4 is value-identical to jobs=1."""
        specs = [
            zipf_spec(key=k, seed=s, alpha=a)
            for k, s, a in (("a", 1, 0.2), ("b", 2, 0.6), ("c", 3, 0.9), ("d", 4, 0.9))
        ]
        serial = run_sweep(specs, jobs=1)
        parallel_results = run_sweep(specs, jobs=4)
        assert serial == parallel_results

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        def broken(*args, **kwargs):
            raise OSError("no semaphores here")

        monkeypatch.setattr(parallel, "_run_pool", broken)
        specs = [zipf_spec(key="a"), zipf_spec(key="b")]
        results = run_sweep(specs, jobs=2)
        assert results == run_sweep(specs, jobs=1)

    def test_jobs_capped_by_spec_count(self, monkeypatch):
        seen = {}

        def fake_parallel(specs, workers, runner, on_result=None):
            seen["workers"] = workers
            return [runner(spec) for spec in specs]

        monkeypatch.setattr(parallel, "_run_pool", fake_parallel)
        run_sweep([zipf_spec(key="a"), zipf_spec(key="b")], jobs=16)
        assert seen["workers"] == 2

    def test_custom_runner(self):
        results = run_sweep([zipf_spec(key="x")], jobs=1, runner=lambda s: s.key)
        assert results == ["x"]

    def test_run_spec_equals_inline_execution(self):
        """run_spec reproduces exactly what a hand-rolled run would."""
        from repro.experiments.runner import run_experiment

        spec = zipf_spec()
        corpus, trace = spec.workload.materialize()
        expected = run_experiment(
            spec.config,
            corpus,
            trace.requests,
            trace.updates,
            duration=spec.duration,
            warmup=spec.warmup,
        )
        expected.unique_request_docs = len(trace.request_counts_by_doc())
        assert run_spec(spec) == expected.detached()


#: 8 caches, 200 documents, 30 simulated minutes: every plane in ~0.1 s.
PLANES_SCALE = Scale(
    num_caches=8,
    num_rings=2,
    num_documents=200,
    request_rate_per_cache=20.0,
    update_rate=8.0,
    duration_minutes=30.0,
    cycle_length=2.5,
)

#: Poisson crashes at 0.2/min; seed 5 crashes (and recovers) three live nodes.
PLANES_CHURN = poisson_churn(
    5, PLANES_SCALE.duration_minutes, PLANES_SCALE.cycle_length, 0.2
)


def planes_spec(
    flight_path, resilient=True, placement=PlacementScheme.UTILITY, **planes
) -> ExperimentSpec:
    """A :data:`PLANES_SCALE` spec with a flight recorder and ``planes``
    (``flight_path=None`` keeps the recording in memory)."""
    return ExperimentSpec(
        key="planes",
        config=paper_cloud(
            PLANES_SCALE, failure_resilience=resilient, placement=placement
        ),
        workload=zipf_workload(PLANES_SCALE),
        duration=PLANES_SCALE.duration_minutes,
        flight=FlightSpec(None if flight_path is None else str(flight_path)),
        **planes,
    )


class TestOneAttachSequence:
    """``run_live`` goes through ``run_experiment``'s one attach sequence."""

    def test_on_attached_sees_every_plane(self):
        seen = {}

        def on_attached(cloud, simulator):
            seen.update(
                faults=cloud.faults,
                anti_entropy=cloud.anti_entropy,
                flight=cloud.flight,
            )

        result = run_live(
            planes_spec(
                None,
                fault_plan=FaultPlan(seed=3, loss_rate=0.1),
                anti_entropy=True,
                overload=OverloadConfig(),
            ),
            on_attached=on_attached,
        )
        assert seen and all(plane is not None for plane in seen.values()), seen
        # The in-memory recording saw the planes it records, window by window.
        windows = result.cloud.flight.log.windows
        assert len(windows) == 30
        assert all("overload" in window for window in windows)
        lost = [row[2] for window in windows for row in window.get("fabric", {}).values()]
        assert sum(lost) > 0
        assert any("holder_verify" in window.get("cost", {}) for window in windows)

    def test_a_rejected_spec_leaves_nothing_behind(self, tmp_path):
        artifact = tmp_path / "f.jsonl"
        spec = planes_spec(
            artifact,
            resilient=False,
            churn=PLANES_CHURN,
        )
        with pytest.raises(RuntimeError, match="failure_resilience"):
            run_spec(spec)
        assert not artifact.exists()

    def test_every_plane_at_once(self, tmp_path):
        specs = [
            planes_spec(
                tmp_path / f"{run}.jsonl",
                fault_plan=FaultPlan(seed=3, loss_rate=0.1),
                churn=PLANES_CHURN,
                anti_entropy=True,
                overload=OverloadConfig(),
                elastic=ElasticConfig(),
                placement=PlacementScheme.LCD,
                audit=True,
            )
            for run in ("a", "b", "materialized")
        ]
        first, second = run_spec(specs[0]), run_spec(specs[1])
        materialized = run_materialized(specs[2])
        assert first.audit["audit_hard"] == 0
        assert first.audit["audit_repairable"] == 0
        # Not vacuous: nodes crashed, the cloud shrank, repairs ran.
        assert first.resilience["churn_failures"] > 0
        assert first.resilience["elastic_scale_in_events"] > 0
        assert first.resilience["ae_repairs"] > 0
        assert fingerprint(first) == fingerprint(second) == fingerprint(materialized)
        artifacts = [(tmp_path / f"{run}.jsonl").read_bytes() for run in ("a", "b")]
        assert artifacts[0] == artifacts[1]
        assert (tmp_path / "materialized.jsonl").read_bytes() == artifacts[0]


def _always_boom(spec):
    """Module-level (picklable) runner that fails every time."""
    raise RuntimeError(f"boom:{spec.key}")


def _boom_for_b(spec):
    """Module-level runner that fails only for the spec keyed 'b'."""
    if spec.key == "b":
        raise ValueError("b is cursed")
    return spec.key


class TestSweepHardening:
    def test_persistent_failure_yields_failed_run(self):
        results = run_sweep([zipf_spec(key="x")], jobs=1, runner=_always_boom)
        (failed,) = results
        assert isinstance(failed, FailedRun)
        assert failed.key == "x"
        assert failed.error_type == "RuntimeError"
        assert "boom:x" in failed.error

    def test_failure_does_not_poison_other_slots(self):
        specs = [zipf_spec(key=k) for k in ("a", "b", "c")]
        results = run_sweep(specs, jobs=1, runner=_boom_for_b)
        assert results[0] == "a"
        assert isinstance(results[1], FailedRun)
        assert results[1].key == "b"
        assert results[2] == "c"

    def test_transient_failure_recovers_on_serial_retry(self):
        calls = {"n": 0}

        def flaky(spec):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("transient")
            return spec.key

        results = run_sweep([zipf_spec(key="x")], jobs=1, runner=flaky)
        assert results == ["x"]
        assert calls["n"] == 2

    def test_parallel_failures_land_in_spec_order(self):
        specs = [zipf_spec(key=k) for k in ("a", "b", "c")]
        results = run_sweep(specs, jobs=2, runner=_boom_for_b)
        assert results[0] == "a"
        assert isinstance(results[1], FailedRun)
        assert results[1].error_type == "ValueError"
        assert results[2] == "c"


_CHECKPOINT_CALLS: list = []


def _recording_runner(spec):
    """Module-level (picklable, stable qualname) runner that logs calls."""
    _CHECKPOINT_CALLS.append(spec.key)
    return spec.key


_FAIL_BUDGET = {"remaining": 0}


def _fail_while_budget(spec):
    """Fails the 'b' spec while the budget lasts, then succeeds."""
    if spec.key == "b" and _FAIL_BUDGET["remaining"] > 0:
        _FAIL_BUDGET["remaining"] -= 1
        raise RuntimeError("b is cursed for now")
    return spec.key


class TestSweepCheckpoint:
    """Checkpoint/resume: long sweeps survive interruption arm-by-arm."""

    @pytest.fixture(autouse=True)
    def _clean_call_log(self):
        _CHECKPOINT_CALLS.clear()
        _FAIL_BUDGET["remaining"] = 0
        yield
        _CHECKPOINT_CALLS.clear()
        _FAIL_BUDGET["remaining"] = 0

    def _specs(self):
        return [zipf_spec(key=k) for k in ("a", "b", "c")]

    def test_resume_skips_completed_runs(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        specs = self._specs()
        first = run_sweep(specs, jobs=1, runner=_recording_runner,
                          checkpoint=path)
        assert first == ["a", "b", "c"]
        assert _CHECKPOINT_CALLS == ["a", "b", "c"]

        _CHECKPOINT_CALLS.clear()
        again = run_sweep(specs, jobs=1, runner=_recording_runner,
                          checkpoint=path)
        assert again == first
        assert _CHECKPOINT_CALLS == []  # everything restored, nothing re-run

    def test_failed_runs_are_retried_on_resume(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        specs = self._specs()
        # Two failures: the initial attempt and the automatic serial retry —
        # so the first sweep really records a FailedRun for 'b'.
        _FAIL_BUDGET["remaining"] = 2
        first = run_sweep(specs, jobs=1, runner=_fail_while_budget,
                          checkpoint=path)
        assert first[0] == "a" and first[2] == "c"
        assert isinstance(first[1], FailedRun)

        resumed = run_sweep(specs, jobs=1, runner=_fail_while_budget,
                            checkpoint=path)
        assert resumed == ["a", "b", "c"]  # only 'b' re-ran, and it healed

    def test_signature_mismatch_raises(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        run_sweep(self._specs(), jobs=1, runner=_recording_runner,
                  checkpoint=path)
        other = [zipf_spec(key="a", seed=99)]
        with pytest.raises(ValueError, match="different sweep"):
            run_sweep(other, jobs=1, runner=_recording_runner, checkpoint=path)

    def test_non_checkpoint_file_rejected(self, tmp_path):
        path = tmp_path / "not-a-checkpoint.txt"
        path.write_text("just some notes\n")
        with pytest.raises(ValueError, match="not a sweep checkpoint"):
            run_sweep(self._specs(), jobs=1, runner=_recording_runner,
                      checkpoint=path)

    def test_truncated_tail_record_is_reexecuted(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        specs = self._specs()
        run_sweep(specs, jobs=1, runner=_recording_runner, checkpoint=path)
        # Chop mid-record, as a crash during the final append would.
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])

        _CHECKPOINT_CALLS.clear()
        resumed = run_sweep(specs, jobs=1, runner=_recording_runner,
                            checkpoint=path)
        assert resumed == ["a", "b", "c"]
        assert _CHECKPOINT_CALLS == ["c"]  # only the torn record re-ran

    def test_resumed_results_value_identical_to_uninterrupted(self, tmp_path):
        """Real ExperimentResults round-trip the checkpoint byte-exactly."""
        path = tmp_path / "sweep.ckpt"
        specs = [zipf_spec(key=k, seed=s) for k, s in (("a", 1), ("b", 2))]
        uninterrupted = run_sweep(specs, jobs=1)
        checkpointed = run_sweep(specs, jobs=1, checkpoint=path)
        restored = run_sweep(specs, jobs=1, checkpoint=path)
        assert checkpointed == uninterrupted
        assert restored == uninterrupted

    def test_parallel_checkpoint_matches_serial(self, tmp_path):
        serial = run_sweep(self._specs(), jobs=1, runner=_recording_runner,
                           checkpoint=tmp_path / "serial.ckpt")
        parallel_run = run_sweep(self._specs(), jobs=2,
                                 runner=_recording_runner,
                                 checkpoint=tmp_path / "parallel.ckpt")
        assert serial == parallel_run

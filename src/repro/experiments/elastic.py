"""Diurnal autoscaling sweep: elastic vs statically provisioned clouds.

The paper evaluates a fixed 10-cache cloud, but its own Sydney workload is
the canonical argument against fixed sizing: a diurnal envelope (the cloud
is near-idle at 4am) punctuated by flash crowds (the cloud is melting at
noon). This sweep drives three arms over one simulated day with a scripted
volume flash crowd:

* ``elastic`` — starts at the night-time minimum and lets the
  :class:`~repro.core.elastic.ElasticController` instantiate and retire
  nodes from the overload signals (warm join on the way up, safe drain on
  the way down).
* ``over`` — statically provisioned for the peak (all caches, all day).
* ``under`` — statically provisioned for the trough (the minimum, all
  day).

All three arms share one trace (common random numbers), one service model,
and one cloud structure — each carries an elastic controller whose bounds
simply pin the static arms, so the only variable is the sizing *policy*.
The question: can the elastic arm match the over-provisioned arm's
flash-crowd tail latency at a fraction of its node-minutes, while avoiding
the under-provisioned arm's rejections?

Safety is audited, not assumed: after every scale-in the invariant auditor
runs against the live cloud (a drain that lost a document or left a
dangling registration fails the run), and the workload is update-free so
the end-of-run audit must be *perfectly* clean — there is no staleness to
hide behind.

Determinism: arms share the workload spec, the controller is RNG-free, and
the flight recorder's windows are simulated time — the sweep is
value-identical at any ``--jobs`` count
(``tests/test_experiments_registry.py`` runs it serial vs pooled).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.audit.invariants import InvariantAuditor
from repro.core.cloud import CacheCloud
from repro.core.config import PlacementScheme
from repro.core.elastic import ElasticConfig
from repro.core.overload import OverloadConfig
from repro.experiments.figures import SMALL_SCALE
from repro.experiments.overload import default_overload_config
from repro.experiments.parallel import (
    ExperimentSpec,
    WorkloadSpec,
    run_live,
)
from repro.experiments.sweeps import (
    Scale,
    SweepTable,
    paper_cloud,
    run_table,
    sydney_workload,
)
from repro.faults.churn import RETIRE, ChurnEvent
from repro.observe.flight import FlightSpec, window_series
from repro.observe.registry import Telemetry
from repro.simulation.engine import Simulator
from repro.simulation.rng import derive_seed

#: Number of configured caches in every arm (the paper's cloud size; the
#: elastic and under arms run fewer of them at a time).
NUM_CACHES = 10

#: The night-time minimum: the under arm's fixed size and the elastic
#: arm's floor and starting size.
MIN_CACHES = 3

#: Flight windows per run.
WINDOWS = 24

#: Flash-crowd volume amplification inside the flash window.
FLASH_BOOST = 3.0

#: Flash start as a fraction of the day (just past the diurnal noon peak,
#: where the static-minimum arm is already struggling).
FLASH_AT = 0.55

#: Flash length as a fraction of the day.
FLASH_LENGTH = 0.10

#: Per-arm windowed series exported into the sweep result: the flight
#: recorder's, plus the telemetry's windowed ``request_p99_ms``.
FLIGHT_SERIES = ("cloud_size", "avg_queue_depth", "rejection_rate")

ARMS = ("elastic", "over", "under")


def flash_window(duration_minutes: float) -> Tuple[float, float]:
    """The scripted flash-crowd window for a day of ``duration_minutes``."""
    start = FLASH_AT * duration_minutes
    return (start, start + FLASH_LENGTH * duration_minutes)


def _diurnal_workload(scale: Scale) -> WorkloadSpec:
    """One Sydney-like day, update-free, with a scripted volume flash.

    Update-free is a deliberate choice, not a simplification: with no
    origin updates there is no staleness for the audits to tolerate, so
    every invariant check in the sweep can demand a perfectly clean
    report — any violation is the autoscaler's fault.
    """
    duration = scale.duration_minutes
    return sydney_workload(
        scale,
        corpus_seed=derive_seed(scale.seed, "elastic-corpus"),
        num_caches=NUM_CACHES,
        base_update_rate=0.0,
        seed=derive_seed(scale.seed, "elastic"),
        num_epochs=2,
        drift_pool=min(100, scale.num_documents),
        diurnal_floor=0.15,
        flash_times=(flash_window(duration)[0],),
        flash_duration_minutes=FLASH_LENGTH * duration,
        flash_multiplier=8.0,
        flash_rate_boost=FLASH_BOOST,
    )


def _service_model(scale: Scale) -> OverloadConfig:
    """The icarus-shaped service model, normalized to the scale's rate.

    The figure scales raise the request rate with experiment size, but a
    node's per-message service cost is a property of the node, not of the
    run size — left fixed, the larger scales saturate *every* arm all day
    and the sweep would compare retry-ladder artifacts instead of sizing
    policies. Scaling the service costs inversely with the scale's rate
    pins every scale to the calibration point of
    :func:`~repro.experiments.overload.default_overload_config` (tiny's
    30 requests/min/cache), so utilization — the thing the autoscaler
    reacts to — is scale-invariant.
    """
    factor = 30.0 / scale.request_rate_per_cache
    base = default_overload_config()
    return replace(
        base,
        service_ms=base.service_ms * factor,
        service_ms_per_kb=base.service_ms_per_kb * factor,
    )


def _arm_elastic_config(arm: str, scale: Scale) -> ElasticConfig:
    """The sizing policy for one arm.

    The static arms are controllers whose bounds pin the size — they run
    the identical code path (periodic checks, the same signal window), so
    the arms differ only in policy, never in structure.
    """
    bounds: Tuple[int, int, Optional[int]]
    if arm == "elastic":
        bounds = (MIN_CACHES, NUM_CACHES, MIN_CACHES)
    elif arm == "over":
        bounds = (NUM_CACHES, NUM_CACHES, None)
    elif arm == "under":
        bounds = (MIN_CACHES, MIN_CACHES, MIN_CACHES)
    else:
        raise ValueError(f"unknown arm {arm!r}")
    check = scale.duration_minutes / 120.0
    return ElasticConfig(
        min_caches=bounds[0],
        max_caches=bounds[1],
        initial_caches=bounds[2],
        window_minutes=4.0 * check,
        check_period_minutes=check,
        cooldown_minutes=check,
    )


@dataclass
class ElasticArmResult:
    """One arm of the diurnal sweep, detached and picklable."""

    arm: str
    requests: int
    requests_rejected: int
    rejection_percent: float
    #: p99 client latency over served (non-rejected) requests.
    p99_ms: float
    #: p99 over the flash-crowd window only — the tail the sweep is about.
    flash_p99_ms: float
    total_mb: float
    node_minutes: float
    mean_cloud_size: float
    scale_out_events: int
    scale_in_events: int
    drain_bytes: int
    docs_handed_off: int
    docs_invalidated: int
    #: *Hard* invariant violations found by the audit run after *each*
    #: scale-in (summed). Zero or the drain protocol is broken. Repairable
    #: divergence (e.g. orphan copies from registrations shed under
    #: overload) is excluded: it appears identically in the static arms
    #: and belongs to the overload model, not the autoscaler.
    scale_in_audit_violations: int
    #: Scale-in audits performed (to prove the check above is not vacuous).
    scale_in_audits: int
    #: Hard violations in the end-of-run audit (must be zero).
    final_audit_violations: int
    #: Windowed series (name -> [(window end, value), ...]) over the run.
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)


def _run_point(spec: ExperimentSpec) -> ElasticArmResult:
    """Execute one arm with a flight recorder, telemetry, and scale-in audits."""
    arm = str(spec.key)
    telemetry = Telemetry()
    audit_violations = 0
    audits = 0

    def _audit_scale_in(
        hook_cloud: CacheCloud, event: ChurnEvent, applied: bool, now: float
    ) -> None:
        nonlocal audit_violations, audits
        if event.action != RETIRE or not applied:
            return
        report = InvariantAuditor().audit(hook_cloud)
        audits += 1
        audit_violations += report.hard_violations

    def _hook_controller(cloud: CacheCloud, simulator: Simulator) -> None:
        assert cloud.elastic is not None
        cloud.elastic.add_hook(_audit_scale_in)

    result = run_live(spec, telemetry=telemetry, on_attached=_hook_controller)
    cloud = result.cloud
    assert cloud is not None and cloud.overload is not None and cloud.elastic is not None
    assert cloud.flight is not None and cloud.flight.log is not None
    controller = cloud.elastic
    stats = cloud.overload.stats
    arrivals = stats.requests_admitted + stats.requests_rejected
    window = flash_window(spec.duration)
    flash_p99 = telemetry.request_latencies.percentile_in(
        window[0], window[1], 0.99
    )
    overall_p99 = telemetry.request_latencies.percentile_in(
        0.0, spec.duration, 0.99
    )
    assert result.audit is not None
    log, latencies = cloud.flight.log, telemetry.request_latencies
    series = window_series(log, FLIGHT_SERIES)
    series["request_p99_ms"] = [
        (w["end"], latencies.percentile_in(w["start"], w["end"], 0.99) or 0.0)
        for w in log.windows
    ]
    sizes = [value for _, value in series["cloud_size"]]
    return ElasticArmResult(
        arm=arm,
        requests=result.requests,
        requests_rejected=stats.requests_rejected,
        rejection_percent=(
            100.0 * stats.requests_rejected / arrivals if arrivals else 0.0
        ),
        p99_ms=overall_p99 if overall_p99 is not None else 0.0,
        flash_p99_ms=flash_p99 if flash_p99 is not None else 0.0,
        total_mb=cloud.transport.meter.total_bytes / (1024.0 * 1024.0),
        node_minutes=controller.stats.node_minutes,
        mean_cloud_size=sum(sizes) / len(sizes) if sizes else 0.0,
        scale_out_events=controller.stats.scale_out_events,
        scale_in_events=controller.stats.scale_in_events,
        drain_bytes=controller.stats.drain_bytes,
        docs_handed_off=controller.stats.docs_handed_off,
        docs_invalidated=controller.stats.docs_invalidated,
        scale_in_audit_violations=audit_violations,
        scale_in_audits=audits,
        final_audit_violations=int(result.audit["audit_hard"]),
        series=series,
    )


def elastic_sweep(
    scale: Scale = SMALL_SCALE, jobs: Optional[int] = None
) -> SweepTable:
    """Run the three-arm diurnal comparison; one table row per arm.

    The per-arm records and windowed series ride along as ``extras["arms"]``
    (arm -> :class:`ElasticArmResult`) and ``extras["series"]`` (arm ->
    series name -> ``[(t, value), ...]``).
    """
    workload = _diurnal_workload(scale)
    # One cloud for every arm: sizing differs only via the controller.
    config = paper_cloud(
        scale,
        num_caches=NUM_CACHES,
        num_rings=2,
        placement=PlacementScheme.AD_HOC,
        failure_resilience=True,
    )
    overload = _service_model(scale)
    specs = [
        ExperimentSpec(
            key=arm,
            config=config,
            workload=workload,
            duration=scale.duration_minutes,
            # No warm-up reset: the cold morning ramp is part of the story
            # (shared by all arms), and the overload statistics must cover
            # the same window as the windowed series and the elastic
            # controller's signal window.
            warmup=0.0,
            overload=overload,
            elastic=_arm_elastic_config(arm, scale),
            flight=FlightSpec(window=scale.duration_minutes / WINDOWS),
            # The workload is update-free, so the end-of-run audit must be
            # perfectly clean.
            audit=True,
        )
        for arm in ARMS
    ]
    return run_table(
        specs,
        lambda outcome: (
            outcome.rejection_percent,
            outcome.p99_ms,
            outcome.flash_p99_ms,
            outcome.node_minutes,
            outcome.mean_cloud_size,
            f"{outcome.scale_out_events}/{outcome.scale_in_events}",
            outcome.drain_bytes / (1024.0 * 1024.0),
            outcome.scale_in_audit_violations + outcome.final_audit_violations,
        ),
        jobs,
        runner=_run_point,
        extras=lambda arms: {
            "arms": arms,
            "series": {arm: outcome.series for arm, outcome in arms.items()},
        },
        header=(
            "Elastic",
            "diurnal autoscaling: elastic vs static over/under provisioning",
        ),
        columns=(
            "arm",
            "rejected (%)",
            "p99 (ms)",
            "flash p99 (ms)",
            "node-minutes",
            "mean size",
            "scale out/in",
            "drain MB",
            "audit viol.",
        ),
    )


def elastic_claims(table: SweepTable) -> Dict[str, bool]:
    """The claims the sweep exists to check, as named booleans."""
    arms: Dict[str, ElasticArmResult] = table.extras["arms"]
    elastic, over, under = (arms[arm] for arm in ARMS)
    return {
        # Tail latency during the flash within 10% of always-peak
        # provisioning...
        "flash_p99_matches_over": elastic.flash_p99_ms <= 1.10 * over.flash_p99_ms,
        # ...at strictly fewer node-minutes...
        "fewer_node_minutes_than_over": elastic.node_minutes < over.node_minutes,
        # ...while rejecting strictly fewer clients than the static
        # minimum (which must actually be suffering, or the scenario
        # is vacuous).
        "fewer_rejections_than_under": (
            under.requests_rejected > 0
            and elastic.requests_rejected < under.requests_rejected
        ),
        # The autoscaler actually scaled both ways (a constant size series
        # means the sweep compared three static arms)...
        "scaled_both_ways": (
            elastic.scale_out_events > 0
            and elastic.scale_in_events > 0
            and len({size for _, size in elastic.series["cloud_size"]}) > 1
        ),
        # ...and every membership change left the cloud sound.
        "audits_clean": (
            elastic.scale_in_audits >= elastic.scale_in_events
            and elastic.scale_in_audit_violations == 0
            and all(arm.final_audit_violations == 0 for arm in arms.values())
        ),
    }

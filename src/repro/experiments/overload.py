"""Flash-crowd overload sweep: cooperative vs origin-direct under load.

The paper's evaluation assumes every node serves instantly, so it can never
ask what a flash crowd does to the *cloud itself*. This sweep attaches the
bounded-queue service model (:mod:`repro.core.overload`) to both the
cooperative cloud and the isolated-caches baseline and drives them with a
Sydney-like diurnal workload containing flash crowds, at increasing load
multipliers. The question it answers: under saturation, does collaborative
miss handling still help, or does it amplify congestion inside the cloud —
and does graceful degradation (shed lookups/peer fetches to origin-direct,
defer fan-out) keep the cooperative arm serving clients?

Each sweep point reports the end-of-run overload statistics (rejection and
shed percentages, mean queue depth, queueing delay) alongside the service
metrics both arms compete on (cloud hit rate, origin load, mean client
latency), plus the windowed ``avg_queue_depth`` / ``rejection_rate`` /
``shed_rate`` / ``cloud_hit_rate`` series of an in-memory flight recorder
(:func:`~repro.observe.flight.window_series`) so the *shape* of
degradation over the flash windows is visible, not just the totals.

Determinism: both arms of a load point share one :class:`WorkloadSpec`
(identical trace), all randomness flows from seeds, and the recorder's
windows are simulated time — the sweep is value-identical at any ``--jobs``
count (``tests/test_experiments_registry.py`` runs it serial vs pooled).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import PlacementScheme
from repro.core.overload import OverloadConfig
from repro.experiments.figures import SMALL_SCALE
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
from repro.faults.plan import RetryPolicy
from repro.observe.flight import FlightSpec, window_series
from repro.simulation.rng import derive_seed

#: Flight windows per run — coarse enough to stay cheap, fine enough to
#: resolve the flash-crowd humps.
WINDOWS = 20

#: Per-point windowed series exported into the sweep result.
SERIES_NAMES = (
    "avg_queue_depth",
    "rejection_rate",
    "shed_rate",
    "cloud_hit_rate",
)

#: Load multipliers swept by default: nominal, heavy, saturated.
DEFAULT_MULTIPLIERS = (1.0, 4.0, 16.0)


def default_overload_config() -> OverloadConfig:
    """The icarus-shaped scenario every sweep point shares.

    ``queue_capacity=10`` with watermarks 8/4 (shed before reject, with
    hysteresis), a flat 240 ms service cost per message plus 5 ms/KiB for
    document bodies, and the standard retry ladder so rejected reliable
    legs are retried before the sender degrades. At the tiny scale's
    nominal 30 requests/min/cache this is ~0.12 ingress utilization —
    comfortably idle — and crosses 1.0 between the 4x and 16x load
    multipliers, which is exactly the regime the sweep exists to resolve.
    """
    return OverloadConfig(
        queue_capacity=10,
        service_ms=240.0,
        service_ms_per_kb=5.0,
        shed_highwater=8,
        shed_lowwater=4,
        retry=RetryPolicy(),
    )


def _flash_workload(scale: Scale, load_multiplier: float) -> WorkloadSpec:
    """A Sydney-like diurnal trace with flash crowds at ``load_multiplier``.

    The multiplier scales the *offered load* (peak request rate); the flash
    crowds themselves keep the generator's concentration behaviour —
    traffic redirected onto one suddenly-hot page — so saturation combines
    a cloud-wide rate surge with a per-beacon hot spot. The workload seed
    is constant across multipliers (common random numbers: arms and load
    points differ by the knob under study, not by their randomness).
    """
    return sydney_workload(
        scale,
        corpus_seed=derive_seed(scale.seed, "overload-corpus"),
        peak_request_rate_per_cache=scale.request_rate_per_cache * load_multiplier,
        seed=derive_seed(scale.seed, "overload"),
        num_epochs=2,
        drift_pool=min(100, scale.num_documents),
        diurnal_floor=0.6,
        num_flash_crowds=2,
        flash_duration_minutes=scale.duration_minutes / 8.0,
        flash_multiplier=8.0,
    )


@dataclass
class OverloadPointResult:
    """One (load multiplier, arm) point's table columns and windowed series.

    Detached and picklable; the point's coordinates are its spec key.
    """

    rejection_percent: float
    shed_percent: float
    avg_queue_depth: float
    cloud_hit_percent: float
    origin_fetches: int
    mean_latency_ms: float
    #: Windowed series (name -> [(window end, value), ...]) over the run.
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)


def _run_point(spec: ExperimentSpec) -> OverloadPointResult:
    """Execute one sweep point (picklable runner).

    The scalar summary + the flight recorder's windowed series are packaged
    into a detached record (the live cloud never crosses the process
    boundary).
    """
    result = run_live(spec)
    cloud = result.cloud
    assert cloud is not None and cloud.overload is not None
    assert cloud.flight is not None and cloud.flight.log is not None
    stats = cloud.overload.stats
    arrivals = stats.requests_admitted + stats.requests_rejected
    return OverloadPointResult(
        rejection_percent=(
            100.0 * stats.requests_rejected / arrivals if arrivals else 0.0
        ),
        shed_percent=(
            100.0 * stats.shed_total / arrivals if arrivals else 0.0
        ),
        avg_queue_depth=stats.avg_queue_depth,
        cloud_hit_percent=100.0 * result.stats.cloud_hit_rate,
        origin_fetches=result.stats.origin_fetches,
        mean_latency_ms=result.stats.mean_latency_ms,
        series=window_series(cloud.flight.log, SERIES_NAMES),
    )


def point_key(multiplier: float, arm: str) -> str:
    """The ``series`` key for one sweep point."""
    return f"{multiplier:g}:{arm}"


def overload_sweep(
    scale: Scale = SMALL_SCALE,
    multipliers: Sequence[float] = DEFAULT_MULTIPLIERS,
    jobs: Optional[int] = None,
) -> SweepTable:
    """Run the (load multiplier × arm) grid; one table row per point.

    Both arms of a load point run the *same* flash-crowd trace under the
    *same* service model, the icarus-shaped default config; the only
    variable is whether misses are handled cooperatively. The windowed
    series ride along as ``extras["series"]`` (``"multiplier:arm"`` ->
    series name -> ``[(t, value), ...]``).
    """
    config = default_overload_config()
    specs: List[ExperimentSpec] = []
    for multiplier in multipliers:
        workload = _flash_workload(scale, multiplier)
        for cooperative in (True, False):
            arm = "cooperative" if cooperative else "direct"
            specs.append(
                ExperimentSpec(
                    key=(float(multiplier), arm),
                    config=paper_cloud(
                        scale,
                        placement=PlacementScheme.AD_HOC,
                        cooperation=cooperative,
                    ),
                    workload=workload,
                    duration=scale.duration_minutes,
                    # No warm-up reset: the cold start is part of the story
                    # (shared by both arms), and overload statistics must
                    # cover the same window as the windowed series.
                    warmup=0.0,
                    overload=config,
                    flight=FlightSpec(window=scale.duration_minutes / WINDOWS),
                )
            )

    return run_table(
        specs,
        lambda point: (
            point.rejection_percent,
            point.shed_percent,
            point.avg_queue_depth,
            point.cloud_hit_percent,
            point.origin_fetches,
            point.mean_latency_ms,
        ),
        jobs,
        runner=_run_point,
        extras=lambda points: {
            "series": {point_key(*key): point.series for key, point in points.items()}
        },
        header=("Overload", "flash-crowd saturation: cooperative vs origin-direct"),
        columns=(
            "load x",
            "arm",
            "rejected (%)",
            "shed (%)",
            "avg queue depth",
            "cloud hit rate (%)",
            "origin fetches",
            "mean latency (ms)",
        ),
        keys=("load x", "arm"),
    )


def overload_claims(table: SweepTable) -> Dict[str, bool]:
    """Saturation engages shedding and rejection; only cooperation is shed."""
    records = table.records()
    cooperative = sorted(
        (r for r in records if r["arm"] == "cooperative"), key=lambda r: r["load x"]
    )
    claims = {
        "rejections_grow_with_load": all(
            a["rejected (%)"] <= b["rejected (%)"]
            for a, b in zip(cooperative, cooperative[1:])
        ),
        # The direct arm has no cooperative work to shed.
        "only_cooperative_work_is_shed": all(
            r["shed (%)"] == 0.0 for r in records if r["arm"] == "direct"
        ),
    }
    # The default service model crosses utilization 1.0 below 16x at every
    # scale; a sweep that stops short of it claims nothing about saturation.
    saturated = [r for r in cooperative if r["load x"] >= 16.0]
    if saturated:
        claims["saturation_rejects_clients"] = all(
            r["rejected (%)"] > 0.0 for r in saturated
        )
        claims["saturation_sheds_cooperative_work"] = all(
            r["shed (%)"] > 0.0 for r in saturated
        )
    return claims

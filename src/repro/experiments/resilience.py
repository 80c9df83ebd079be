"""Resilience sweep: service degradation under message loss and churn.

The paper evaluates cache clouds on a perfect network; this sweep measures
how gracefully the protocols degrade when the network is not. Each sweep
point runs the same workload under a :class:`~repro.faults.plan.FaultPlan`
(uniform message loss) and a :class:`~repro.faults.churn.ChurnSpec`
(Poisson fail/recover timeline through the failure manager), and reports
hit rate, origin load, and the repair-path counters.

Expected shape: cloud hit rate decreases monotonically and origin fetches
increase monotonically as the loss rate grows — lost lookups and peer
transfers degrade to origin fallbacks — while retries/timeouts/stale
repairs quantify the protocol work spent resisting that slide. All points
are seeded, so the sweep is value-identical at any ``--jobs`` count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple

from repro.core.config import PlacementScheme
from repro.experiments.figures import SMALL_SCALE
from repro.experiments.parallel import ExperimentSpec, run_live
from repro.experiments.sweeps import (
    Scale,
    SweepTable,
    paper_cloud,
    poisson_churn,
    run_points,
    run_table,
    warmed_spec,
    zipf_workload,
)
from repro.faults.plan import FaultPlan
from repro.network.bandwidth import TrafficCategory
from repro.observe import Telemetry, write_json
from repro.simulation.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.overload import OverloadConfig


def _point(
    scale: Scale, key: object, loss_rate: float, churn_rate: float, **planes: Any
) -> ExperimentSpec:
    """One (loss, churn) grid point: shared config + workload, seeded faults.

    Every point uses the dynamic assignment scheme with failure resilience
    enabled — churn events must flow through the failure manager — and the
    same Zipf workload, so the only variable across points is the fault
    regime.
    """
    return warmed_spec(
        key,
        paper_cloud(scale, placement=PlacementScheme.AD_HOC, failure_resilience=True),
        zipf_workload(scale),
        scale.duration_minutes,
        fault_plan=FaultPlan(
            seed=derive_seed(scale.seed, "loss", loss_rate), loss_rate=loss_rate
        ),
        churn=poisson_churn(
            derive_seed(scale.seed, "churn", churn_rate),
            scale.duration_minutes,
            scale.cycle_length,
            churn_rate,
        ),
        **planes,
    )


def resilience_sweep(
    scale: Scale = SMALL_SCALE,
    loss_rates: Sequence[float] = (0.0, 0.05, 0.2, 0.5),
    churn_rates: Sequence[float] = (0.0,),
    jobs: Optional[int] = None,
    overload: Optional["OverloadConfig"] = None,
    telemetry: Optional[str] = None,
) -> SweepTable:
    """Run the (loss × churn) grid; returns one table row per point.

    ``overload`` optionally attaches a per-node service model to every
    point (a zero-cost config is value-identical to omitting it).
    ``telemetry`` names a file: the harshest grid point is re-run serially
    with the observability registry attached — same recipes, same seed
    derivations, so it reproduces that point's protocol behaviour exactly —
    and the registry's JSON artifact (span trees, per-category latency
    histograms, loss/retry counters) is written there.
    """
    specs = [
        _point(scale, (loss_rate, churn_rate), loss_rate, churn_rate, overload=overload)
        for loss_rate in loss_rates
        for churn_rate in churn_rates
    ]

    def measure(run: Any) -> Tuple[float, ...]:
        counters = run.resilience
        return (
            100.0 * run.stats.cloud_hit_rate,
            run.stats.origin_fetches,
            counters.get("retries", 0.0),
            counters.get("timeouts", 0.0),
            counters.get("stale_refreshes", 0.0),
            counters.get("directory_repairs", 0.0),
            counters.get("failovers", 0.0),
            counters.get("unavailability_minutes", 0.0),
        )

    table = run_table(
        specs,
        measure,
        jobs,
        header=("Resilience", "service degradation vs message loss and churn"),
        columns=(
            "loss rate",
            "churn/min",
            "cloud hit rate (%)",
            "origin fetches",
            "retries",
            "timeouts",
            "stale refreshes",
            "directory repairs",
            "failovers",
            "unavailable (min)",
        ),
        keys=("loss rate", "churn/min"),
    )
    if telemetry is not None:
        harshest = (max(loss_rates), max(churn_rates))
        observed = Telemetry()
        run_live(_point(scale, harshest, *harshest), telemetry=observed)
        write_json(observed, telemetry)
        table.footer.append(
            f"telemetry for point (loss={harshest[0]}, churn={harshest[1]}) "
            f"-> {telemetry}"
        )
    return table


def resilience_claims(table: SweepTable) -> Dict[str, bool]:
    """Graceful degradation: loss costs hit rate and origin load, not service."""
    claims: Dict[str, bool] = {}
    records = table.records()
    quietest = min(r["churn/min"] for r in records)
    by_loss = sorted(
        (r for r in records if r["churn/min"] == quietest),
        key=lambda r: r["loss rate"],
    )
    if len(by_loss) > 1:
        claims["hit_rate_degrades_with_loss"] = all(
            a["cloud hit rate (%)"] > b["cloud hit rate (%)"]
            for a, b in zip(by_loss, by_loss[1:])
        )
        claims["origin_load_grows_with_loss"] = all(
            a["origin fetches"] < b["origin fetches"]
            for a, b in zip(by_loss, by_loss[1:])
        )
    perfect = [r for r in records if r["loss rate"] == 0.0 and r["churn/min"] == 0.0]
    if perfect:
        claims["perfect_network_is_clean"] = all(
            r["retries"] == r["timeouts"] == r["failovers"] == 0.0 for r in perfect
        )
    lossy = [r for r in records if r["loss rate"] > 0.0]
    if lossy:
        claims["lossy_rows_show_protocol_work"] = all(
            r["retries"] > 0.0 for r in lossy
        )
    churned = [r for r in records if r["churn/min"] > 0.0]
    if churned:
        claims["churn_flows_through_failover"] = all(
            r["failovers"] > 0.0 and r["unavailable (min)"] > 0.0 for r in churned
        )
    return claims


def anti_entropy_sweep(
    scale: Scale = SMALL_SCALE,
    loss_rates: Sequence[float] = (0.1, 0.3),
    churn_rates: Sequence[float] = (0.0, 0.05),
    jobs: Optional[int] = None,
) -> SweepTable:
    """Measure what background repair buys under faults, and what it costs.

    Every (loss × churn) grid point runs twice on identical seeds — once
    without the anti-entropy process and once with it — and both runs end
    with an invariant audit. The interesting columns are the end-of-run
    stale-holder counts (the divergence nothing repaired during the run)
    and the repair traffic that bought the reduction.
    """
    specs = [
        _point(
            scale,
            (loss_rate, churn_rate, repair),
            loss_rate,
            churn_rate,
            anti_entropy=repair,
            audit=True,
        )
        for loss_rate in loss_rates
        for churn_rate in churn_rates
        for repair in (False, True)
    ]
    runs, failures = run_points(specs, jobs=jobs)
    table = SweepTable(
        header=(
            "Anti-entropy", "end-of-run staleness with background repair off vs on"
        ),
        columns=(
            "loss rate",
            "churn/min",
            "stale (off)",
            "stale (on)",
            "stale reduction (%)",
            "repairs",
            "repair traffic (MB)",
        ),
        keys=("loss rate", "churn/min"),
        failures=failures,
    )
    for loss_rate in loss_rates:
        for churn_rate in churn_rates:
            off = runs.get((loss_rate, churn_rate, False))
            on = runs.get((loss_rate, churn_rate, True))
            if off is None or on is None:
                continue  # the matching FailedRun is already recorded
            stale_off = off.audit.get("audit_stale_copy", 0.0)
            stale_on = on.audit.get("audit_stale_copy", 0.0)
            table.rows.append(
                (
                    loss_rate,
                    churn_rate,
                    stale_off,
                    stale_on,
                    100.0 * (stale_off - stale_on) / stale_off if stale_off else 0.0,
                    on.resilience.get("ae_repairs", 0.0),
                    on.traffic.bytes_for(TrafficCategory.ANTI_ENTROPY)
                    / (1024.0 * 1024.0),
                )
            )
    return table


def anti_entropy_claims(table: SweepTable) -> Dict[str, bool]:
    """Background repair really runs, and its traffic is accounted.

    Deliberately *not* claimed: that in-run repair lowers end-of-run
    staleness at every point. Under loss the repair messages themselves are
    lost, and at larger scales the two arms end within noise of each other —
    which is why the chaos audit quiesces on a healed network before holding
    the auditor's bar.
    """
    return {
        "repair_did_work": all(r > 0.0 for r in table.column("repairs")),
        "repair_costs_traffic": all(
            mb > 0.0 for mb in table.column("repair traffic (MB)")
        ),
    }

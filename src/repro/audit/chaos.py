"""Chaos-audit harness: break a cloud on purpose, repair it, prove it.

Each :class:`ChaosScenario` runs one seeded fault campaign — uniform
message loss plus Poisson churn — against a dynamic cache cloud, then
*quiesces* it:

1. detach the fault injector (the network heals),
2. recover every still-dead cache through the failure manager,
3. drive the anti-entropy process to convergence (exhaustive sweeps until
   one makes no repair),
4. audit every invariant with :class:`~repro.audit.invariants.InvariantAuditor`.

The acceptance bar is sharp: with anti-entropy, the post-quiesce audit
must report **zero** repairable violations; with anti-entropy disabled the
same grid must leave visible divergence (stale holders that nothing ever
repaired) — otherwise the harness is vacuous.

Scenarios are plain frozen dataclasses executed by the module-level
:func:`run_chaos_scenario`, so :func:`chaos_audit_grid` parallelizes over
the existing :func:`~repro.experiments.parallel.run_sweep` machinery and
is value-identical at any job count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Sequence

from repro.audit.invariants import InvariantAuditor
from repro.core.config import PlacementScheme
from repro.experiments.parallel import ExperimentSpec, run_live
from repro.experiments.sweeps import (
    Scale,
    SweepTable,
    paper_cloud,
    poisson_churn,
    run_table,
    zipf_workload,
)
from repro.faults.plan import FaultPlan
from repro.simulation.rng import derive_seed


#: A campaign's sizing ("small"); the grid re-seeds it per scenario — its
#: seeds are a grid axis — and the registry's scales override fields of it.
CHAOS_SCALE = Scale(
    num_documents=200,
    request_rate_per_cache=30.0,
    update_rate=45.0,
    duration_minutes=60.0,
    cycle_length=6.0,
    num_caches=8,
    num_rings=4,
)

#: ``IntraGen`` of every campaign's cloud (the paper's figures use 1000).
CHAOS_INTRA_GEN = 400


@dataclass(frozen=True)
class ChaosScenario:
    """One seeded fault campaign plus its quiesce-and-audit epilogue."""

    key: object
    scale: Scale
    loss_rate: float
    churn_rate: float
    anti_entropy: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self.churn_rate < 0.0:
            raise ValueError("churn_rate must be >= 0")


@dataclass
class ChaosOutcome:
    """Picklable result of one scenario (what workers ship back)."""

    key: object
    anti_entropy: bool
    #: Audit summaries before and after the anti-entropy quiesce.
    pre_audit: Dict[str, float] = field(default_factory=dict)
    post_audit: Dict[str, float] = field(default_factory=dict)
    #: Divergence found right after the run (stale + dangling + orphaned).
    pre_divergence: int = 0
    #: Repairable violations still present after quiescing.
    unrepaired: int = 0
    #: Hard (never-acceptable) violations after quiescing.
    hard_violations: int = 0
    pre_stale: int = 0
    post_stale: int = 0
    quiesce_repairs: int = 0
    ae_stats: Dict[str, float] = field(default_factory=dict)
    resilience: Dict[str, float] = field(default_factory=dict)


def run_chaos_scenario(scenario: ChaosScenario) -> ChaosOutcome:
    """Run one scenario end to end; must stay module-level picklable."""
    scale = scenario.scale
    result = run_live(
        ExperimentSpec(
            key=scenario.key,
            config=paper_cloud(
                scale,
                intra_gen=CHAOS_INTRA_GEN,
                placement=PlacementScheme.AD_HOC,
                failure_resilience=True,
            ),
            workload=zipf_workload(scale),
            duration=scale.duration_minutes,
            # One cycle, not the sweeps' two: the campaign is short and the
            # audit reads end-of-run state, not steady-state rates.
            warmup=min(scale.cycle_length, scale.duration_minutes / 4.0),
            fault_plan=FaultPlan(
                seed=derive_seed(scale.seed, "chaos-loss", scenario.loss_rate),
                loss_rate=scenario.loss_rate,
            ),
            churn=poisson_churn(
                derive_seed(scale.seed, "chaos-churn", scenario.churn_rate),
                scale.duration_minutes,
                scale.cycle_length,
                scenario.churn_rate,
            ),
            anti_entropy=scenario.anti_entropy,
        )
    )

    # --- quiesce: heal the network, rejoin everyone, repair, audit -----
    cloud = result.cloud
    end = scale.duration_minutes
    cloud.detach_faults()
    for cache in cloud.caches:
        if not cache.alive:
            cloud.recover_cache(cache.cache_id, end)
    auditor = InvariantAuditor()
    pre = auditor.audit(cloud)
    repairs = 0
    if cloud.anti_entropy is not None:
        repairs = cloud.anti_entropy.quiesce(end)
    post = auditor.audit(cloud)

    return ChaosOutcome(
        key=scenario.key,
        anti_entropy=scenario.anti_entropy,
        pre_audit=pre.summary(),
        post_audit=post.summary(),
        pre_divergence=pre.repairable,
        unrepaired=post.repairable,
        hard_violations=post.hard_violations,
        pre_stale=pre.stale_copies,
        post_stale=post.stale_copies,
        quiesce_repairs=repairs,
        ae_stats=(
            cloud.anti_entropy.stats.as_dict()
            if cloud.anti_entropy is not None
            else {}
        ),
        resilience=result.resilience,
    )


def chaos_audit_grid(
    scale: Optional[Mapping[str, Any]] = None,
    seeds: Sequence[int] = (1, 2),
    loss_rates: Sequence[float] = (0.15, 0.3),
    churn_rates: Sequence[float] = (0.0, 0.1),
    anti_entropy: bool = True,
    jobs: Optional[int] = None,
    duration: Optional[float] = None,
) -> SweepTable:
    """Run the chaos grid; one scenario (and table row) per (seed, loss, churn).

    ``scale`` overrides fields of :data:`CHAOS_SCALE` for every scenario
    (e.g. ``{"duration_minutes": 30.0}`` for faster runs); ``duration`` is
    shorthand for its ``duration_minutes``. The per-scenario
    :class:`ChaosOutcome` records ride along as ``extras["outcomes"]``.
    """
    sizing: Dict[str, Any] = dict(scale or {})
    if duration is not None:
        sizing["duration_minutes"] = duration
    scenarios = [
        ChaosScenario(
            (seed, loss_rate, churn_rate),
            replace(CHAOS_SCALE, seed=seed, **sizing),
            loss_rate,
            churn_rate,
            anti_entropy,
        )
        for seed in seeds
        for loss_rate in loss_rates
        for churn_rate in churn_rates
    ]
    table = run_table(
        scenarios,
        lambda outcome: (
            outcome.pre_divergence,
            outcome.pre_stale,
            outcome.quiesce_repairs,
            outcome.unrepaired,
            outcome.post_stale,
            outcome.hard_violations,
        ),
        jobs,
        runner=run_chaos_scenario,
        extras=lambda outcomes: {
            "anti_entropy": anti_entropy,
            "outcomes": list(outcomes.values()),
        },
        header=(
            "Chaos audit",
            "fault+churn campaigns, quiesced and audited "
            f"(anti-entropy {'on' if anti_entropy else 'OFF'})",
        ),
        columns=(
            "seed",
            "loss rate",
            "churn/min",
            "pre divergence",
            "pre stale",
            "repairs",
            "unrepaired",
            "post stale",
            "hard",
        ),
        keys=("seed", "loss rate", "churn/min"),
    )
    unrepaired, hard = sum(table.column("unrepaired")), sum(table.column("hard"))
    clean = not table.failures and unrepaired == 0 and hard == 0
    table.footer.append(
        "verdict: " + ("CLEAN" if clean else f"unrepaired={unrepaired} hard={hard}")
    )
    return table


def chaos_claims(table: SweepTable) -> Dict[str, bool]:
    """Repair converges; without it the damage is real and stays."""
    unrepaired = sum(table.column("unrepaired"))
    claims = {
        # Hard (never-acceptable) violations fail either arm.
        "no_hard_violations": sum(table.column("hard")) == 0,
        # Vacuity guard: a chaos harness that breaks nothing proves nothing.
        "campaign_injects_divergence": sum(table.column("pre divergence")) > 0,
    }
    if table.extras["anti_entropy"]:
        # With repair enabled the bar is absolute: everything must converge.
        claims["quiesces_to_zero_unrepaired"] = (
            unrepaired == 0 and sum(table.column("post stale")) == 0
        )
    else:
        claims["divergence_persists_without_repair"] = unrepaired > 0
    return claims

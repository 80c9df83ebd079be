"""One reproduction entry point per evaluation figure (Figures 3-9).

Each ``figureN`` function runs the corresponding experiment and returns a
:class:`~repro.experiments.sweeps.SweepTable` (Figures 7-8 a pair of them)
whose rows are the series the paper charts. The benchmark harness in
``benchmarks/`` is a thin wrapper over these functions.

Scaling
-------
The paper simulates 25 000-52 000 documents over 24 hours. Pure-Python
replays of that volume are possible but slow; every entry point therefore
takes a :class:`~repro.experiments.sweeps.Scale`. ``SMALL_SCALE`` (the default) runs each figure
in seconds while preserving every qualitative conclusion (who wins, by
roughly what factor); ``PAPER_SCALE`` approaches the paper's sizes.
EXPERIMENTS.md records paper-vs-measured numbers at the benchmark scale.

Parallelism
-----------
Every entry point accepts ``jobs``: the sweep's independent runs are built
as :class:`~repro.experiments.parallel.ExperimentSpec` objects and executed
through :func:`~repro.experiments.sweeps.run_points`, which fans out over
``jobs`` worker processes (``None`` defers to the ``REPRO_JOBS`` environment
variable, default serial). Results are value-identical at any job count. A
figure needs every point of its grid: a point that fails twice raises
:class:`~repro.experiments.sweeps.SweepFailed` naming it.

Claims
------
Each ``figureN_claims`` function states the paper's qualitative findings
for that figure as named booleans over the result; the registry
(:mod:`repro.experiments.registry`) attaches them to the entry.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.core.config import (
    AssignmentScheme,
    PlacementScheme,
    UtilityWeights,
    WEIGHTS_ALL_ON,
    WEIGHTS_DSCC_OFF,
)
from repro.core.overload import OverloadConfig
from repro.experiments.parallel import WorkloadSpec
from repro.experiments.runner import ExperimentResult
from repro.experiments.sweeps import (
    CLOUD_SIZE_SWEEP,
    RING_SIZE_SWEEP,
    UPDATE_RATE_SWEEP,
    ZIPF_SWEEP,
    Scale,
    SweepTable,
    disk_budget,
    loadbalance_cloud,
    paper_cloud,
    rings_for,
    run_points,
    sydney_workload,
    warmed_spec,
    zipf_workload,
)
from repro.metrics.loadbalance import improvement_percent


#: Fast default: each figure in seconds on a laptop.
SMALL_SCALE = Scale(
    num_documents=2_000,
    request_rate_per_cache=80.0,
    update_rate=195.0,
    duration_minutes=120.0,
    cycle_length=15.0,
    update_sweep_scale=0.25,
)

#: Tiny scale for unit tests.
TINY_SCALE = Scale(
    num_documents=300,
    request_rate_per_cache=30.0,
    update_rate=60.0,
    duration_minutes=40.0,
    cycle_length=5.0,
    update_sweep_scale=0.08,
)

#: Near-paper scale (tens of minutes of wall-clock).
PAPER_SCALE = Scale(
    num_documents=25_000,
    request_rate_per_cache=200.0,
    update_rate=195.0,
    duration_minutes=480.0,
    cycle_length=60.0,
)


# ----------------------------------------------------------------------
# Figures 3-4: per-beacon load distribution, static vs dynamic
# ----------------------------------------------------------------------
def _load_distribution(
    figure: str,
    dataset: str,
    workload: WorkloadSpec,
    scale: Scale,
    jobs: Optional[int] = None,
    overload: Optional[OverloadConfig] = None,
) -> SweepTable:
    """Static vs dynamic hashing on ``workload``: loads by rank, both runs kept.

    ``extras`` holds the two :class:`ExperimentResult` runs (``"static"``,
    ``"dynamic"``), so an archive keeps every value of both.
    """
    specs = [
        warmed_spec(
            scheme.value,
            loadbalance_cloud(scale, scheme),
            workload,
            scale.duration_minutes,
            overload=overload,
        )
        for scheme in (AssignmentScheme.STATIC, AssignmentScheme.DYNAMIC)
    ]
    runs, _ = run_points(specs, jobs=jobs, strict=True)
    static, dynamic = runs["static"].load_stats, runs["dynamic"].load_stats
    return SweepTable(
        header=(figure, f"load distribution, {dataset}"),
        columns=("rank", "static load", "dynamic load"),
        rows=[
            (rank, s, d)
            for rank, (s, d) in enumerate(
                zip(runs["static"].sorted_loads(), runs["dynamic"].sorted_loads()),
                start=1,
            )
        ],
        extras={"static": runs["static"], "dynamic": runs["dynamic"]},
        precision=1,
        title=f"Loads at beacon points (decreasing order), {dataset}",
        footer=[
            f"mean load: static={static.mean:.1f} dynamic={dynamic.mean:.1f}",
            f"peak/mean: static={static.peak_to_mean:.2f} "
            f"dynamic={dynamic.peak_to_mean:.2f} (improvement "
            f"{improvement_percent(static.peak_to_mean, dynamic.peak_to_mean):.0f}%)",
            f"coeff. of variation: static={static.cov:.3f} "
            f"dynamic={dynamic.cov:.3f} "
            f"(improvement {improvement_percent(static.cov, dynamic.cov):.0f}%)",
        ],
    )


def load_distribution_claims(table: SweepTable) -> Dict[str, bool]:
    """Figures 3-4: dynamic hashing balances better on both statistics."""
    static = table.extras["static"].load_stats
    dynamic = table.extras["dynamic"].load_stats
    return {
        "dynamic_peak_below_static": dynamic.peak_to_mean < static.peak_to_mean,
        "dynamic_cov_below_static": dynamic.cov < static.cov,
        # Both schemes replay the identical trace: total load is conserved.
        "total_load_conserved": abs(static.mean - dynamic.mean) < 0.05 * static.mean,
    }


def figure3_claims(table: SweepTable) -> Dict[str, bool]:
    """Figure 3 adds the paper's magnitudes under Zipf-0.9 skew."""
    static = table.extras["static"].load_stats
    dynamic = table.extras["dynamic"].load_stats
    return {
        **load_distribution_claims(table),
        # Static hashing visibly suffers (paper: ~1.9x the mean)...
        "static_peak_above_1.3": static.peak_to_mean > 1.3,
        # ...and dynamic hashing lands near the paper's ~1.2 peak/mean.
        "dynamic_peak_below_1.45": dynamic.peak_to_mean < 1.45,
    }


def figure3(
    scale: Scale = SMALL_SCALE,
    jobs: Optional[int] = None,
    overload: Optional[OverloadConfig] = None,
) -> SweepTable:
    """Figure 3: load distribution for the Zipf-0.9 dataset.

    Paper: 10 caches, 5 beacon rings of 2 beacon points, IntraGen 1000,
    1-hour cycles. Static hashing's heaviest beacon carries ~1.9x the mean;
    dynamic hashing cuts that to ~1.2x (a ~37 % improvement) and improves
    the coefficient of variation by ~63 %.

    ``overload`` optionally attaches a per-node service model to every
    run; a zero-cost config is value-identical to omitting it (pinned by
    the golden-fingerprint equivalence tests).
    """
    return _load_distribution(
        "Figure 3", "Zipf-0.9 dataset", zipf_workload(scale), scale, jobs=jobs,
        overload=overload,
    )


def figure4(
    scale: Scale = SMALL_SCALE, jobs: Optional[int] = None
) -> SweepTable:
    """Figure 4: load distribution for the Sydney(-like) dataset.

    Paper: dynamic hashing improves peak/mean by ~40 % (to 1.06) and the
    coefficient of variation by ~63 %.
    """
    return _load_distribution(
        "Figure 4", "Sydney dataset", sydney_workload(scale), scale, jobs=jobs
    )


# ----------------------------------------------------------------------
# Figure 5: beacon-ring size vs load balancing
# ----------------------------------------------------------------------
def figure5(
    scale: Scale = SMALL_SCALE,
    cloud_sizes: Tuple[int, ...] = CLOUD_SIZE_SWEEP,
    ring_sizes: Tuple[int, ...] = RING_SIZE_SWEEP,
    jobs: Optional[int] = None,
) -> SweepTable:
    """Figure 5: CoV for static vs dynamic at ring sizes 2/5/10.

    One row per cloud size, one column per bar of the paper's groups
    (``static``, then ``dynamic/<k>-per-ring`` in ring-size order).
    Paper: dynamic with 2 beacon points per ring already beats static
    significantly; growing rings to 5 and 10 improves balance incrementally.
    """
    labels = ["static"] + [f"dynamic/{ring_size}-per-ring" for ring_size in ring_sizes]
    specs = []
    for num_caches in cloud_sizes:
        workload = sydney_workload(scale, num_caches=num_caches)
        # Static hashing is one ring of every cache; its ring plays no role.
        for label, ring_size in zip(labels, (num_caches, *ring_sizes)):
            scheme = (
                AssignmentScheme.STATIC if label == "static" else AssignmentScheme.DYNAMIC
            )
            specs.append(
                warmed_spec(
                    (num_caches, label),
                    loadbalance_cloud(
                        scale,
                        scheme,
                        num_caches=num_caches,
                        num_rings=rings_for(num_caches, ring_size),
                    ),
                    workload,
                    scale.duration_minutes,
                )
            )
    runs, _ = run_points(specs, jobs=jobs, strict=True)
    return SweepTable(
        header=("Figure 5", "impact of beacon ring size on load balancing"),
        columns=("caches", *labels),
        rows=[
            (n, *[runs[(n, label)].load_stats.cov for label in labels])
            for n in cloud_sizes
        ],
        precision=3,
        title="Coefficient of variation by cloud size and beacon-ring size",
    )


def figure5_claims(table: SweepTable) -> Dict[str, bool]:
    """Figure 5: the largest rings beat static; bigger rings help on average."""
    static = table.column("static")
    smallest, largest = table.column(table.columns[2]), table.column(table.columns[-1])
    return {
        "largest_rings_beat_static": all(d < s for d, s in zip(largest, static)),
        # Averaged over cloud sizes (individual sizes are noisy at reduced
        # scale), growing the rings does not hurt.
        "bigger_rings_help_on_average": (
            sum(largest) / len(largest) <= sum(smallest) / len(smallest) + 0.03
        ),
    }


# ----------------------------------------------------------------------
# Figure 6: Zipf-parameter sweep
# ----------------------------------------------------------------------
def figure6(
    scale: Scale = SMALL_SCALE,
    alphas: Tuple[float, ...] = ZIPF_SWEEP,
    jobs: Optional[int] = None,
    overload: Optional[OverloadConfig] = None,
) -> SweepTable:
    """Figure 6: CoV vs Zipf parameter (0 → 0.99).

    Paper: both schemes are balanced at low skew; CoV grows with skew for
    both but far faster for static hashing — ~45 % worse at alpha 0.9.
    """
    specs = []
    for alpha in alphas:
        workload = zipf_workload(scale, alpha_requests=alpha)
        for scheme in (AssignmentScheme.STATIC, AssignmentScheme.DYNAMIC):
            specs.append(
                warmed_spec(
                    (alpha, scheme.value),
                    loadbalance_cloud(scale, scheme),
                    workload,
                    scale.duration_minutes,
                    overload=overload,
                )
            )
    runs, _ = run_points(specs, jobs=jobs, strict=True)
    return SweepTable(
        header=("Figure 6", "impact of Zipf parameter on load balancing"),
        columns=("zipf alpha", "static CoV", "dynamic CoV"),
        rows=[
            (
                alpha,
                runs[(alpha, "static")].load_stats.cov,
                runs[(alpha, "dynamic")].load_stats.cov,
            )
            for alpha in alphas
        ],
        precision=3,
        title="Coefficient of variation vs workload skew",
    )


def figure6_claims(table: SweepTable) -> Dict[str, bool]:
    """Figure 6: skew hurts static hashing, and hurts it faster than dynamic."""
    static, dynamic = table.column("static CoV"), table.column("dynamic CoV")
    return {
        "skew_hurts_static": static[-1] > static[0],
        "dynamic_degrades_slower": dynamic[-1] - dynamic[0] < static[-1] - static[0],
        "static_worse_at_high_skew": all(
            s > d
            for alpha, s, d in zip(table.column("zipf alpha"), static, dynamic)
            if alpha >= 0.9
        ),
    }


# ----------------------------------------------------------------------
# Figures 7-9: placement-scheme comparison over the update-rate sweep
# ----------------------------------------------------------------------
PLACEMENT_LABELS = {
    PlacementScheme.AD_HOC: "ad hoc",
    PlacementScheme.UTILITY: "utility",
    PlacementScheme.BEACON: "beacon",
}


def _placement_sweep(
    figures: Tuple[str, str],
    metric: str,
    scale: Scale,
    update_rates: Tuple[float, ...],
    weights: UtilityWeights,
    disk_fraction: Optional[float],
    jobs: Optional[int] = None,
) -> Tuple[SweepTable, SweepTable]:
    """Run the three placements over the sweep; returns (stored%, MB) tables.

    Figures 7 and 8 are two views of the same runs (unlimited disk); Figure 9
    re-runs with limited disk. ``figures`` labels the two views. Rows are
    keyed by the *simulated* update rate (the paper's rate scaled by
    ``scale.update_sweep_scale``), one column per placement scheme;
    ``extras["unique_docs"]`` is each trace's distinct-document count (the
    Fig. 7 denominator).
    """
    schemes = [PlacementScheme.AD_HOC, PlacementScheme.UTILITY, PlacementScheme.BEACON]
    labels = [PLACEMENT_LABELS[scheme] for scheme in schemes]
    capacity = (
        None
        if disk_fraction is None
        else disk_budget(sydney_workload(scale), disk_fraction)
    )
    specs = []
    for update_rate in update_rates:
        workload = sydney_workload(
            scale, base_update_rate=update_rate * scale.update_sweep_scale
        )
        for scheme, label in zip(schemes, labels):
            specs.append(
                warmed_spec(
                    (update_rate, label),
                    paper_cloud(
                        scale,
                        placement=scheme,
                        utility_weights=weights,
                        capacity_bytes=capacity,
                    ),
                    workload,
                    scale.duration_minutes,
                )
            )
    runs, _ = run_points(specs, jobs=jobs, strict=True)
    # All arms of a rate share one trace; any arm's unique-doc count will do.
    unique = [runs[(rate, labels[0])].unique_request_docs for rate in update_rates]

    def view(figure: str, what: str, value: Callable[[ExperimentResult], float]) -> SweepTable:
        return SweepTable(
            header=(figure, what),
            columns=("update rate", *labels),
            rows=[
                (
                    rate * scale.update_sweep_scale,
                    *[value(runs[(rate, label)]) for label in labels],
                )
                for rate in update_rates
            ],
            extras={"unique_docs": unique},
            title=(
                f"{what} vs document update rate "
                f"(observed rate ≈ {scale.observed_update_rate:g}/unit)"
            ),
        )

    return (
        view(
            figures[0],
            "documents stored per cache (%)",
            lambda run: 100.0 * run.mean_resident_docs / run.unique_request_docs,
        ),
        view(figures[1], metric, lambda run: run.network_mb_per_unit),
    )


def figure7_and_8(
    scale: Scale = SMALL_SCALE,
    update_rates: Tuple[float, ...] = UPDATE_RATE_SWEEP,
    jobs: Optional[int] = None,
) -> Tuple[SweepTable, SweepTable]:
    """Figures 7-8: unlimited disk, DsCC off (weights ⅓/⅓/0/⅓); one sweep.

    Figure 7 (documents stored per cache): ad hoc ≈ everything, beacon ≈
    1/num_caches, utility high at low update rates and falling as updates
    dominate. Figure 8 (network MB per unit time): utility lowest at every
    rate; ad hoc grows fastest with update rate; beacon high at all rates.
    """
    return _placement_sweep(
        ("Figure 7", "Figure 8"),
        "network load (MB per unit time), unlimited disk",
        scale,
        update_rates,
        WEIGHTS_DSCC_OFF,
        disk_fraction=None,
        jobs=jobs,
    )


def figure7_and_8_claims(result: Tuple[SweepTable, SweepTable]) -> Dict[str, bool]:
    """Figures 7-8: who stores what, and what it costs on the wire."""
    stored, traffic = result
    adhoc, utility, beacon = (
        stored.column(label) for label in ("ad hoc", "utility", "beacon")
    )
    mb_adhoc, mb_utility, mb_beacon = (
        traffic.column(label) for label in ("ad hoc", "utility", "beacon")
    )
    return {
        "fig7_adhoc_above_utility_above_beacon": all(
            a > u > b for a, u, b in zip(adhoc, utility, beacon)
        ),
        # Beacon-point placement ≈ one copy per document → ~10 % per cache.
        "fig7_beacon_stores_one_copy": all(7.0 < b < 16.0 for b in beacon),
        "fig7_utility_falls_with_update_rate": utility[-1] < utility[0],
        "fig7_adhoc_insensitive_to_updates": max(adhoc) - min(adhoc) < 2.0,
        # Ad hoc's traffic explodes with update rate; utility's does not.
        "fig8_adhoc_traffic_explodes": mb_adhoc[-1] > 5 * mb_adhoc[0],
        "fig8_utility_below_adhoc_at_high_rate": mb_utility[-1] < mb_adhoc[-1],
        "fig8_utility_margin_grows": (
            mb_adhoc[-1] - mb_utility[-1] > mb_adhoc[0] - mb_utility[0]
        ),
        # Every non-beacon request crosses the cloud, even when updates are rare.
        "fig8_beacon_expensive_at_low_rate": mb_beacon[0] > mb_adhoc[0],
        # The paper's claim; at the endpoints margins are within noise.
        "fig8_utility_cheapest_mid_sweep": all(
            u <= a and u <= b * 1.05
            for u, a, b in list(zip(mb_utility, mb_adhoc, mb_beacon))[1:-1]
        ),
    }


def figure9(
    scale: Scale = SMALL_SCALE,
    update_rates: Tuple[float, ...] = UPDATE_RATE_SWEEP,
    jobs: Optional[int] = None,
) -> SweepTable:
    """Figure 9: network load with disk = 5 % of the corpus, LRU, DsCC on.

    Paper: utility placement still generates the least traffic; its edge
    over ad hoc at *low* update rates is much larger than in the unlimited
    case (~25 % vs ~8 %) because the utility function is now also fighting
    disk-space contention.
    """
    _, traffic = _placement_sweep(
        ("Figure 9", "Figure 9"),
        "network load (MB per unit time), disk = 5% of corpus",
        scale,
        update_rates,
        WEIGHTS_ALL_ON,
        disk_fraction=scale.disk_fraction,
        jobs=jobs,
    )
    return traffic


def figure9_claims(table: SweepTable) -> Dict[str, bool]:
    """Figure 9: under disk contention utility never loses to ad hoc."""
    adhoc, utility = table.column("ad hoc"), table.column("utility")
    return {
        "utility_never_loses_to_adhoc": all(
            u <= a * 1.02 for u, a in zip(utility, adhoc)
        ),
        "update_traffic_grows_totals": adhoc[-1] > adhoc[0],
        # Capacity misses turn into transfers: even the lowest rate shows load.
        "limited_disk_raises_the_floor": utility[0] > 0.5,
    }

"""Strategy-zoo sweep: every caching strategy, one workload, one ranking.

The strategy plane (:mod:`repro.strategies`) makes admission, forwarding,
and update propagation pluggable behind one seam; this sweep is the seam's
payoff. Every known scheme — the paper's four placement policies plus the
on-path ICN family (LCE / LCD / ProbCache) and the CUP-style interest-tree
propagator — runs over the *same* trace on the *same* cloud shape, and the
result is one ranking table over the service metrics the paper compares
schemes on: cloud hit rate, client latency, origin offload, and network
cost.

Determinism: all arms share one :class:`WorkloadSpec` and one config seed
(common random numbers — arms differ only by the strategy under study);
ProbCache's coin flips come from its own derived stream, so the shared
streams see zero extra draws. The sweep is value-identical at any
``--jobs`` count and fingerprint-stable across runs (CI's sweep-determinism
matrix).

Scale: spec-driven runs stream their trace — it is generated lazily and
never materialized — so the ``ZOO_SCALE`` preset (1000 caches, ten million
requests per arm) is bounded by cloud state, not trace length. Long sweeps
can pass ``checkpoint=`` to resume interrupted runs arm-by-arm.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.core.config import AssignmentScheme, CloudConfig, PlacementScheme
from repro.experiments.parallel import WorkloadSpec
from repro.experiments.runner import ExperimentResult
from repro.experiments.sweeps import SweepTable, run_points, warmed_spec
from repro.observe.flight import FlightSpec
from repro.simulation.rng import derive_seed
from repro.strategies.spec import KNOWN_SCHEMES, StrategySpec
from repro.workload.generator import WorkloadConfig

#: Schemes swept by default: the whole zoo, paper schemes first.
DEFAULT_SCHEMES: Tuple[str, ...] = KNOWN_SCHEMES


@dataclass(frozen=True)
class ZooScale:
    """Run-size knobs for the strategy zoo.

    Unlike :class:`~repro.experiments.figures.FigureScale`, the cloud size
    is a knob here — the zoo's headline preset runs a thousand caches.
    ``disk_fraction`` sizes each cache's disk budget as a fraction of the
    corpus bytes; a budget below 1.0 is what makes admission policies
    differ at steady state (with infinite disk every scheme converges on
    "everything is resident").
    """

    label: str
    num_caches: int
    num_rings: int
    num_documents: int
    request_rate_per_cache: float
    update_rate: float
    duration_minutes: float
    cycle_length: float
    disk_fraction: float = 0.05
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_caches <= 0 or self.num_documents <= 0:
            raise ValueError("zoo scale sizes must be positive")
        if not 0.0 < self.disk_fraction:
            raise ValueError("disk_fraction must be positive")

    @property
    def requests_total(self) -> float:
        """Offered requests per arm (rate x caches x duration)."""
        return (
            self.request_rate_per_cache * self.num_caches * self.duration_minutes
        )


#: Unit-test / CI-smoke scale: each arm in well under a second.
ZOO_TINY = ZooScale(
    label="tiny",
    num_caches=8,
    num_rings=2,
    num_documents=200,
    request_rate_per_cache=20.0,
    update_rate=8.0,
    duration_minutes=10.0,
    cycle_length=2.5,
    disk_fraction=0.10,
)

#: Laptop default: the full zoo in tens of seconds.
ZOO_SMALL = ZooScale(
    label="small",
    num_caches=10,
    num_rings=5,
    num_documents=2_000,
    request_rate_per_cache=80.0,
    update_rate=60.0,
    duration_minutes=60.0,
    cycle_length=15.0,
    disk_fraction=0.05,
)

#: The streaming showcase: 1000 caches x 200 req/min x 50 min = 10M
#: requests per arm, fed out-of-core (the trace is never a list).
ZOO_SCALE = ZooScale(
    label="scale",
    num_caches=1_000,
    num_rings=10,
    num_documents=100_000,
    request_rate_per_cache=200.0,
    update_rate=120.0,
    duration_minutes=50.0,
    cycle_length=10.0,
    disk_fraction=0.01,
)


def _zoo_workload(scale: ZooScale) -> WorkloadSpec:
    """The one Zipf workload recipe every arm shares (common random numbers)."""
    return WorkloadSpec(
        generator_config=WorkloadConfig(
            num_documents=scale.num_documents,
            num_caches=scale.num_caches,
            request_rate_per_cache=scale.request_rate_per_cache,
            update_rate=scale.update_rate,
            duration_minutes=scale.duration_minutes,
            seed=derive_seed(scale.seed, "zoo-trace"),
        ),
        corpus_documents=scale.num_documents,
        corpus_seed=derive_seed(scale.seed, "zoo-corpus"),
    )


def _zoo_config(scale: ZooScale, capacity_bytes: int) -> CloudConfig:
    """The one cloud shape every arm shares.

    ``config.placement`` is the utility baseline, but it is inert here:
    :func:`~repro.strategies.spec.build_strategy` re-derives the placement
    from each arm's :class:`StrategySpec`, so the arm's strategy — not this
    field — decides admission.
    """
    return CloudConfig(
        num_caches=scale.num_caches,
        num_rings=scale.num_rings,
        intra_gen=1000,
        cycle_length=scale.cycle_length,
        assignment=AssignmentScheme.DYNAMIC,
        placement=PlacementScheme.UTILITY,
        capacity_bytes=capacity_bytes,
        seed=scale.seed,
    )


def _rank_key(outcome: ExperimentResult) -> Tuple[float, float, float]:
    """Sort key: cloud hit rate down, then network cost up, then origin up.

    Hit rate is the paper's headline service metric; network traffic and
    origin offload break ties (the sweep path has no latency topology, so
    client latency would be identically zero here).
    """
    return (
        -outcome.stats.cloud_hit_rate,
        outcome.network_mb_per_unit,
        float(outcome.stats.origin_fetches),
    )


def zoo_sweep(
    scale: ZooScale = ZOO_SMALL,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    jobs: Optional[int] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    flight_dir: Optional[Union[str, Path]] = None,
) -> SweepTable:
    """Run every strategy over the shared workload; one ranked row per arm.

    Rank 1 is the best cloud hit rate. ``checkpoint`` names a resume file:
    completed arms are recorded as they finish and skipped when the sweep
    is re-run with the same arguments (see
    :func:`~repro.experiments.parallel.run_sweep`). ``flight_dir`` turns
    on the flight recorder per arm: each scheme streams a windowed JSONL
    artifact to ``<flight_dir>/<scheme>.jsonl`` (window = one cycle
    length), comparable across arms with ``repro flight diff``.
    """
    for scheme in schemes:
        if scheme not in KNOWN_SCHEMES:
            raise ValueError(
                f"unknown strategy {scheme!r}; known: {', '.join(KNOWN_SCHEMES)}"
            )
    workload = _zoo_workload(scale)
    # The corpus depends only on its seed — build it once here to size the
    # per-cache disk budget; workers rebuild the identical corpus.
    corpus = workload.build_corpus()
    capacity = max(1, int(corpus.total_bytes * scale.disk_fraction))
    config = _zoo_config(scale, capacity)
    if flight_dir is not None:
        Path(flight_dir).mkdir(parents=True, exist_ok=True)

    def _flight(scheme: str) -> Optional[FlightSpec]:
        if flight_dir is None:
            return None
        return FlightSpec(
            path=str(Path(flight_dir) / f"{scheme}.jsonl"),
            window=scale.cycle_length,
        )

    specs = [
        warmed_spec(
            scheme,
            config,
            workload,
            scale.duration_minutes,
            strategy=StrategySpec(scheme=scheme),
            flight=_flight(scheme),
        )
        for scheme in schemes
    ]
    runs, failures = run_points(specs, jobs=jobs, checkpoint=checkpoint)
    ranked = sorted(runs.items(), key=lambda pair: _rank_key(pair[1]))
    requests_per_arm = int(scale.requests_total)
    return SweepTable(
        header=(
            "Zoo",
            f"strategy ranking, {scale.label} scale "
            f"({requests_per_arm:,} requests per arm)",
        ),
        columns=(
            "rank",
            "strategy",
            "cloud hit (%)",
            "local hit (%)",
            "origin fetches",
            "net MB/min",
            "docs stored (%)",
            "stores",
            "rejects",
        ),
        keys=("strategy",),
        rows=[
            (
                rank,
                scheme,
                100.0 * run.stats.cloud_hit_rate,
                100.0 * run.stats.local_hit_rate,
                run.stats.origin_fetches,
                run.network_mb_per_unit,
                run.docs_stored_percent,
                run.stats.stores,
                run.stats.placement_rejects,
            )
            for rank, (scheme, run) in enumerate(ranked, start=1)
        ],
        failures=failures,
        extras={"scale_label": scale.label, "requests_per_arm": requests_per_arm},
    )


def zoo_claims(table: SweepTable) -> Dict[str, bool]:
    """The zoo is a ranking, not a mirror hall."""
    hit_rates = table.column("cloud hit (%)")
    claims = {
        "ranked_by_cloud_hit_rate": hit_rates == sorted(hit_rates, reverse=True),
    }
    if len(table.rows) > 1:
        # Every strategy storing identically would mean the seam is inert.
        claims["schemes_differentiate"] = len(set(table.column("stores"))) > 1
    return claims

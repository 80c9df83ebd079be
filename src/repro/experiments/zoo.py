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
``--jobs`` count (``tests/test_experiments_registry.py`` runs it serial vs
pooled).

Scale: spec-driven runs stream their trace — it is generated lazily and
never materialized — so the ``ZOO_SCALE`` preset (1000 caches, ten million
requests per arm) is bounded by cloud state, not trace length. Long sweeps
can pass ``checkpoint=`` to resume interrupted runs arm-by-arm.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.runner import ExperimentResult
from repro.experiments.sweeps import (
    Scale,
    SweepTable,
    disk_budget,
    paper_cloud,
    run_points,
    warmed_spec,
    zipf_workload,
)
from repro.observe.flight import FlightSpec
from repro.simulation.rng import derive_seed
from repro.strategies.spec import KNOWN_SCHEMES, StrategySpec

#: Schemes swept by default: the whole zoo, paper schemes first.
DEFAULT_SCHEMES: Tuple[str, ...] = KNOWN_SCHEMES


# Unlike the figures, the cloud size is a knob here — the headline preset
# runs a thousand caches.

#: Unit-test / CI-smoke scale: each arm in well under a second.
ZOO_TINY = Scale(
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
ZOO_SMALL = Scale(
    num_documents=2_000,
    request_rate_per_cache=80.0,
    update_rate=60.0,
    duration_minutes=60.0,
    cycle_length=15.0,
)

#: The streaming showcase: 1000 caches x 200 req/min x 50 min = 10M
#: requests per arm, fed out-of-core (the trace is never a list).
ZOO_SCALE = Scale(
    num_caches=1_000,
    num_rings=10,
    num_documents=100_000,
    request_rate_per_cache=200.0,
    update_rate=120.0,
    duration_minutes=50.0,
    cycle_length=10.0,
    disk_fraction=0.01,
)

#: The presets by their registry name (``extras["scale_label"]``).
ZOO_SCALES: Mapping[str, Scale] = {
    "tiny": ZOO_TINY,
    "small": ZOO_SMALL,
    "scale": ZOO_SCALE,
}


def _scale_label(scale: Scale) -> str:
    """The registry name of ``scale``: a preset is itself under any root seed."""
    for label, preset in ZOO_SCALES.items():
        if replace(scale, seed=preset.seed) == preset:
            return label
    return "custom"


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
    scale: Scale = ZOO_SMALL,
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
    # One workload recipe and one cloud shape for every arm (common random
    # numbers).
    workload = zipf_workload(
        scale,
        corpus_seed=derive_seed(scale.seed, "zoo-corpus"),
        seed=derive_seed(scale.seed, "zoo-trace"),
    )
    # ``config.placement`` stays the utility default, but it is inert here:
    # :func:`~repro.strategies.spec.build_strategy` re-derives the placement
    # from each arm's :class:`StrategySpec`, so the arm's strategy — not
    # that field — decides admission.
    config = paper_cloud(
        scale, capacity_bytes=disk_budget(workload, scale.disk_fraction)
    )
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
    label = _scale_label(scale)
    requests_per_arm = int(
        scale.request_rate_per_cache * scale.num_caches * scale.duration_minutes
    )
    return SweepTable(
        header=(
            "Zoo",
            f"strategy ranking, {label} scale "
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
        extras={"scale_label": label, "requests_per_arm": requests_per_arm},
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

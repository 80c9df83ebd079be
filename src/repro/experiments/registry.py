"""Every experiment, described once, as data.

The paper's evaluation and every extension since has one shape: *arms ×
grid under common random numbers → a table → a few claims*. An
:class:`Experiment` entry states that shape — name, scales, run function,
grid parameters, and the ``claims(result) -> {name: bool}`` predicate that
says what the experiment is expected to show. ``repro exp``, the benchmark
harness, the tier-1 smoke test and CI's determinism matrix all iterate
:data:`REGISTRY`; none of them knows an experiment's module, result type or
flags.

One rule everywhere (:attr:`Outcome.ok`): an experiment passes when no
sweep point failed and every claim holds.
"""

from __future__ import annotations

import argparse
import inspect
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.audit.chaos import chaos_audit_grid, chaos_claims
from repro.experiments import ablations, extensions, figures
from repro.experiments.elastic import elastic_claims, elastic_sweep
from repro.experiments.overload import (
    DEFAULT_MULTIPLIERS,
    overload_claims,
    overload_sweep,
)
from repro.experiments.parallel import FailedRun
from repro.experiments.resilience import (
    anti_entropy_claims,
    anti_entropy_sweep,
    resilience_claims,
    resilience_sweep,
)
from repro.experiments.sweeps import SweepFailed, SweepTable, failure_lines
from repro.experiments.zoo import (
    DEFAULT_SCHEMES,
    ZOO_SCALES,
    zoo_claims,
    zoo_sweep,
)

#: The scale every entry has: smoke sizes *and* (where an entry declares
#: one) its reduced smoke grid.
SMOKE_SCALE = "tiny"

FIGURE_SCALES: Mapping[str, Any] = {
    "tiny": figures.TINY_SCALE,
    "small": figures.SMALL_SCALE,
    "paper": figures.PAPER_SCALE,
}


@dataclass(frozen=True)
class Param:
    """One grid parameter of an experiment, and its ``repro exp`` flag.

    A tuple ``default`` takes one or more values; a ``bool`` default makes
    the flag a switch that flips it.
    """

    name: str  # keyword of the run function
    flag: str
    type: Callable[[str], Any]
    default: Any
    help: str


@dataclass(frozen=True)
class Experiment:
    """One experiment: how to run it, at what sizes, and what it claims."""

    name: str
    help: str
    #: ``run(scale, **grid)``; returns a result with ``render()``, or a tuple
    #: of them. A run that accepts ``jobs`` is a sweep of independent points
    #: and is given the job count.
    run: Callable[..., Any]
    #: The experiment's expected findings as named booleans over the result.
    claims: Callable[[Any], Dict[str, bool]]
    scales: Mapping[str, Any] = field(default_factory=lambda: FIGURE_SCALES)
    params: Tuple[Param, ...] = ()
    #: Grid overrides at :data:`SMOKE_SCALE` (explicit values still win).
    smoke: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class Outcome:
    """One executed experiment: result, failed points, claim verdicts."""

    #: What ``run`` returned; ``None`` when a sweep that needs every point
    #: lost one (the points are in :attr:`failures`).
    result: Any
    failures: List[FailedRun]
    #: Empty when any point failed — claims are stated over complete grids.
    claims: Dict[str, bool]

    @property
    def ok(self) -> bool:
        """No failed point and no false claim."""
        return not self.failures and all(self.claims.values())

    def render(self) -> str:
        """The experiment's tables, then one ``claims:`` line."""
        if self.result is None:
            lines = failure_lines(self.failures)
        else:
            lines = [part.render() for part in _parts(self.result)]
        if self.claims:
            lines.append(
                "claims: "
                + "  ".join(
                    f"{name}={'PASS' if ok else 'FAIL'}"
                    for name, ok in self.claims.items()
                )
            )
        return "\n".join(lines)


def _parts(result: Any) -> Tuple[Any, ...]:
    return result if isinstance(result, tuple) else (result,)


def resolve(
    name: str, scale: str, seed: Optional[int] = None
) -> Tuple[Experiment, Any]:
    """The entry called ``name`` and its sizing at ``scale`` (re-seeded).

    Raises :class:`ValueError` for a scale the entry does not have, or a
    root seed on an entry whose seeds are a grid axis.
    """
    entry = REGISTRY[name]
    if scale not in entry.scales:
        raise ValueError(
            f"{name} has no {scale!r} scale (choose from {', '.join(entry.scales)})"
        )
    sizing = entry.scales[scale]
    if seed is not None:
        if not hasattr(sizing, "seed"):
            raise ValueError(f"{name} takes no root seed (its seeds are a grid axis)")
        sizing = replace(sizing, seed=seed)
    return entry, sizing


def run(
    name: str,
    scale: str = "small",
    jobs: Optional[int] = None,
    seed: Optional[int] = None,
    **grid: Any,
) -> Outcome:
    """Run the experiment called ``name``; never raises for a failed point.

    ``seed`` overrides the scale's root seed (re-deriving every workload,
    fault and churn stream); ``grid`` overrides the entry's parameter
    defaults (and, at the smoke scale, its smoke grid).
    """
    entry, sizing = resolve(name, scale, seed)
    kwargs: Dict[str, Any] = {param.name: param.default for param in entry.params}
    if scale == SMOKE_SCALE:
        kwargs.update(entry.smoke)
    kwargs.update(grid)
    if "jobs" in inspect.signature(entry.run).parameters:
        kwargs["jobs"] = jobs
    try:
        result = entry.run(sizing, **kwargs)
    except SweepFailed as exc:
        return Outcome(None, exc.failures, {})
    failures = [
        failed
        for part in _parts(result)
        if isinstance(part, SweepTable)
        for failed in part.failures
    ]
    return Outcome(result, failures, {} if failures else entry.claims(result))


def add_flags(parser: argparse.ArgumentParser) -> None:
    """Add every entry's parameter flags to ``parser``, one per distinct flag.

    Entries may share a flag (``--loss``); each applies its own default, so
    the flags themselves default to "not given" (see :func:`given_grids`).
    """
    owners: Dict[str, List[str]] = {}
    for entry in REGISTRY.values():
        for param in entry.params:
            owners.setdefault(param.flag, []).append(entry.name)
            if len(owners[param.flag]) > 1:
                continue
            spec: Dict[str, Any] = {"type": param.type}
            if param.type is bool:
                spec = {"action": "store_false" if param.default else "store_true"}
            elif isinstance(param.default, tuple):
                spec["nargs"] = "+"
            parser.add_argument(
                param.flag, dest=param.name, default=argparse.SUPPRESS,
                help=param.help, **spec,
            )
    parser.epilog = "per-experiment flags: " + "; ".join(
        f"{flag} ({', '.join(names)})" for flag, names in owners.items()
    )


def given_grids(
    names: Sequence[str], given: Mapping[str, Any]
) -> Dict[str, Dict[str, Any]]:
    """Split parsed flag values (``vars(args)``) among the named experiments.

    Raises :class:`ValueError` for a flag that none of them takes, and for a
    grid that names a value twice: points are keyed by their grid values, so
    a repeat would run twice into one row (and one ``--flight-dir`` file).
    """
    flags = {p.name: p.flag for entry in REGISTRY.values() for p in entry.params}
    grids: Dict[str, Dict[str, Any]] = {name: {} for name in names}
    for key, value in given.items():
        if key not in flags:
            continue
        takers = [n for n in names if any(p.name == key for p in REGISTRY[n].params)]
        if not takers:
            raise ValueError(f"{flags[key]} applies to none of: {', '.join(names)}")
        if isinstance(value, list) and len(set(value)) < len(value):
            raise ValueError(f"{flags[key]} names a value more than once: {value}")
        for name in takers:
            grids[name][key] = tuple(value) if isinstance(value, list) else value
    return grids


def catalogue(claims: Mapping[str, Sequence[str]]) -> str:
    """The registry as a Markdown table: name, scales, grid flags, claims.

    ``claims`` maps each entry to the names of the claims a run of it
    stated (claims are a function of the result, so only a run knows
    them). EXPERIMENTS.md embeds this table, rendered from the smoke runs;
    ``tests/test_experiments_registry.py`` keeps the two in sync.
    """

    def default(value: Any) -> str:
        values = value if isinstance(value, tuple) else (value,)
        return " ".join(f"{v:g}" if isinstance(v, float) else str(v) for v in values)

    lines = ["| name | scales | grid flags (default) | claims |", "|---|---|---|---|"]
    for entry in REGISTRY.values():
        flags = ", ".join(
            f"`{param.flag}`"
            + ("" if param.default in (None, True) else f" ({default(param.default)})")
            for param in entry.params
        )
        lines.append(
            f"| `{entry.name}` | {' '.join(entry.scales)} | {flags or '—'} "
            f"| {', '.join(claims[entry.name])} |"
        )
    return "\n".join(lines)


_LOSS = "message loss rates to sweep (space-separated, in [0, 1))"
_CHURN = "cloud-wide cache failure rates per minute to sweep"

_ENTRIES: Tuple[Experiment, ...] = (
    Experiment(
        "fig3", "Figure 3: beacon load distribution, Zipf-0.9 dataset",
        figures.figure3, figures.figure3_claims,
    ),
    Experiment(
        "fig4", "Figure 4: beacon load distribution, Sydney-like dataset",
        figures.figure4, figures.load_distribution_claims,
    ),
    Experiment(
        "fig5", "Figure 5: beacon-ring size vs load balancing",
        figures.figure5, figures.figure5_claims,
        smoke={"cloud_sizes": (10,), "ring_sizes": (2, 10)},
    ),
    Experiment(
        "fig6", "Figure 6: Zipf parameter vs load balancing",
        figures.figure6, figures.figure6_claims,
        smoke={"alphas": (0.0, 0.9, 0.99)},
    ),
    Experiment(
        "fig7-8",
        "Figures 7-8: documents stored and network load vs update rate "
        "(one sweep, two tables)",
        figures.figure7_and_8, figures.figure7_and_8_claims,
        smoke={"update_rates": (10.0, 500.0)},
    ),
    Experiment(
        "fig9", "Figure 9: network load vs update rate, disk = 5% of the corpus",
        figures.figure9, figures.figure9_claims,
        smoke={"update_rates": (100.0, 500.0)},
    ),
    Experiment(
        "load-info", "ablation: per-IrH load counters vs the CAvgLoad approximation",
        ablations.ablation_load_information, ablations.load_information_claims,
    ),
    Experiment(
        "consistent-hashing", "ablation: static vs consistent vs dynamic hashing",
        ablations.ablation_consistent_hashing, ablations.consistent_hashing_claims,
    ),
    Experiment(
        "threshold", "ablation: utility store-threshold sensitivity",
        ablations.ablation_threshold, ablations.threshold_claims,
        smoke={"thresholds": (0.1, 0.5, 0.9)},
    ),
    Experiment(
        "cycle-length", "ablation: sub-range determination period",
        ablations.ablation_cycle_length, ablations.cycle_length_claims,
        smoke={"cycle_lengths": (2.0, 10.0)},
    ),
    Experiment(
        "ring-theory", "ablation: closed-form balance model vs Monte-Carlo vs measured",
        ablations.ablation_ring_theory, ablations.ring_theory_claims,
    ),
    Experiment(
        "consistency", "extension: push (cache cloud) vs TTL vs cooperative leases",
        extensions.consistency_mode_comparison, extensions.consistency_claims,
    ),
    Experiment(
        "multi-cloud", "extension: server update messages as the edge network grows",
        extensions.multi_cloud_update_savings, extensions.multi_cloud_claims,
        smoke={"cloud_counts": (1, 2), "caches_per_cloud": 4},
    ),
    Experiment(
        "adaptive-weights", "extension: fixed vs feedback-adapted utility weights",
        extensions.adaptive_weights_comparison, extensions.adaptive_weights_claims,
    ),
    Experiment(
        "failure-resilience", "extension: value of lazy directory replication under failure",
        extensions.failure_resilience_value, extensions.failure_resilience_claims,
    ),
    Experiment(
        "latency", "extension: client latency by placement scheme (far origin)",
        extensions.client_latency_comparison, extensions.latency_claims,
    ),
    Experiment(
        "capabilities", "extension: does beacon load track machine capability?",
        extensions.capability_proportionality, extensions.capability_claims,
    ),
    Experiment(
        "resilience", "hit-rate/origin-load degradation vs message loss and churn",
        resilience_sweep, resilience_claims,
        params=(
            Param("loss_rates", "--loss", float, (0.0, 0.05, 0.2, 0.5), _LOSS),
            Param("churn_rates", "--churn", float, (0.0,), _CHURN),
            Param(
                "telemetry", "--telemetry", str, None,
                "additionally re-run the harshest (loss, churn) point serially "
                "with the observability registry attached and write its JSON "
                "artifact to this file",
            ),
        ),
        smoke={"loss_rates": (0.0, 0.3, 0.7), "churn_rates": (0.0, 0.05)},
    ),
    Experiment(
        "anti-entropy", "end-of-run staleness with background repair off vs on",
        anti_entropy_sweep, anti_entropy_claims,
        params=(
            Param("loss_rates", "--loss", float, (0.1, 0.3), _LOSS),
            Param("churn_rates", "--churn", float, (0.0, 0.05), _CHURN),
        ),
        smoke={"loss_rates": (0.5,), "churn_rates": (0.1,)},
    ),
    Experiment(
        "overload",
        "flash-crowd sweep: bounded node queues + admission control, "
        "cooperative vs origin-direct at increasing load multipliers",
        overload_sweep, overload_claims,
        params=(
            Param(
                "multipliers", "--multipliers", float, DEFAULT_MULTIPLIERS,
                "load multipliers on the scale's request rate (space-separated)",
            ),
        ),
        smoke={"multipliers": (1.0, 16.0)},
    ),
    Experiment(
        "elastic",
        "diurnal autoscaling sweep: elastic sizing vs static over-/"
        "under-provisioning across a day with a flash crowd",
        elastic_sweep, elastic_claims,
    ),
    Experiment(
        "zoo",
        "strategy zoo: every caching strategy (paper placements + "
        "LCE/LCD/ProbCache/CUP-tree) over one shared workload, ranked",
        zoo_sweep, zoo_claims,
        # scale = 1000 caches, 10M streamed requests per arm.
        scales=ZOO_SCALES,
        params=(
            Param(
                "schemes", "--schemes", str, DEFAULT_SCHEMES,
                "subset of strategies to run (default: the whole zoo)",
            ),
            Param(
                "checkpoint", "--checkpoint", str, None,
                "resume file: completed arms are recorded here and skipped "
                "when the sweep restarts with the same arguments",
            ),
            Param(
                "flight_dir", "--flight-dir", str, None,
                "stream one windowed flight artifact per arm to "
                "<dir>/<scheme>.jsonl (compare arms with `repro flight diff`)",
            ),
        ),
    ),
    Experiment(
        "audit",
        "chaos-audit: seeded fault+churn campaigns, quiesced, "
        "anti-entropy-repaired, and checked against every invariant",
        chaos_audit_grid, chaos_claims,
        # Scenario sizing overrides; the scenarios' own defaults are "small".
        scales={"tiny": {"duration_minutes": 30.0}, "small": {}},
        params=(
            Param("seeds", "--seeds", int, (1, 2), "scenario seeds (one grid per seed)"),
            Param("loss_rates", "--loss", float, (0.15, 0.3), _LOSS),
            Param("churn_rates", "--churn", float, (0.0, 0.1), _CHURN),
            Param(
                "duration", "--duration", float, None,
                "simulated minutes per scenario (default: the scale's)",
            ),
            Param(
                "anti_entropy", "--no-anti-entropy", bool, True,
                "run the grid without background repair (the divergence "
                "baseline: what the campaigns broke must stay broken)",
            ),
        ),
    ),
)

#: name -> entry, in presentation order (figures, ablations, extensions,
#: then the beyond-paper sweeps).
REGISTRY: Dict[str, Experiment] = {entry.name: entry for entry in _ENTRIES}

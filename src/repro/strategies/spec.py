"""Picklable strategy recipes for sweeps.

A :class:`StrategySpec` is to a :class:`~repro.strategies.base.CacheStrategy`
what a :class:`~repro.experiments.parallel.WorkloadSpec` is to a trace: a
small frozen value that crosses process boundaries and is built into the
live object inside the worker. It rides on
:class:`~repro.experiments.parallel.ExperimentSpec` — never on
:class:`~repro.core.config.CloudConfig` — so archived results embedding the
config stay schema-identical with and without a strategy override, and the
golden fingerprints are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from repro.core.config import CloudConfig, PlacementScheme
from repro.core.placement import make_placement
from repro.simulation.rng import derive_seed
from repro.strategies.base import CacheStrategy
from repro.strategies.cup import CUPTreeStrategy
from repro.strategies.onpath import LCDStrategy, LCEStrategy, ProbCacheStrategy
from repro.strategies.paper import strategy_for

#: The paper's four schemes (composed from a placement policy).
PAPER_SCHEMES: Tuple[str, ...] = tuple(s.value for s in PlacementScheme)

#: Strategies beyond the paper, built directly.
EXTENDED_SCHEMES: Tuple[str, ...] = ("lce", "lcd", "probcache", "cup_tree")

#: Every scheme name :func:`build_strategy` accepts.
KNOWN_SCHEMES: Tuple[str, ...] = PAPER_SCHEMES + EXTENDED_SCHEMES


@dataclass(frozen=True)
class StrategySpec:
    """Frozen recipe for one cooperative-caching strategy.

    ``scheme`` is one of :data:`KNOWN_SCHEMES`. The remaining knobs only
    apply to the schemes that read them: ``store_probability`` to
    ``probcache``, ``tree_fanout`` and ``base_placement`` to ``cup_tree``
    (whose request-path admission is the named paper policy).
    """

    scheme: str
    store_probability: float = 0.7
    tree_fanout: int = 2
    base_placement: str = PlacementScheme.UTILITY.value

    def __post_init__(self) -> None:
        if self.scheme not in KNOWN_SCHEMES:
            raise ValueError(
                f"unknown strategy scheme {self.scheme!r}; "
                f"expected one of {sorted(KNOWN_SCHEMES)}"
            )
        if not 0.0 <= self.store_probability <= 1.0:
            raise ValueError(
                f"store_probability must be in [0, 1], "
                f"got {self.store_probability}"
            )
        if self.tree_fanout < 1:
            raise ValueError(f"tree_fanout must be >= 1, got {self.tree_fanout}")
        if self.base_placement not in PAPER_SCHEMES:
            raise ValueError(
                f"base_placement must be a paper scheme, "
                f"got {self.base_placement!r}"
            )


def build_strategy(spec: StrategySpec, config: CloudConfig) -> CacheStrategy:
    """Build the live strategy a spec describes, seeded from ``config``.

    Paper schemes are composed exactly as :class:`CacheCloud` would compose
    them from a config carrying that placement — same policy object shape,
    same decision sequence — so a spec-driven paper run is value-identical
    to a config-driven one.
    """
    if spec.scheme in PAPER_SCHEMES:
        placed = replace(config, placement=PlacementScheme(spec.scheme))
        return strategy_for(placed, make_placement(placed))
    if spec.scheme == "lce":
        return LCEStrategy()
    if spec.scheme == "lcd":
        return LCDStrategy()
    if spec.scheme == "probcache":
        return ProbCacheStrategy(
            store_probability=spec.store_probability,
            seed=derive_seed(config.seed, "strategy:probcache"),
        )
    # cup_tree (KNOWN_SCHEMES is closed, enforced in __post_init__)
    based = replace(
        config, placement=PlacementScheme(spec.base_placement)
    )
    return CUPTreeStrategy(make_placement(based), fanout=spec.tree_fanout)

"""Strategies by scheme name, for sweeps.

A sweep names its strategy with a plain string — one of
:data:`KNOWN_SCHEMES` — that crosses process boundaries on
:class:`~repro.experiments.parallel.ExperimentSpec` and is built into the
live :class:`~repro.strategies.base.CacheStrategy` inside the worker. The
name rides on the spec — never on :class:`~repro.core.config.CloudConfig`
— so archived results embedding the config stay schema-identical with and
without a strategy override, and the golden fingerprints are untouched.
"""

from __future__ import annotations

from dataclasses import replace
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


def build_strategy(scheme: str, config: CloudConfig) -> CacheStrategy:
    """Build the live strategy called ``scheme``, seeded from ``config``.

    Paper schemes are composed exactly as :class:`CacheCloud` would compose
    them from a config carrying that placement — same policy object shape,
    same decision sequence — so a named paper run is value-identical to a
    config-driven one. ``cup_tree``'s request-path admission is the utility
    placement. Raises :class:`ValueError` for a name outside
    :data:`KNOWN_SCHEMES`.
    """
    if scheme in PAPER_SCHEMES:
        placed = replace(config, placement=PlacementScheme(scheme))
        return strategy_for(placed, make_placement(placed))
    if scheme == "lce":
        return LCEStrategy()
    if scheme == "lcd":
        return LCDStrategy()
    if scheme == "probcache":
        return ProbCacheStrategy(seed=derive_seed(config.seed, "strategy:probcache"))
    if scheme == "cup_tree":
        based = replace(config, placement=PlacementScheme.UTILITY)
        return CUPTreeStrategy(make_placement(based))
    raise ValueError(
        f"unknown strategy scheme {scheme!r}; "
        f"expected one of {sorted(KNOWN_SCHEMES)}"
    )

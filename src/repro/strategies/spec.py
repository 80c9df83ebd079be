"""The one strategy factory: ``config.placement`` names the strategy.

:class:`~repro.core.config.PlacementScheme` names all eight schemes — the
paper's four placement policies and the four strategies beyond it — and
:func:`strategy_for` builds the live
:class:`~repro.strategies.base.CacheStrategy` one config names. A sweep
varies the scheme as it varies any other config field; the paper's values
are unchanged, so archived configs keep their schema.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import CloudConfig, PlacementScheme
from repro.core.placement import make_placement
from repro.simulation.rng import derive_seed
from repro.strategies.base import CacheStrategy
from repro.strategies.cup import CUPTreeStrategy
from repro.strategies.onpath import LCDStrategy, LCEStrategy, ProbCacheStrategy
from repro.strategies.paper import BeaconPointStrategy, PolicyStrategy


def strategy_for(config: CloudConfig) -> CacheStrategy:
    """The live strategy ``config.placement`` names, seeded from ``config``.

    A paper scheme is its placement policy behind the seam; adaptive layers
    retune that policy through ``cloud.strategy.policy``. ``cup_tree``'s
    request-path admission is the utility placement under the config's
    weights and threshold; ProbCache draws from its own derived stream.
    """
    scheme = config.placement
    if scheme is PlacementScheme.LCE:
        return LCEStrategy()
    if scheme is PlacementScheme.LCD:
        return LCDStrategy()
    if scheme is PlacementScheme.PROBCACHE:
        return ProbCacheStrategy(seed=derive_seed(config.seed, "strategy:probcache"))
    if scheme is PlacementScheme.CUP_TREE:
        utility = replace(config, placement=PlacementScheme.UTILITY)
        return CUPTreeStrategy(make_placement(utility))
    if scheme is PlacementScheme.BEACON:
        return BeaconPointStrategy(make_placement(config))
    return PolicyStrategy(make_placement(config))

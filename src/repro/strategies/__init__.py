"""The strategy plane: pluggable cooperative-caching policies.

One :class:`~repro.strategies.base.CacheStrategy` answers the three
decisions the protocol has — forwarding (:meth:`on_lookup`), admission
(:meth:`on_retrieval`), and update propagation (:meth:`on_update`) —
composed at the :class:`~repro.core.cloud.CacheCloud` root from the scheme
``config.placement`` names (:func:`~repro.strategies.spec.strategy_for`). See
``base.py`` for the hook contract and DESIGN.md for the seam's placement
in the protocol plane.
"""

from repro.strategies.base import (
    CacheStrategy,
    FetchRoute,
    ReplyHop,
    Retrieval,
    ServedFrom,
    apply_store_decision,
)
from repro.strategies.cup import CUPTreeStrategy
from repro.strategies.onpath import (
    LCDStrategy,
    LCEStrategy,
    OnPathStrategy,
    ProbCacheStrategy,
)
from repro.strategies.paper import BeaconPointStrategy, PolicyStrategy
from repro.strategies.spec import strategy_for

__all__ = [
    "CacheStrategy",
    "FetchRoute",
    "ReplyHop",
    "Retrieval",
    "ServedFrom",
    "apply_store_decision",
    "CUPTreeStrategy",
    "LCDStrategy",
    "LCEStrategy",
    "OnPathStrategy",
    "ProbCacheStrategy",
    "BeaconPointStrategy",
    "PolicyStrategy",
    "strategy_for",
]

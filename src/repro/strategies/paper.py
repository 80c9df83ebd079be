"""The paper's four schemes, re-expressed as strategies.

These classes are the strategy-plane form of the decision logic that used
to be hard-wired in ``CacheNode.serve_miss``: a requester-side
:class:`~repro.core.placement.PlacementPolicy` consulted at the end of
every retrieval (ad hoc / utility / expiration-age), with beacon-point
placement additionally routing origin fetches through the beacon so the
single copy lands there.

Equivalence contract: composed through the seam, each scheme produces a
message-for-message identical dispatch log, identical meters, and zero
extra RNG draws versus the pre-refactor protocol — the structure of every
method below is a verbatim relocation of the original call sites, pinned
by ``tests/test_strategy_equivalence.py`` and the golden fingerprints.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.placement import PlacementPolicy
from repro.strategies.base import (
    CacheStrategy,
    FetchRoute,
    ReplyHop,
    Retrieval,
    ServedFrom,
    apply_store_decision,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.node import CacheNode


class PolicyStrategy(CacheStrategy):
    """Requester-side placement policy behind the strategy seam.

    The paper's ad hoc, utility, and expiration-age schemes: fetches travel
    the direct route, updates fan out through the beacon star, and the only
    decision is the requester's store-or-not at the end of the retrieval.
    """

    def __init__(self, policy: PlacementPolicy) -> None:
        self.policy = policy
        self.name = policy.name

    def on_retrieval(self, node: "CacheNode", retrieval: Retrieval) -> bool:
        # The decision's inputs must be read for every decision — the rate
        # estimators advance their decay state when read, so skipping the
        # reads (even for an always-store policy) would change later
        # decisions.
        stored = node.decide_store(
            self.policy, retrieval.doc_id, retrieval.now, retrieval.beacon_id
        )
        return apply_store_decision(node, retrieval, stored)


class BeaconPointStrategy(PolicyStrategy):
    """Beacon-point placement: the single copy lands at the beacon.

    Origin fetches from a non-beacon requester are routed through the
    beacon (``VIA_BEACON``); the beacon hop stores and registers the copy
    mid-route, and the requester then declines without a placement span —
    exactly the pre-refactor ``_beacon_placed_fetch`` sequence.
    """

    def on_lookup(
        self, node: "CacheNode", doc_id: int, beacon_id: int
    ) -> FetchRoute:
        if node.cache_id != beacon_id:
            return FetchRoute.VIA_BEACON
        return FetchRoute.DIRECT

    def on_retrieval(self, node: "CacheNode", retrieval: Retrieval) -> bool:
        if retrieval.hop is ReplyHop.INTERMEDIATE:
            # The beacon takes the copy between the two legs of the routed
            # fetch; ``admit_and_register`` declines internally on no-fit.
            node.admit_and_register(
                retrieval.doc_id, retrieval.size_bytes, retrieval.version,
                retrieval.now, retrieval.beacon_id,
            )
            return True
        if retrieval.served_from is ServedFrom.ORIGIN_VIA_BEACON:
            # The requester never stores under beacon placement; the copy
            # already landed at the beacon hop. Bare decline, no span.
            node.cache.decline()
            return False
        # Direct-route paths (requester is the beacon, or a peer served the
        # copy): the ordinary policy flow, with BeaconPlacement answering.
        return super().on_retrieval(node, retrieval)


"""Classic on-path admission strategies: LCE, LCD, ProbCache-style.

The ICN/CDN literature's standard admission family (surveyed in the
cooperative-caching survey, arXiv:1210.0071; icarus ships the same trio as
``onpath.py``) decides *where along the reply path* a retrieved copy
lands. The cache-cloud protocol gives every group miss a natural two-node
path by routing the fetch origin → beacon point → requester (the same
chain beacon-point placement uses), so the classic rules map directly:

* :class:`LCEStrategy` — leave a copy everywhere: both the beacon hop and
  the requester store.
* :class:`LCDStrategy` — leave a copy down one level: an origin-served
  fetch seeds the beacon hop only; a later cloud hit moves the copy one
  level down to the requester.
* :class:`ProbCacheStrategy` — probabilistic on-path admission, weighted
  toward the requester end of the path (ProbCache's position-weighted
  cache weight, collapsed to the two-point path).

All three keep the paper's beacon star for update propagation; only the
admission rule differs. ProbCache draws from its own seeded RNG stream, so
workload and fault streams see zero extra draws.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

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

#: ProbCache's base store probability at the requester end of a path.
STORE_PROBABILITY = 0.7


class OnPathStrategy(CacheStrategy):
    """Shared routing for the on-path family.

    Origin fetches are routed through the beacon point whenever the
    requester is not itself the beacon — that hop *is* the "path" the
    admission rules act on. Peer-served hits have a single storage point
    (the requester).
    """

    def on_lookup(
        self, node: "CacheNode", doc_id: int, beacon_id: int
    ) -> FetchRoute:
        if node.cache_id != beacon_id:
            return FetchRoute.VIA_BEACON
        return FetchRoute.DIRECT

    def _store_at_hop(
        self, node: "CacheNode", retrieval: Retrieval, stored: bool
    ) -> bool:
        """One decision at one hop, with consistent accounting.

        Intermediate hops store (or decline) without a placement span —
        matching the beacon-point precedent, where mid-route admission is
        part of the transfer, not a policy event. Requester-side decisions
        go through :func:`apply_store_decision` (span + admit/decline).
        """
        if retrieval.hop is ReplyHop.INTERMEDIATE:
            if stored:
                node.admit_and_register(
                    retrieval.doc_id, retrieval.size_bytes, retrieval.version,
                    retrieval.now, retrieval.beacon_id,
                )
            else:
                node.cache.decline()
            return stored
        return apply_store_decision(node, retrieval, stored)


class LCEStrategy(OnPathStrategy):
    """Leave Copy Everywhere: every node on the reply path stores."""

    name = "lce"

    def on_retrieval(self, node: "CacheNode", retrieval: Retrieval) -> bool:
        return self._store_at_hop(node, retrieval, True)


class LCDStrategy(OnPathStrategy):
    """Leave Copy Down: the copy descends one level per retrieval.

    Origin-served fetches seed the beacon hop (one level below the origin);
    the requester at the end of a routed fetch declines. A cloud hit —
    the copy already lives at the cloud level — moves it one level down to
    the requester. A direct origin fetch only happens when the requester
    *is* the beacon, which is the same one-level descent.
    """

    name = "lcd"

    def on_retrieval(self, node: "CacheNode", retrieval: Retrieval) -> bool:
        if retrieval.hop is ReplyHop.INTERMEDIATE:
            return self._store_at_hop(node, retrieval, True)
        stored = retrieval.served_from is not ServedFrom.ORIGIN_VIA_BEACON
        return self._store_at_hop(node, retrieval, stored)


class ProbCacheStrategy(OnPathStrategy):
    """ProbCache-style probabilistic admission, requester-weighted.

    Each storage point stores with probability ``p * position / path_len``
    (``p`` = :data:`STORE_PROBABILITY`) where positions count from the
    origin end — the beacon hop of a routed fetch is position 1 of 2, the
    requester position 2 of 2 (or 1 of 1 on single-point paths). Draws come
    from a dedicated seeded stream.
    """

    name = "probcache"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def on_retrieval(self, node: "CacheNode", retrieval: Retrieval) -> bool:
        if retrieval.hop is ReplyHop.INTERMEDIATE:
            probability = STORE_PROBABILITY * 0.5
        else:
            probability = STORE_PROBABILITY
        stored = self._rng.random() < probability
        return self._store_at_hop(node, retrieval, stored)

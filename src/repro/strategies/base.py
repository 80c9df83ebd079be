"""The strategy-plane contract: three hooks, one seam.

Every cooperative-caching scheme this repository knows — the paper's four
placement schemes and the classic on-path admission family (LCE / LCD /
ProbCache) plus CUP-style propagation trees — is expressed as one
:class:`CacheStrategy` with three decision hooks, composed at the
:class:`~repro.core.cloud.CacheCloud` composition root:

* :meth:`CacheStrategy.on_lookup` — *forwarding*: when a group miss must go
  to the origin, does the fetch travel origin→requester directly, or is it
  routed origin→beacon→requester so an on-path node can take a copy?
* :meth:`CacheStrategy.on_retrieval` — *admission/placement*: at every
  storage point on the reply path (the beacon hop of a routed fetch, and
  the requester at the end of every retrieval) the strategy decides whether
  that node keeps a copy. Exactly one of ``stores`` / ``placement_rejects``
  ticks on the deciding cache per decision — the accounting contract
  ``tests/test_strategies.py`` pins per strategy.
* :meth:`CacheStrategy.on_update` — *propagation*: how a published update
  reaches the document's holders (the paper's beacon star fan-out, the
  origin's per-holder refresh, or a CUP-style interest tree).

The hooks are invoked from :class:`~repro.core.node.CacheNode` and
:meth:`~repro.core.cloud.CacheCloud._apply_update` at exactly the points
the decisions used to be hard-wired; the four paper schemes re-expressed
through this seam are message-for-message identical to the pre-refactor
protocol (``tests/test_strategy_equivalence.py`` and the golden
fingerprints enforce this).

Strategies never dispatch messages themselves on the request path — they
only answer decisions and call back into the node's protocol verbs
(``admit_and_register`` / ``cache.decline``), so fault behaviour, byte
accounting, and telemetry all remain fabric properties.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.node import CacheNode
    from repro.core.roles import BeaconRole


class FetchRoute(enum.Enum):
    """How a group-miss fetch travels from the origin to the requester."""

    #: One leg: origin → requester.
    DIRECT = "direct"
    #: Two legs: origin → beacon point → requester, with an on-path
    #: storage decision at the beacon hop.
    VIA_BEACON = "via_beacon"


class ServedFrom(enum.Enum):
    """Where the retrieved copy came from."""

    #: A peer cache in the cloud served the copy (cloud hit).
    PEER = "peer"
    #: The origin served it over the direct route.
    ORIGIN = "origin"
    #: The origin served it over the beacon-routed path.
    ORIGIN_VIA_BEACON = "origin_via_beacon"


class ReplyHop(enum.Enum):
    """Which storage point on the reply path is deciding."""

    #: An on-path node (the beacon hop of a routed fetch).
    INTERMEDIATE = "intermediate"
    #: The requesting cache, at the end of the retrieval.
    REQUESTER = "requester"


@dataclass(slots=True)
class Retrieval:
    """One storage decision point on the reply path.

    ``decision_time`` is the simulated time the copy reaches the deciding
    node (lookup + transfer legs accrued); telemetry placement spans are
    stamped with it. ``now`` is the request arrival time the protocol's
    bookkeeping (admission, registration, frequency trackers) uses —
    identical to the pre-refactor call sites.
    """

    doc_id: int
    size_bytes: int
    version: int
    now: float
    beacon_id: int
    hop: ReplyHop
    served_from: ServedFrom
    decision_time: float


def apply_store_decision(
    node: "CacheNode", retrieval: Retrieval, stored: bool
) -> bool:
    """Carry out a requester-side store-or-not decision.

    Either admits-and-registers or ticks the decline counter — the exact
    sequence the pre-strategy ``serve_miss`` hard-wired — and reports the
    decision as a zero-length ``placement`` leg.
    """
    if stored:
        node.admit_and_register(
            retrieval.doc_id, retrieval.size_bytes, retrieval.version,
            retrieval.now, retrieval.beacon_id,
        )
    else:
        node.cache.decline()
    watch = node.cloud.watch
    if watch is not None:
        at = retrieval.decision_time
        watch.leg("placement", at, at, stored=stored)
    return stored


class CacheStrategy(ABC):
    """One cooperative-caching scheme behind the three-hook seam."""

    #: Short name used in reports and the zoo ranking.
    name: str = "abstract"

    def on_lookup(
        self, node: "CacheNode", doc_id: int, beacon_id: int
    ) -> FetchRoute:
        """Route for a group-miss origin fetch (default: direct)."""
        return FetchRoute.DIRECT

    @abstractmethod
    def on_retrieval(self, node: "CacheNode", retrieval: Retrieval) -> bool:
        """Decide (and carry out) storage at one reply-path hop.

        ``node`` is the deciding node — the beacon's node object for
        ``ReplyHop.INTERMEDIATE``, the requester for ``ReplyHop.REQUESTER``.
        Returns whether a store was attempted.
        """

    def on_update(
        self,
        beacon_role: "BeaconRole",
        doc_id: int,
        version: int,
        size: int,
        now: float,
    ) -> int:
        """Propagate one published update; returns holders refreshed.

        Default: the paper's star fan-out (one server→beacon body, then
        beacon→holder pushes). The cooperation-off and dead-beacon
        fallbacks never reach this hook — they stay in
        :meth:`CacheCloud._apply_update`.
        """
        return beacon_role.propagate_update(doc_id, version, size, now)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"

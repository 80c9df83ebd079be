"""CUP-style update propagation: push along an interest tree.

Roussopoulos & Baker's CUP (arXiv:cs/0202008) propagates updates along the
reverse paths of interest — each node that asked for a document relays
fresh content to the nodes that asked *through* it — instead of having one
authority contact every holder directly. Mapped onto the cache cloud: the
beacon point remains the root (it receives the one server→beacon body the
paper's protocol pays), but instead of the star fan-out it pushes to at
most :data:`FANOUT` holders, each of which relays onward to its own children
in a deterministic k-ary tree over the sorted holder set.

Trade-off surfaced by the zoo sweep: the tree bounds the beacon's per-
update send fan-out at :data:`FANOUT` (the star pays degree = holder count),
at the cost of deeper propagation latency and a larger blast radius per
lost edge — a failed or deferred push strands the entire subtree below it
(every stranded holder stays stale until its next request repairs it,
the same recovery contract as a lost star push).

Request-path behaviour (admission, forwarding) is delegated to an inner
placement policy, so the tree is an apples-to-apples replacement for the
star under any admission rule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Set

from repro.edgecache.cache import apply_to_holders
from repro.network.bandwidth import TrafficCategory
from repro.strategies.paper import PolicyStrategy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.placement import PlacementPolicy
    from repro.core.roles import BeaconRole

#: Children per node of the interest tree (the beacon's send fan-out).
FANOUT = 2


class CUPTreeStrategy(PolicyStrategy):
    """Beacon-rooted k-ary interest-tree push instead of star fan-out."""

    def __init__(self, policy: "PlacementPolicy") -> None:
        super().__init__(policy)
        self.name = f"cup_tree:{policy.name}"

    def on_update(
        self,
        beacon_role: "BeaconRole",
        doc_id: int,
        version: int,
        size: int,
        now: float,
    ) -> int:
        cloud = beacon_role.cloud
        fabric = cloud.fabric
        beacon_id = beacon_role.beacon_id
        holders = beacon_role.update_targets(doc_id)
        # Same notice-or-body step as the star; with nobody holding the
        # document, or the root never getting the body, there is no tree.
        root_at = beacon_role.receive_update(doc_id, version, size, now, holders)
        if root_at is None:
            return 0
        watch = cloud.watch

        # Deterministic k-ary tree: the beacon at index 0, holders in sorted
        # order after it; node i relays to indices k*i+1 .. k*i+k. A node's
        # push starts when its own copy arrived, so latency accrues per level.
        order = [beacon_id] + [h for h in holders if h != beacon_id]
        arrival: Dict[int, float] = {beacon_id: root_at}
        deferred: Set[int] = set()
        overload = cloud.overload
        k = FANOUT
        for index, parent in enumerate(order):
            parent_at = arrival.get(parent)
            if parent_at is None:
                continue  # stranded subtree: the parent never got the body
            first_child = k * index + 1
            for child_index in range(
                first_child, min(first_child + k, len(order))
            ):
                child = order[child_index]
                if overload is not None and overload.defer_fanout(child):
                    # Same graceful-degradation contract as the star: a
                    # saturated holder's push is deferred, and here the
                    # subtree below it is stranded with it.
                    if watch is not None:
                        watch.mark(
                            "overload_defer", parent_at, "tree_push", child,
                            "overload.deferred.fanout",
                        )
                    deferred.add(child)
                    continue
                push = fabric.send_document(
                    parent,
                    child,
                    size,
                    TrafficCategory.UPDATE_FANOUT,
                    reliable=True,
                )
                if watch is not None:
                    # One update push attempt, like a star leg.
                    watch.leg(
                        "tree_push", parent_at, parent_at + push.latency,
                        "fanout_leg", push.attempts,
                        parent=parent, holder=child, bytes=size,
                        ok=push.ok, attempts=push.attempts,
                    )
                if not push.ok:
                    continue  # counted below with the rest of its subtree
                arrival[child] = parent_at + push.latency
        refreshed = apply_to_holders(
            cloud.caches, [h for h in holders if h in arrival], doc_id, version
        )
        # Every unreached holder is one stale copy awaiting request-time
        # repair; deferral is an overload statistic, not a loss.
        cloud.update_pushes_lost += sum(
            1 for h in holders if h not in arrival and h not in deferred
        )
        beacon_role.note_refreshed(doc_id, version, refreshed)
        return refreshed

"""The requester-side protocol role: one cache node of the cloud.

:class:`CacheNode` wraps one :class:`~repro.edgecache.cache.EdgeCache`
with the message protocols the requester side of the paper speaks:
collaborative miss handling (lookup at the beacon point, peer transfer or
origin fetch), holder registration, and eviction notices. The *decisions*
along that path — how a group-miss fetch is routed and who stores the
retrieved copy — are delegated to the cloud's composed
:class:`~repro.strategies.base.CacheStrategy`; this module owns the
message legs only. The no-cooperation baseline
(:meth:`CacheNode.fetch_direct`) lives here too — it is the same node
talking only to the origin.

There is exactly ONE implementation of each protocol. Fault behaviour —
loss, retries, timeouts, forced deliveries — is a property of the
:class:`~repro.core.fabric.MessageFabric` the node dispatches through, not
of this code: with no injector attached every dispatch succeeds on its
first attempt and the failure branches below are simply never taken.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Optional, Set, Tuple

from repro.core.utility import PlacementContext
from repro.edgecache.cache import EdgeCache
from repro.edgecache.storage import UNCONTENDED
from repro.network.bandwidth import TrafficCategory
from repro.strategies.base import FetchRoute, ReplyHop, Retrieval, ServedFrom

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.cloud import CacheCloud
    from repro.core.placement import PlacementPolicy

#: Simulated minutes -> reported milliseconds.
MINUTES_TO_MS = 60_000.0

#: Where a store decision's fold of residence keys starts: above every
#: key, finite or :data:`~repro.edgecache.storage.UNCONTENDED`.
_ABOVE_EVERY_KEY = float("inf")


class RequestOutcome(enum.Enum):
    """How a client request was ultimately served."""

    LOCAL_HIT = "local_hit"
    CLOUD_HIT = "cloud_hit"  # retrieved from a peer cache in the cloud
    ORIGIN_FETCH = "origin_fetch"  # group miss
    # Cooperative path abandoned after exhausting the retry budget.
    CLOUD_TIMEOUT_ORIGIN_FALLBACK = "cloud_timeout_origin_fallback"
    # No live beacon point could be found for the document.
    BEACON_DOWN_ORIGIN_FALLBACK = "beacon_down_origin_fallback"
    # Cooperative work shed by the overload controller (saturated beacon):
    # served origin-direct without consulting the cloud.
    OVERLOAD_ORIGIN_FALLBACK = "overload_origin_fallback"
    # The ingress cache's service queue was full: the client was turned
    # away entirely (the last rung of graceful degradation).
    REJECTED = "rejected"


@dataclass(slots=True)
class RequestResult:
    """Outcome + client-perceived latency of one request."""

    outcome: RequestOutcome
    latency_ms: float
    served_by: int  # cache id, or the origin's node id


class CacheNode:
    """Requester-side protocol behaviour for one edge cache."""

    def __init__(self, cloud: "CacheCloud", cache: EdgeCache) -> None:
        self._cloud = cloud
        self.cache = cache

    @property
    def cache_id(self) -> int:
        """The wrapped cache's id."""
        return self.cache.cache_id

    @property
    def cloud(self) -> "CacheCloud":
        """The owning cloud (public handle for the strategy plane)."""
        return self._cloud

    # ------------------------------------------------------------------
    # Collaborative miss handling (paper §2.1)
    # ------------------------------------------------------------------
    def serve_miss(self, doc_id: int, now: float) -> RequestResult:
        """Consult the beacon point; retrieve from a peer or the origin."""
        cloud = self._cloud
        fabric = cloud.fabric
        cache = self.cache
        cache_id = cache.cache_id
        document = cloud.corpus[doc_id]
        size = document.size_bytes
        version = cloud.origin.version_of(doc_id)
        irh = cloud.doc_irh(doc_id)

        beacon_id = cloud.routable_beacon(doc_id)
        if beacon_id is None:
            cloud.beacon_unreachable += 1
            return self.origin_fallback(
                doc_id, size, now,
                RequestOutcome.BEACON_DOWN_ORIGIN_FALLBACK, 0.0,
            )
        beacon_role = cloud.beacon_roles[beacon_id]
        watch = cloud.watch
        overload = cloud.overload
        if overload is not None and overload.shed_lookup(beacon_id):
            # Graceful degradation, first rung: the beacon point is
            # saturated (queue depth over the high watermark), so the
            # cooperative lookup is shed and the miss served origin-direct.
            # Cheaper for the beacon than rejecting the lookup RPC leg by
            # leg, and the requester is still served.
            if watch is not None:
                watch.mark("overload_shed", now, "lookup", beacon_id, "overload.shed.lookup")
            return self.origin_fallback(
                doc_id, size, now,
                RequestOutcome.OVERLOAD_ORIGIN_FALLBACK, 0.0,
            )
        hops = cloud.doc_hops(doc_id)
        # Lookup RPC (possibly multi-hop for consistent hashing). The load
        # counter ticks on every attempt whose request legs arrive — the
        # beacon did its work even if its response then went missing.
        # The delivery callback is the beacon state's bound ``record_lookup``
        # with the IrH value threaded through the fabric — no per-request
        # closure allocation on the hot path.
        lookup = fabric.request_response(
            cache_id,
            beacon_id,
            hops,
            irh=irh,
            on_request_delivered=beacon_role.state.record_lookup,
        )
        if watch is not None:
            watch.leg(
                "beacon_lookup", now, now + lookup.latency, "beacon_lookup", hops + 1,
                beacon=beacon_id, hops=hops, ok=lookup.ok, attempts=lookup.attempts,
            )
        if not lookup.ok:
            self._cloud.fault_origin_fallbacks += 1
            return self.origin_fallback(
                doc_id, size, now,
                RequestOutcome.CLOUD_TIMEOUT_ORIGIN_FALLBACK, lookup.latency,
            )

        holder_id = beacon_role.answer_lookup(doc_id, cache_id, version)
        if (
            holder_id is not None
            and overload is not None
            and overload.shed_peer_fetch(holder_id)
        ):
            # Second rung: the directory knows a holder, but that holder is
            # itself saturated — fetch from the origin instead of piling a
            # peer transfer onto its queue. The lookup already succeeded,
            # so this counts as an ordinary group miss downstream.
            if watch is not None:
                watch.mark(
                    "overload_shed", now, "peer_fetch", holder_id,
                    "overload.shed.peer_fetch",
                )
            holder_id = None

        if holder_id is not None:
            fetch_start = now + lookup.latency
            transfer = fabric.send_document(
                holder_id,
                cache_id,
                size,
                TrafficCategory.PEER_TRANSFER,
                reliable=True,
            )
            if watch is not None:
                watch.leg(
                    "peer_fetch", fetch_start, fetch_start + transfer.latency,
                    "peer_fetch", transfer.attempts,
                    holder=holder_id, bytes=size, ok=transfer.ok,
                    attempts=transfer.attempts,
                )
            if not transfer.ok:
                # The peer copy never arrived; degrade to the origin.
                cloud.fault_origin_fallbacks += 1
                return self.origin_fallback(
                    doc_id, size, now,
                    RequestOutcome.CLOUD_TIMEOUT_ORIGIN_FALLBACK,
                    lookup.latency + transfer.latency,
                )
            # Serving a peer refreshes the holder's recency for the document.
            cloud.caches[holder_id].storage.access(doc_id, now)
            cache.stats.cloud_hits += 1
            outcome = RequestOutcome.CLOUD_HIT
            served_by = holder_id
            transfer_latency = transfer.latency
        else:
            cache.stats.origin_fetches += 1
            outcome = RequestOutcome.ORIGIN_FETCH
            route = cloud.strategy.on_lookup(self, doc_id, beacon_id)
            if route is FetchRoute.VIA_BEACON:
                # The strategy wants an on-path storage point (beacon-point
                # placement, or the LCE/LCD/ProbCache chain), so the fetch
                # is routed through the beacon.
                return self._beacon_routed_fetch(
                    doc_id, size, version, now, beacon_id, lookup.latency
                )
            cloud.origin.serve_fetch(doc_id)
            fetch_start = now + lookup.latency
            transfer_latency = fabric.send_forced_document(
                cloud.origin.node_id,
                cache_id,
                size,
                TrafficCategory.ORIGIN_FETCH,
            )
            if watch is not None:
                watch.leg(
                    "origin_fetch", fetch_start, fetch_start + transfer_latency,
                    "origin_fetch", 1, bytes=size,
                )
            served_by = cloud.origin.node_id

        # Admission decision at the requester, delegated to the strategy.
        cloud.strategy.on_retrieval(
            self,
            Retrieval(
                doc_id=doc_id,
                size_bytes=size,
                version=version,
                now=now,
                beacon_id=beacon_id,
                hop=ReplyHop.REQUESTER,
                served_from=(
                    ServedFrom.PEER
                    if outcome is RequestOutcome.CLOUD_HIT
                    else ServedFrom.ORIGIN
                ),
                decision_time=now + lookup.latency + transfer_latency,
            ),
        )
        latency_ms = MINUTES_TO_MS * (lookup.latency + transfer_latency)
        return RequestResult(outcome, latency_ms, served_by)

    def _beacon_routed_fetch(
        self,
        doc_id: int,
        size: int,
        version: int,
        now: float,
        beacon_id: int,
        lookup_latency: float,
    ) -> RequestResult:
        """Beacon-routed origin fetch (origin → beacon → requester).

        Taken when the strategy's ``on_lookup`` answers ``VIA_BEACON``: the
        beacon hop gets an on-path admission decision between the two legs,
        and the requester gets its own at the end.
        """
        cloud = self._cloud
        fabric = cloud.fabric
        cache_id = self.cache.cache_id
        cloud.origin.serve_fetch(doc_id)
        watch = cloud.watch
        leg_start = now + lookup_latency
        leg_one = fabric.send_document(
            cloud.origin.node_id,
            beacon_id,
            size,
            TrafficCategory.ORIGIN_FETCH,
            reliable=True,
        )
        if watch is not None:
            watch.leg(
                "origin_fetch", leg_start, leg_start + leg_one.latency,
                "origin_fetch", leg_one.attempts,
                via_beacon=beacon_id, bytes=size, ok=leg_one.ok,
                attempts=leg_one.attempts,
            )
        if not leg_one.ok:
            cloud.fault_origin_fallbacks += 1
            return self.origin_fallback(
                doc_id, size, now,
                RequestOutcome.CLOUD_TIMEOUT_ORIGIN_FALLBACK,
                lookup_latency + leg_one.latency,
            )
        forward_start = leg_start + leg_one.latency
        # On-path admission at the beacon hop, between the two legs.
        cloud.strategy.on_retrieval(
            cloud.nodes[beacon_id],
            Retrieval(
                doc_id=doc_id,
                size_bytes=size,
                version=version,
                now=now,
                beacon_id=beacon_id,
                hop=ReplyHop.INTERMEDIATE,
                served_from=ServedFrom.ORIGIN_VIA_BEACON,
                decision_time=forward_start,
            ),
        )
        leg_two = fabric.send_document(
            beacon_id,
            cache_id,
            size,
            TrafficCategory.PEER_TRANSFER,
            reliable=True,
        )
        if watch is not None:
            # Second leg of the same origin retrieval: charged to the
            # origin-fetch phase, not peer_fetch — no peer served anything.
            watch.leg(
                "beacon_forward", forward_start, forward_start + leg_two.latency,
                "origin_fetch", leg_two.attempts,
                beacon=beacon_id, bytes=size, ok=leg_two.ok,
                attempts=leg_two.attempts,
            )
        if not leg_two.ok:
            cloud.fault_origin_fallbacks += 1
            return self.origin_fallback(
                doc_id, size, now,
                RequestOutcome.CLOUD_TIMEOUT_ORIGIN_FALLBACK,
                lookup_latency + leg_one.latency + leg_two.latency,
            )
        # Requester-side admission at the end of the routed fetch (the
        # beacon-point strategy declines here; the on-path family may store).
        cloud.strategy.on_retrieval(
            self,
            Retrieval(
                doc_id=doc_id,
                size_bytes=size,
                version=version,
                now=now,
                beacon_id=beacon_id,
                hop=ReplyHop.REQUESTER,
                served_from=ServedFrom.ORIGIN_VIA_BEACON,
                decision_time=forward_start + leg_two.latency,
            ),
        )
        latency_ms = MINUTES_TO_MS * (
            lookup_latency + leg_one.latency + leg_two.latency
        )
        return RequestResult(
            RequestOutcome.ORIGIN_FETCH, latency_ms, cloud.origin.node_id
        )

    # ------------------------------------------------------------------
    # Origin paths
    # ------------------------------------------------------------------
    def origin_fallback(
        self,
        doc_id: int,
        size: int,
        now: float,
        outcome: RequestOutcome,
        accrued_latency: float,
    ) -> RequestResult:
        """Serve from the origin after the cooperative path failed.

        The copy is stored ad hoc but *not* registered with the beacon —
        the directory was unreachable, which is exactly why we are here.
        Later lookups repair any resulting staleness.
        """
        cloud = self._cloud
        cache = self.cache
        cache.stats.origin_fetches += 1
        cloud.origin.serve_fetch(doc_id)
        fetch_start = now + accrued_latency
        transfer_latency = cloud.fabric.send_forced_document(
            cloud.origin.node_id,
            cache.cache_id,
            size,
            TrafficCategory.ORIGIN_FETCH,
        )
        watch = cloud.watch
        if watch is not None:
            watch.leg(
                "origin_fetch", fetch_start, fetch_start + transfer_latency,
                "origin_fetch", 1, bytes=size, fallback=True,
            )
        version = cloud.origin.version_of(doc_id)
        evicted = cache.admit(doc_id, size, version, now)
        if evicted is None:
            cache.decline()
        else:
            for evicted_doc in evicted:
                self.notify_eviction(evicted_doc)
        latency_ms = MINUTES_TO_MS * (accrued_latency + transfer_latency)
        return RequestResult(outcome, latency_ms, cloud.origin.node_id)

    def fetch_direct(self, doc_id: int, now: float) -> RequestResult:
        """No-cooperation baseline: every miss goes to the origin.

        Both directions of the client fetch are dispatched — a control-sized
        request out plus the (forced) document back — so the reported
        round-trip latency and the bytes on the meter describe the same
        exchange. The document leg is forced for the same reason origin
        fetches always are: the origin is the last line of service.
        """
        cloud = self._cloud
        fabric = cloud.fabric
        cache = self.cache
        size = cloud.origin.serve_fetch(doc_id)
        request = fabric.send_control(
            cache.cache_id, cloud.origin.node_id, reliable=True
        )
        if not request.ok:
            # The origin never heard the request: the client's wait
            # (timeouts + backoff, already in ``request.latency``) still
            # counts, and the fallback counter must tick exactly as it does
            # on every cooperative path. The document leg below is forced —
            # the origin is the last line of service — so the client is
            # still served.
            cloud.fault_origin_fallbacks += 1
        transfer_latency = fabric.send_forced_document(
            cloud.origin.node_id,
            cache.cache_id,
            size,
            TrafficCategory.ORIGIN_FETCH,
        )
        watch = cloud.watch
        if watch is not None:
            # Request leg(s) plus the forced document leg of the direct fetch.
            watch.leg(
                "origin_fetch", now, now + request.latency + transfer_latency,
                "origin_fetch", request.attempts + 1, bytes=size, direct=True,
            )
        cache.stats.origin_fetches += 1
        version = cloud.origin.version_of(doc_id)
        cache.admit(doc_id, size, version, now)  # ad hoc local store
        latency_ms = MINUTES_TO_MS * (request.latency + transfer_latency)
        return RequestResult(
            RequestOutcome.ORIGIN_FETCH, latency_ms, cloud.origin.node_id
        )

    # ------------------------------------------------------------------
    # Directory maintenance (registration + eviction notices)
    # ------------------------------------------------------------------
    def admit_and_register(
        self, doc_id: int, size: int, version: int, now: float, beacon_id: int
    ) -> None:
        """Store a copy locally and register it with ``beacon_id``.

        ``beacon_id`` is the document's beacon point as the retrieval that
        produced the copy resolved it (nothing re-assigns ranges between a
        lookup and the admission it leads to).
        """
        cloud = self._cloud
        cache = self.cache
        cache_id = cache.cache_id
        evicted = cache.admit(doc_id, size, version, now)
        if evicted is None:
            cache.decline()  # did not fit at all
            return
        irh = cloud.doc_irh(doc_id)
        beacon_role = cloud.beacon_roles[beacon_id]
        if cache_id == beacon_id:
            beacon_role.accept_registration(doc_id, irh, cache_id)
        elif not cloud.caches[beacon_id].alive:
            # Beacon unreachable: the copy stays unregistered and can only
            # serve local hits until a later registration succeeds.
            cloud.registrations_lost += 1
        else:
            delivery = cloud.fabric.send_control(
                cache_id, beacon_id, reliable=True
            )
            if delivery.ok:
                beacon_role.accept_registration(doc_id, irh, cache_id)
            else:
                cloud.registrations_lost += 1
        for evicted_doc in evicted:
            self.notify_eviction(evicted_doc)

    def notify_eviction(self, doc_id: int) -> None:
        """Tell the evicted document's beacon that this cache dropped it.

        Eviction notices are best-effort (no retransmission): a lost one
        leaves a stale directory entry that the next lookup's holder
        verification repairs. That lookup must therefore *do* the
        verification, so both lost branches un-vouch the entry
        (:meth:`BeaconRole.eviction_unannounced`).
        """
        cloud = self._cloud
        cache_id = self.cache.cache_id
        beacon_id = cloud.beacon_for_doc(doc_id)
        beacon_role = cloud.beacon_roles[beacon_id]
        if cache_id == beacon_id:
            beacon_role.accept_eviction(doc_id, cache_id)
            return
        if not cloud.caches[beacon_id].alive:
            cloud.eviction_notices_lost += 1
            beacon_role.eviction_unannounced(doc_id)
            return
        delivery = cloud.fabric.send_control(cache_id, beacon_id, reliable=False)
        if not delivery.ok:
            cloud.eviction_notices_lost += 1
            beacon_role.eviction_unannounced(doc_id)
            return
        beacon_role.accept_eviction(doc_id, cache_id)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def decide_store(
        self, policy: "PlacementPolicy", doc_id: int, now: float, beacon_id: int
    ) -> bool:
        """One store decision, from values read in place.

        Reads what :meth:`placement_context` would report and hands it to
        ``policy`` as plain arguments — no context object on the miss path.
        """
        live, local, mean, update, new, existing = self._placement_inputs(
            doc_id, now, beacon_id
        )
        return policy.decide(
            self.cache.cache_id == beacon_id,
            len(live), local, mean, update, new, existing,
        )

    def placement_context(
        self, doc_id: int, size: int, now: float, beacon_id: int
    ) -> PlacementContext:
        """The inputs of one store decision, as a report.

        Counts as a decision for the estimators and the work profile, like
        :meth:`decide_store`: the rate reads advance decay state.
        """
        live, local, mean, update, new, existing = self._placement_inputs(
            doc_id, now, beacon_id
        )
        return PlacementContext(
            cache_id=self.cache.cache_id,
            doc_id=doc_id,
            size_bytes=size,
            now=now,
            beacon_id=beacon_id,
            existing_holders=frozenset(live),
            local_access_rate=local,
            cache_mean_rate=mean,
            update_rate=update,
            expected_residence_new=new,
            min_residence_existing=existing,
        )

    def _placement_inputs(
        self, doc_id: int, now: float, beacon_id: int
    ) -> Tuple[AbstractSet[int], float, float, float, Optional[float], Optional[float]]:
        """(live holders other than this cache, local rate, mean rate,
        update rate, residence here, minimum residence at those holders)
        for one store decision. The holder set is read, never mutated: on
        a stamped entry it may be the directory's own."""
        cloud = self._cloud
        cache = self.cache
        caches = cloud.caches
        cache_id = cache.cache_id
        # Directory entries can outlive their caches (churn kills a holder
        # before its entries are repaired); the policy must only see live
        # replicas, in the holder count and the residence minimum alike
        # — phantom holders would deflate the DAI component.
        directory = cloud.beacons[beacon_id].directory
        entry = directory.entry(doc_id)
        stamp = directory.stamp_of(doc_id)
        live: AbstractSet[int]
        if stamp is not None and stamp[1] == cloud.holder_epoch[0]:
            # A stamp of the current holder-epoch says every listed holder
            # is alive (the rule ``BeaconRole.update_targets`` trusts).
            live = entry - {cache_id} if cache_id in entry else entry
        else:
            walked: Set[int] = set()
            for holder in entry:
                if holder != cache_id and caches[holder].alive:
                    walked.add(holder)
            live = walked
        # The least residence key among the live holders, walking the
        # cloud's residence order (ascending) and the holders in lockstep:
        # the first holder the order meets has it, and if the holders run
        # out first the least key folded from them is it. So the walk takes
        # min(order position of that holder, holders) steps — few on a long
        # entry, few on a short one. An uncontended holder keeps its copy
        # indefinitely and sorts first, so the minimum is finite only when
        # every holder is under contention.
        min_residence: Optional[float] = None
        if live:
            least = _ABOVE_EVERY_KEY
            for (key, holder), listed in zip(cloud.residence_order, live):
                if holder in live:
                    least = key
                    break
                listed_key = caches[listed].storage.residence_key
                if listed_key < least:
                    least = listed_key
            if least != UNCONTENDED:
                min_residence = least
        watch = cloud.watch
        if watch is not None:
            # One store decision, plus one unit per live holder the DAI
            # component counts.
            watch.placement(1 + len(live))
        # The three estimator reads happen for every decision and in this
        # order: ``rate()`` advances decay state, and a decay split
        # differently changes float bits downstream.
        frequencies = cache.frequencies
        return (
            live,
            frequencies.rate_of(doc_id, now),
            frequencies.mean_rate(now),
            cloud.update_rates.rate(doc_id, now),
            cache.storage.residence_mean,
            min_residence,
        )

    def __repr__(self) -> str:
        return f"CacheNode(cache={self.cache!r})"

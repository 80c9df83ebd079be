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
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.utility import PlacementContext
from repro.edgecache.cache import EdgeCache
from repro.network.bandwidth import TrafficCategory
from repro.strategies.base import FetchRoute, ReplyHop, Retrieval, ServedFrom

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.cloud import CacheCloud
    from repro.core.placement import PlacementPolicy
    from repro.observe.spans import Span

#: Simulated minutes -> reported milliseconds.
MINUTES_TO_MS = 60_000.0


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
        overload = cloud.overload
        if overload is not None and overload.shed_lookup(beacon_id):
            # Graceful degradation, first rung: the beacon point is
            # saturated (queue depth over the high watermark), so the
            # cooperative lookup is shed and the miss served origin-direct.
            # Cheaper for the beacon than rejecting the lookup RPC leg by
            # leg, and the requester is still served.
            tel_shed = cloud.telemetry
            if tel_shed is not None:
                span = tel_shed.begin_span(
                    "overload_shed", now, kind="lookup", node=beacon_id
                )
                if span is not None:
                    tel_shed.end_span(span, now)
                tel_shed.count("overload.shed.lookup")
            return self.origin_fallback(
                doc_id, size, now,
                RequestOutcome.OVERLOAD_ORIGIN_FALLBACK, 0.0,
            )
        hops = cloud.doc_hops(doc_id)
        # Lookup RPC (possibly multi-hop for consistent hashing). The load
        # counter ticks on every attempt whose request legs arrive — the
        # beacon did its work even if its response then went missing.
        tel = cloud.telemetry
        lookup_span: Optional["Span"] = None
        if tel is not None:
            lookup_span = tel.begin_span(
                "beacon_lookup", now, beacon=beacon_id, hops=hops
            )
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
        profile = cloud.profile
        if profile is not None:
            profile.charge("beacon_lookup", hops + 1)
        if tel is not None and lookup_span is not None:
            tel.end_span(
                lookup_span,
                now + lookup.latency,
                ok=lookup.ok,
                attempts=lookup.attempts,
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
            if tel is not None:
                span = tel.begin_span(
                    "overload_shed", now, kind="peer_fetch", node=holder_id
                )
                if span is not None:
                    tel.end_span(span, now)
                tel.count("overload.shed.peer_fetch")
            holder_id = None

        if holder_id is not None:
            fetch_start = now + lookup.latency
            fetch_span: Optional["Span"] = None
            if tel is not None:
                fetch_span = tel.begin_span(
                    "peer_fetch", fetch_start, holder=holder_id, bytes=size
                )
            transfer = fabric.send_document(
                holder_id,
                cache_id,
                size,
                TrafficCategory.PEER_TRANSFER,
                reliable=True,
            )
            if profile is not None:
                profile.charge("peer_fetch", transfer.attempts)
            if tel is not None and fetch_span is not None:
                tel.end_span(
                    fetch_span,
                    fetch_start + transfer.latency,
                    ok=transfer.ok,
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
            fetch_span = None
            if tel is not None:
                fetch_span = tel.begin_span(
                    "origin_fetch", fetch_start, bytes=size
                )
            transfer_latency = fabric.send_forced_document(
                cloud.origin.node_id,
                cache_id,
                size,
                TrafficCategory.ORIGIN_FETCH,
            )
            if profile is not None:
                profile.charge("origin_fetch")
            if tel is not None and fetch_span is not None:
                tel.end_span(fetch_span, fetch_start + transfer_latency)
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
        tel = cloud.telemetry
        leg_start = now + lookup_latency
        leg_span: Optional["Span"] = None
        if tel is not None:
            leg_span = tel.begin_span(
                "origin_fetch", leg_start, via_beacon=beacon_id, bytes=size
            )
        leg_one = fabric.send_document(
            cloud.origin.node_id,
            beacon_id,
            size,
            TrafficCategory.ORIGIN_FETCH,
            reliable=True,
        )
        profile = cloud.profile
        if profile is not None:
            profile.charge("origin_fetch", leg_one.attempts)
        if tel is not None and leg_span is not None:
            tel.end_span(
                leg_span,
                leg_start + leg_one.latency,
                ok=leg_one.ok,
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
        forward_span: Optional["Span"] = None
        if tel is not None:
            forward_span = tel.begin_span(
                "beacon_forward", forward_start, beacon=beacon_id, bytes=size
            )
        leg_two = fabric.send_document(
            beacon_id,
            cache_id,
            size,
            TrafficCategory.PEER_TRANSFER,
            reliable=True,
        )
        if profile is not None:
            # Second leg of the same origin retrieval: charged to the
            # origin-fetch phase, not peer_fetch — no peer served anything.
            profile.charge("origin_fetch", leg_two.attempts)
        if tel is not None and forward_span is not None:
            tel.end_span(
                forward_span,
                forward_start + leg_two.latency,
                ok=leg_two.ok,
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
        tel = cloud.telemetry
        fetch_start = now + accrued_latency
        fetch_span: Optional["Span"] = None
        if tel is not None:
            fetch_span = tel.begin_span(
                "origin_fetch", fetch_start, bytes=size, fallback=True
            )
        transfer_latency = cloud.fabric.send_forced_document(
            cloud.origin.node_id,
            cache.cache_id,
            size,
            TrafficCategory.ORIGIN_FETCH,
        )
        profile = cloud.profile
        if profile is not None:
            profile.charge("origin_fetch")
        if tel is not None and fetch_span is not None:
            tel.end_span(fetch_span, fetch_start + transfer_latency)
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
        tel = cloud.telemetry
        fetch_span: Optional["Span"] = None
        if tel is not None:
            fetch_span = tel.begin_span(
                "origin_fetch", now, bytes=size, direct=True
            )
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
        profile = cloud.profile
        if profile is not None:
            # Request leg(s) plus the forced document leg of the direct fetch.
            profile.charge("origin_fetch", request.attempts + 1)
        if tel is not None and fetch_span is not None:
            tel.end_span(fetch_span, now + request.latency + transfer_latency)
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
        copies, local, mean, update, new, existing = self._placement_inputs(
            doc_id, now, beacon_id
        )
        return policy.decide(
            self.cache.cache_id == beacon_id,
            len(copies), local, mean, update, new, existing,
        )

    def placement_context(
        self, doc_id: int, size: int, now: float, beacon_id: int
    ) -> PlacementContext:
        """The inputs of one store decision, as a report.

        Counts as a decision for the estimators and the work profile, like
        :meth:`decide_store`: the rate reads advance decay state.
        """
        copies, local, mean, update, new, existing = self._placement_inputs(
            doc_id, now, beacon_id
        )
        return PlacementContext(
            cache_id=self.cache.cache_id,
            doc_id=doc_id,
            size_bytes=size,
            now=now,
            beacon_id=beacon_id,
            existing_holders=frozenset(copies),
            local_access_rate=local,
            cache_mean_rate=mean,
            update_rate=update,
            expected_residence_new=new,
            min_residence_existing=existing,
        )

    def _placement_inputs(
        self, doc_id: int, now: float, beacon_id: int
    ) -> Tuple[List[int], float, float, float, Optional[float], Optional[float]]:
        """(live holders, local rate, mean rate, update rate, residence here,
        minimum residence at the holders) for one store decision."""
        cloud = self._cloud
        cache = self.cache
        caches = cloud.caches
        cache_id = cache.cache_id
        # Directory entries can outlive their caches (churn kills a holder
        # before its entries are repaired); the policy must only see live
        # replicas, in the holder count and the residence minimum alike
        # — phantom holders would deflate the DAI component.
        live = []
        # An existing holder with no contention keeps its copy indefinitely;
        # only when every holder is under contention is the minimum finite.
        min_residence: Optional[float] = None
        uncontended = False
        # The entry is read in place, and each holder's estimate is an
        # attribute read: this loop runs once per listed holder per store
        # decision, on the miss path.
        for holder in cloud.beacons[beacon_id].directory.entry(doc_id):
            holder_cache = caches[holder]
            if holder == cache_id or not holder_cache.alive:
                continue
            live.append(holder)
            residence = holder_cache.storage.residence_mean
            if residence is None:
                uncontended = True
            elif min_residence is None or residence < min_residence:
                min_residence = residence
        if uncontended:
            min_residence = None
        profile = cloud.profile
        if profile is not None:
            # One store decision, whose work scales with the live holders
            # whose residence the DAI component examined.
            profile.charge("placement", 1 + len(live))
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

"""Server-side protocol roles: the beacon point and the origin facade.

The cache-cloud protocols have three message-speaking parties. The
requester side lives in :class:`repro.core.node.CacheNode`; this module
holds the other two:

* :class:`BeaconRole` — the per-document directory authority (paper §2.2):
  answers lookups (trusting a stamped directory entry, else verifying
  holders and lazily repairing the directory),
  accepts holder registrations and eviction notices, ticks the IrH load
  counters that drive sub-range determination, and fans updates out to the
  document's holders.
* :class:`OriginRole` — the cloud-facing facade over the shared
  :class:`~repro.network.origin.OriginServer`: serves group-miss fetches
  and, when no live beacon point exists (or cooperation is off), refreshes
  every holding cache individually.

All messaging goes through the cloud's single
:class:`~repro.core.fabric.MessageFabric`, so loss/retry behaviour and byte
accounting are fabric properties, not role code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection, List, Optional

from repro.core.beacon import BeaconState
from repro.edgecache.cache import apply_to_holders
from repro.network.bandwidth import TrafficCategory
from repro.network.origin import OriginServer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.cloud import CacheCloud


def push_to_holders(
    cloud: "CacheCloud",
    src: int,
    holders: List[int],
    doc_id: int,
    version: int,
    size: int,
    start: float,
    *,
    from_beacon: bool,
) -> int:
    """The holder legs of one update: choose targets, send, then apply.

    ``src`` holds the fresh body from ``start`` on and pushes it reliably
    to each of ``holders`` (ascending ids); returns how many now store
    ``version``. The one delivery body behind the star fan-out
    (``from_beacon``: ``UPDATE_FANOUT`` legs that a saturated holder's
    overload model may defer, charged to the work profile) and the origin's
    holder-by-holder refresh (``UPDATE_SERVER_TO_BEACON`` legs, none of
    those). A holder that is ``src`` itself needs no leg. A deferred or
    lost leg leaves its holder stale — one contract for both: the holder
    serves that copy until a later update, or anti-entropy, refreshes it.

    All legs leave at ``start``, so they go out as one
    :meth:`~repro.core.fabric.MessageFabric.send_fanout` burst, the
    deferrals asked first and the copies refreshed afterwards. That equals
    asking, sending and applying holder by holder: a leg touches only its
    destination's queue, a deferral reads only its holder's, and
    applying an update draws no randomness and sends nothing (DESIGN.md
    §3.1). The legs are reported after the burst, in holder order, exactly
    as the per-leg loop reported them, and the delivered holders refreshed
    in one :func:`~repro.edgecache.cache.apply_to_holders` call.
    """
    fabric = cloud.fabric
    caches = cloud.caches
    own_copy = src in holders
    targets = [h for h in holders if h != src] if own_copy else holders
    deferred: Collection[int] = ()
    overload = cloud.overload if from_beacon else None
    if overload is not None:
        deferred = {h for h in targets if overload.defer_fanout(h)}
        if deferred:
            targets = [h for h in targets if h not in deferred]
    if from_beacon:
        category, span_name = TrafficCategory.UPDATE_FANOUT, "fanout_leg"
    else:
        category, span_name = TrafficCategory.UPDATE_SERVER_TO_BEACON, "origin_refresh"
    phase: Optional[str] = span_name if from_beacon else None  # origin refreshes: no phase
    pushes = fabric.send_fanout(src, targets, size, category)

    watch = cloud.watch
    if watch is not None:
        landed = iter(pushes)
        for holder in holders:
            if holder == src:
                continue
            if holder in deferred:
                watch.mark(
                    "overload_defer", start, "fanout_leg", holder, "overload.deferred.fanout"
                )
                continue
            push = next(landed)
            watch.leg(
                span_name, start, start + push.latency, phase, push.attempts,
                holder=holder, bytes=size, ok=push.ok, attempts=push.attempts,
            )

    if fabric.fast_path:
        # Every leg landed, and with no service model none was deferred.
        return apply_to_holders(caches, holders, doc_id, version)
    delivered = [src] if own_copy else []
    for holder, push in zip(targets, pushes):
        if push.ok:
            delivered.append(holder)
        else:
            cloud.update_pushes_lost += 1
    return apply_to_holders(caches, delivered, doc_id, version)


class BeaconRole:
    """Beacon-point protocol behaviour for one cache.

    Wraps the cache's :class:`~repro.core.beacon.BeaconState` (directory +
    load counters, which stay a plain data object for tests and the audit
    layer) with the message protocols the role speaks.
    """

    def __init__(self, cloud: "CacheCloud", state: BeaconState) -> None:
        self._cloud = cloud
        self.state = state

    @property
    def beacon_id(self) -> int:
        """The hosting cache's id."""
        return self.state.cache_id

    @property
    def cloud(self) -> "CacheCloud":
        """The owning cloud (public handle for the strategy plane)."""
        return self._cloud

    # ------------------------------------------------------------------
    # Lookup answering
    # ------------------------------------------------------------------
    def answer_lookup(
        self, doc_id: int, requester: int, version: int
    ) -> Optional[int]:
        """Choose a live, fresh holder; repair stale directory entries.

        Preference order: nearest holder by transport latency (all ties
        break toward the lowest cache id for determinism).

        An entry whose stamp is current (see :mod:`repro.core.directory`)
        is trusted as it stands: the walk would verify every holder and
        repair none. Any other entry is walked holder by holder, and
        stamped once the walk has left only verified holders in it.
        """
        cloud = self._cloud
        directory = self.state.directory
        watch = cloud.watch
        epoch = cloud.holder_epoch[0]
        live: Collection[int]
        if directory.stamp_of(doc_id) == (version, epoch):
            if watch is not None:
                watch.walk(doc_id, 0)
            entry = directory.entry(doc_id)
            live = entry - {requester} if requester in entry else entry
        else:
            caches = cloud.caches
            candidates = directory.holders(doc_id)
            candidates.discard(requester)
            if watch is not None:
                # The walk below visits every candidate exactly once: the
                # O(holders) verification cost, charged before the loop so
                # the recorded length is independent of how many entries
                # the loop then repairs.
                watch.walk(doc_id, len(candidates))
            verified: List[int] = []
            for holder in sorted(candidates):
                holder_cache = caches[holder]
                # Freshness check inlined from ``EdgeCache.holds_fresh``:
                # the verification loop runs for every holder it walks.
                if holder_cache.alive and holder_cache.storage.versions[doc_id] >= version:
                    verified.append(holder)
                else:
                    # Directory entry out of date (failure or stale replica).
                    directory.remove_holder(doc_id, holder)
                    cloud.directory_repairs += 1
            # The walk skips the requester, so an entry that (still) lists
            # it has one unverified holder and cannot be stamped.
            if verified and requester not in directory.entry(doc_id):
                directory.stamp(doc_id, version, epoch)
            live = verified
        if not live:
            return None
        if cloud.transport.topology is None:
            return min(live)
        latency = cloud.transport.latencies_to(requester)
        return min(live, key=lambda h: (latency[h], h))

    # ------------------------------------------------------------------
    # Directory bookkeeping (invoked by delivered protocol messages)
    # ------------------------------------------------------------------
    def accept_registration(self, doc_id: int, irh: int, holder: int) -> None:
        """Record ``holder`` as holding ``doc_id``.

        The entry keeps its stamp when the one new copy checks out against
        it — the common case, a requester registering what it just fetched.
        """
        directory = self.state.directory
        stamp = directory.stamp_of(doc_id)
        verified = False
        if stamp is not None:
            cache = self._cloud.caches[holder]
            verified = cache.alive and cache.storage.versions[doc_id] >= stamp[0]
        directory.add_holder(doc_id, irh, holder, keep_stamp=verified)

    def accept_eviction(self, doc_id: int, holder: int) -> None:
        """Remove ``holder`` from the document's holder set."""
        self.state.directory.remove_holder(doc_id, holder)

    def eviction_unannounced(self, doc_id: int) -> None:
        """A holder dropped its copy and the notice never got here.

        Simulator bookkeeping, not a message: the beacon point learns
        nothing and its entry stays as stale as the protocol leaves it,
        but the entry is no longer vouched for, so the next lookup walks
        (and repairs) it instead of trusting the stamp.
        """
        self.state.directory.unstamp(doc_id)

    # ------------------------------------------------------------------
    # Update targets (shared by every propagation scheme)
    # ------------------------------------------------------------------
    def update_targets(self, doc_id: int) -> List[int]:
        """Listed holders that are alive and store a copy, in id order.

        These are the caches an update must reach, whatever the scheme
        that carries it (star fan-out or CUP tree).
        A stamp of the current holder-epoch already says every listed
        holder qualifies, whichever version it was set at.
        """
        cloud = self._cloud
        directory = self.state.directory
        listed = sorted(directory.entry(doc_id))
        stamp = directory.stamp_of(doc_id)
        if stamp is not None and stamp[1] == cloud.holder_epoch[0]:
            return listed
        caches = cloud.caches
        return [
            h
            for h in listed
            if caches[h].alive and doc_id in caches[h].storage
        ]

    def note_refreshed(self, doc_id: int, version: int, refreshed: int) -> None:
        """Stamp the entry at ``version`` if an update reached all of it.

        ``refreshed`` counts the :meth:`update_targets` that applied the
        update; when that is every listed holder, each is alive with a copy
        at ``version`` and the next lookup need not walk them to find out.
        """
        directory = self.state.directory
        if refreshed and refreshed == len(directory.entry(doc_id)):
            directory.stamp(doc_id, version, self._cloud.holder_epoch[0])

    # ------------------------------------------------------------------
    # Cooperative update propagation (paper §2.2)
    # ------------------------------------------------------------------
    def receive_update(
        self, doc_id: int, version: int, size: int, now: float, holders: List[int]
    ) -> Optional[float]:
        """The origin's one message to this beacon point: notice or body.

        With no holder to refresh a bare invalidation notice suffices;
        otherwise the server→beacon transfer carries the fresh body. Every
        propagation scheme rooted at the beacon starts here, and so does
        each cloud's share of a federation's update: the origin sends one
        such message per cloud, whether or not the cloud holds a copy. The
        only ``UPDATE_SERVER_TO_BEACON`` sends are this body and the
        origin's per-holder refresh (:func:`push_to_holders`). Returns the
        body's arrival time — when the holder legs may start — or ``None``
        when there is nothing to fan out: nobody holds the document, or the
        body was lost, which leaves *every* holder stale (counted in
        ``update_pushes_lost``) until a later update or a repair reaches it.
        """
        cloud = self._cloud
        fabric = cloud.fabric
        beacon_id = self.beacon_id
        irh = cloud.doc_irh(doc_id)
        cloud.origin.note_update_message(doc_id)
        origin_id = cloud.origin.node_id
        watch = cloud.watch
        if not holders:
            notice = fabric.send_control(origin_id, beacon_id, reliable=True)
            if watch is not None:
                watch.leg(
                    "update_notice", now, now + notice.latency,
                    beacon=beacon_id, ok=notice.ok,
                )
            if notice.ok:
                self.state.record_update(irh)
            return None
        body = fabric.send_document(
            origin_id,
            beacon_id,
            size,
            TrafficCategory.UPDATE_SERVER_TO_BEACON,
            reliable=True,
        )
        if watch is not None:
            watch.leg(
                "server_to_beacon", now, now + body.latency,
                beacon=beacon_id, bytes=size, ok=body.ok, attempts=body.attempts,
            )
        if not body.ok:
            cloud.update_pushes_lost += len(holders)
            return None
        self.state.record_update(irh)
        return now + body.latency

    def propagate_update(
        self, doc_id: int, version: int, size: int, now: float
    ) -> int:
        """One server→beacon transfer, fanned out in-cloud to holders.

        This star fan-out is the default ``on_update`` of every strategy in
        :mod:`repro.strategies`;
        :class:`~repro.strategies.cup.CUPTreeStrategy` replaces it with an
        interest-tree push rooted at the same beacon.

        Returns the number of holders refreshed, and stamps the entry when
        that is all of it. A lost server→beacon body leaves *every* holder
        stale; a lost fan-out push leaves that one holder stale. Either
        holder serves its stale copy (counted in ``stale_serves``) until a
        later update or anti-entropy refreshes it.
        """
        holders = self.update_targets(doc_id)
        arrival = self.receive_update(doc_id, version, size, now, holders)
        if arrival is None:
            return 0
        refreshed = push_to_holders(
            self._cloud, self.beacon_id, holders, doc_id, version, size, arrival,
            from_beacon=True,
        )
        self.note_refreshed(doc_id, version, refreshed)
        return refreshed

    def __repr__(self) -> str:
        return f"BeaconRole(state={self.state!r})"


class OriginRole:
    """Cloud-facing facade over the shared origin server.

    The underlying :class:`OriginServer` stays a pure version/counter model
    (it may be shared by many clouds in an edge network); this facade binds
    it to *one* cloud's fabric for the message protocols it participates in.
    """

    def __init__(self, cloud: "CacheCloud", server: OriginServer) -> None:
        self._cloud = cloud
        self.server = server

    @property
    def node_id(self) -> int:
        """The origin's node id in the topology."""
        return self.server.node_id

    # ------------------------------------------------------------------
    # Degraded update path (no live beacon, or cooperation off)
    # ------------------------------------------------------------------
    def refresh_holders(
        self, doc_id: int, version: int, size: int, now: float
    ) -> int:
        """Refresh every holding cache individually from the origin.

        Serves both the no-cooperation baseline and the degraded update
        path when no live beacon exists. Each refresh is a reliable
        dispatch; a holder whose refresh is lost stays stale (its serves
        are counted in ``stale_serves``).
        """
        cloud = self._cloud
        holders = [
            cache.cache_id
            for cache in cloud.caches
            if cache.alive and cache.holds(doc_id)
        ]
        for _ in holders:
            self.server.note_update_message(doc_id)
        return push_to_holders(
            cloud, self.node_id, holders, doc_id, version, size, now,
            from_beacon=False,
        )

    def __repr__(self) -> str:
        return f"OriginRole(server={self.server!r})"

"""Failure resilience: lazy directory replication and beacon failover.

The paper (§2.3): "The dynamic hashing mechanism can be extended to provide
resilience to failures of individual beacon points by lazily replicating the
lookup information" — details omitted for space. We implement the natural
design:

* Every beacon point has a **buddy** — its successor in ring order. Once per
  sub-range cycle the beacon's directory snapshot is shipped to the buddy
  (*lazy*: mutations between syncs are not replicated).
* On a beacon-point failure, the ring merges the failed member's sub-range
  into a neighbor (:meth:`BeaconRing.remove_member`), and that absorber
  installs the buddy replica — possibly one cycle stale. Entries naming the
  failed cache as a holder are scrubbed (its disk contents died with it).
* On recovery the node rejoins its ring at its original position with half
  of its old absorber's range, pulling the live directory entries for the
  range it takes over.

Staleness is visible, not hidden: lookups that consult a stale replica may
return holders that no longer hold the document; the cloud's request path
verifies holders and repairs the directory, and the manager counts those
repairs so experiments can quantify the cost of laziness.

Membership
----------
The manager is the one record of who is in a ring and why the others are
out: every cache is a *member* (alive, listed in exactly one ring), or out
as *crashed* (:meth:`fail_cache`; back through :meth:`recover_cache`) or
*retired* (:meth:`retire_cache`, the elastic scale-in; back through
:meth:`instantiate_cache`). Both departures run one body behind one guard
(:meth:`can_leave`), both joins run one body; DESIGN.md §6 has the table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.core.directory import DIRECTORY_ENTRY_BYTES
from repro.core.ring import BeaconRing
from repro.network.bandwidth import TrafficCategory

if TYPE_CHECKING:
    from repro.core.cloud import CacheCloud

Entry = Tuple[int, int, Set[int]]

#: Why a cache is out of its ring.
CRASHED = "crashed"
RETIRED = "retired"


class FailureResilienceManager:
    """Ring membership, buddy replication and failover for a dynamic cloud.

    Operates on the cloud's rings/beacons through a narrow surface so it can
    be unit-tested with fakes. ``cloud`` must expose ``assigner`` (a
    :class:`~repro.core.hashing.DynamicHashAssigner`), ``beacons``,
    ``caches``, ``fabric`` (replica shipments ride the system plane of the
    :class:`~repro.core.fabric.MessageFabric`) and ``hand_over``.
    """

    def __init__(self, cloud: "CacheCloud") -> None:
        self._cloud = cloud
        #: cache_id -> (buddy holding the replica, last synced snapshot).
        #: The holder matters: a replica physically lives at the buddy, so
        #: it dies with the buddy — overlapping failures can lose it.
        self._replicas: Dict[int, Tuple[int, List[Entry]]] = {}
        #: Home (ring, original position) of each cache, for reinstatement.
        self._home: Dict[int, Tuple[BeaconRing, int]] = {}
        for ring in cloud.assigner.rings:
            for position, member in enumerate(ring.members):
                self._home[member] = (ring, position)
        #: Caches currently out of their ring -> why (CRASHED or RETIRED).
        #: Everyone else is a member: alive and listed in its home ring.
        self._out: Dict[int, str] = {}
        self.syncs = 0
        self.failovers = 0
        #: Joins of either kind (crash recovery and elastic warm join).
        self.recoveries = 0
        #: Voluntary (elastic scale-in) leaves via :meth:`retire_cache`.
        self.retirements = 0
        self.stale_entries_installed = 0
        #: Replicas destroyed because the buddy holding them crashed.
        self.replicas_lost = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def crashed(self) -> List[int]:
        """Caches out after a crash (back through ``recover``), lowest id first."""
        return sorted(c for c, why in self._out.items() if why == CRASHED)

    def retired(self) -> List[int]:
        """Retired caches (the elastic controller's standbys), lowest id first."""
        return sorted(c for c, why in self._out.items() if why == RETIRED)

    def ring_of(self, cache_id: int) -> BeaconRing:
        """The cache's home ring (it rejoins no other)."""
        return self._home[cache_id][0]

    def can_leave(self, cache_id: int) -> bool:
        """Whether ``cache_id`` is a member its ring can lose.

        The one last-live-member guard: emptying a ring would leave its
        documents with no beacon point at all, so neither a crash, a
        retirement nor a scripted churn event may take the last one.
        """
        return cache_id not in self._out and len(self.ring_of(cache_id)) > 1

    def buddy_of(self, cache_id: int) -> Optional[int]:
        """The ring successor of ``cache_id`` (None in a 1-member ring)."""
        members = self.ring_of(cache_id).members
        if cache_id not in members:
            return None
        successor = members[(members.index(cache_id) + 1) % len(members)]
        return None if successor == cache_id else successor

    # ------------------------------------------------------------------
    # Lazy replication
    # ------------------------------------------------------------------
    def sync(self, now: float) -> None:
        """Ship each live beacon's directory snapshot to its buddy.

        Every shipment of one sweep happens at the same tick, so the legs
        batch into a single meter transaction on the fabric's fast path.
        """
        legs: List[Tuple[int, int, int]] = []
        for cache_id, beacon in self._cloud.beacons.items():
            if not self._cloud.caches[cache_id].alive:
                continue
            buddy = self.buddy_of(cache_id)
            if buddy is None:
                continue
            snapshot = beacon.directory.snapshot()
            self._replicas[cache_id] = (buddy, snapshot)
            legs.append(
                (cache_id, buddy, max(1, len(snapshot)) * DIRECTORY_ENTRY_BYTES)
            )
        self._cloud.fabric.send_system_batch(
            legs, TrafficCategory.DIRECTORY_MIGRATION
        )
        self.syncs += 1

    def replica_holders(self) -> Dict[int, int]:
        """Beacon -> the buddy physically holding its last synced replica."""
        return {owner: holder for owner, (holder, _) in self._replicas.items()}

    def drop_replicas(self) -> None:
        """Forget every synced replica (an experiment's no-replication arm)."""
        self._replicas.clear()

    # ------------------------------------------------------------------
    # Leaving a ring
    # ------------------------------------------------------------------
    def _depart(self, cache_id: int, why: str, now: float) -> Tuple[int, List[Entry]]:
        """Take ``cache_id`` out of its ring; the one departure body.

        Returns the absorbing beacon and the lookup entries it should
        install, scrubbed to live holders: the buddy replica (possibly one
        cycle stale) after a crash, the live directory on a retirement.
        """
        if not self.can_leave(cache_id):
            reason = self._out.get(cache_id, "the last live member of its ring")
            raise ValueError(f"cache {cache_id} cannot leave: it is {reason}")
        cloud = self._cloud
        cache = cloud.caches[cache_id]
        beacon = cloud.beacons[cache_id]
        if why == CRASHED:
            cache.fail(now)
        else:
            # Raises, before mutating, unless the node was drained first.
            cache.retire()
        self._out[cache_id] = why
        # Its stored copies are gone: scrub every live directory.
        for other_id, other in cloud.beacons.items():
            if other_id != cache_id:
                other.directory.drop_cache(cache_id)
        # Replicas physically held at the leaver go with it (a crash loses
        # them; after a retirement their live owners re-sync next cycle),
        # so the replica map never names a dead buddy.
        hosted = [o for o, (holder, _) in self._replicas.items() if holder == cache_id]
        for owner in hosted:
            del self._replicas[owner]
        absorber = self.ring_of(cache_id).remove_member(cache_id)
        _, source = self._replicas.pop(cache_id, (None, []))
        if why == CRASHED:
            self.replicas_lost += len(hosted)
        else:
            source = beacon.directory.snapshot()
        entries: List[Entry] = []
        for doc_id, irh, holders in source:
            live = {h for h in holders if cloud.caches[h].alive}
            if live:
                entries.append((doc_id, irh, live))
        # The leaver's own directory goes with it.
        beacon.directory = type(beacon.directory)()
        cloud.invalidate_assignment_cache()
        return absorber, entries

    def fail_cache(self, cache_id: int, now: float) -> int:
        """Crash ``cache_id``; returns the absorbing beacon's cache id.

        The absorber installs the buddy replica it already holds: nothing
        crosses the wire and nothing is counted as migrated.
        """
        absorber, entries = self._depart(cache_id, CRASHED, now)
        self._cloud.beacons[absorber].directory.ingest(entries)
        self.stale_entries_installed += len(entries)
        self.failovers += 1
        return absorber

    def retire_cache(self, cache_id: int, now: float) -> int:
        """Voluntarily remove a *drained* node; returns the absorber's id.

        The graceful counterpart of :meth:`fail_cache`, used by elastic
        scale-in. The node must already be empty (the elastic controller's
        drain protocol hands off or explicitly invalidates every resident
        copy and its holder registrations first); what remains here is the
        membership change and the *live* directory hand-over: the retiring
        beacon's sub-range merges into its ring successor, and its current
        directory — not a stale buddy replica — migrates there, so no
        lookup information is lost on a voluntary leave.
        """
        absorber, entries = self._depart(cache_id, RETIRED, now)
        self._cloud.hand_over(cache_id, absorber, entries)
        if self._cloud.overload is not None:
            self._cloud.overload.reset_node(cache_id)
        self.retirements += 1
        return absorber

    # ------------------------------------------------------------------
    # Joining a ring
    # ------------------------------------------------------------------
    def _join(self, cache_id: int, why: str) -> None:
        """Bring a cache that is out for ``why`` back into its home ring.

        The one join body (cold storage, empty service queue): the node
        re-enters at its original position with half of its successor's
        arc and pulls the directory entries for the range it now owns from
        the other members of its own ring (IrH values are ring-local: a
        document with the same IrH in a different ring belongs to that
        ring's beacons).
        """
        if self._out.get(cache_id) != why:
            raise ValueError(
                f"cache {cache_id} is {self._out.get(cache_id, 'a member')}, not {why}"
            )
        cloud = self._cloud
        cache = cloud.caches[cache_id]
        ring, position = self._home[cache_id]
        # Raises, before mutating, when no arc is wide enough to split.
        ring.add_member(
            cache_id, min(position, len(ring)), capability=cache.capability
        )
        del self._out[cache_id]
        cache.recover()
        if cloud.overload is not None:
            # The node's backlog died with its process: without this reset
            # the revived node would inherit a busy-until horizon (and
            # shedding state) frozen when it left and serve ghost backlog.
            cloud.overload.reset_node(cache_id)
        taken = ring.arc_of(cache_id)
        for other_id in ring.members:
            if other_id == cache_id:
                continue
            directory = cloud.beacons[other_id].directory
            entries: List[Entry] = []
            for span_lo, span_hi in taken.spans():
                entries.extend(directory.extract_range(span_lo, span_hi))
            cloud.hand_over(other_id, cache_id, entries)
        cloud.invalidate_assignment_cache()
        self.recoveries += 1

    def recover_cache(self, cache_id: int, now: float) -> None:
        """Bring a *crashed* node back into its home ring."""
        self._join(cache_id, CRASHED)

    def instantiate_cache(self, cache_id: int, now: float) -> None:
        """Warm-join a *retired* node (elastic scale-out)."""
        self._join(cache_id, RETIRED)

    def __repr__(self) -> str:
        return (
            f"FailureResilienceManager(syncs={self.syncs}, "
            f"failovers={self.failovers}, recoveries={self.recoveries})"
        )

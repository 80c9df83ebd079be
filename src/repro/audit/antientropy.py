"""Budgeted anti-entropy repair for faulty cache clouds.

Lost messages and churn leave a cloud *divergent*: holders with stale
copies (lost update fan-out), dangling directory entries (lost eviction
notices, dead holders), and orphaned copies (origin fallbacks stored
without a registration, lost registrations). The base protocols repair
an entry lazily, one lookup at a time, and a stale copy not at all: its
holder serves it until the document's next update happens to reach it.

:class:`AntiEntropyProcess` closes the loop CUP-style with a periodic,
*budgeted* background sweep. Each cycle:

1. Every live beacon point picks a bounded, cursor-rotated sample of the
   documents in its directory, refreshes their authoritative versions from
   the origin with one digest exchange, then exchanges version digests
   with each listed holder. Stale holders are proactively refreshed (the
   origin ships the new body, within a per-cycle byte budget) or, once the
   budget is spent, invalidated. Holders that are dead or no longer store
   the document are scrubbed from the directory; entries whose IrH value
   the beacon no longer owns are migrated to the current owner.
2. Every live cache walks a bounded, cursor-rotated sample of its resident
   documents and re-registers any copy its beacon point does not know
   about (orphan repair).

All repair traffic is charged under
:attr:`~repro.network.bandwidth.TrafficCategory.ANTI_ENTROPY`, and flows
through the cloud's fault injector when one is attached — repair messages
can themselves be lost, in which case the repair simply waits for a later
cycle.

Determinism: the process draws **no** random numbers. Iteration order is
sorted ids plus per-beacon cursors, so two runs with equal inputs perform
identical repairs, and an attached-but-idle process leaves a fault-free
run value-identical to one without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.faults.churn import INSTANTIATE, RECOVER
from repro.network.bandwidth import TrafficCategory
from repro.network.transport import CONTROL_MESSAGE_BYTES, TRANSFER_HEADER_BYTES
from repro.simulation.engine import Simulator
from repro.simulation.events import EventPriority
from repro.simulation.process import PeriodicProcess

#: Serialized size of one (doc_id, version) digest pair.
DIGEST_ENTRY_BYTES = 16


#: Directory sample size per beacon point per cycle.
MAX_DOCS_PER_BEACON = 32

#: Orphan-sweep sample size per cache per cycle.
MAX_DOCS_PER_CACHE = 32

#: Cloud-wide budget for proactive refresh bodies per cycle; once spent,
#: remaining stale holders are invalidated instead (cheap, but costs a
#: future miss).
MAX_REPAIR_BYTES_PER_CYCLE = 256 * 1024

#: Exhaustive sweeps :meth:`AntiEntropyProcess.quiesce` runs at most.
QUIESCE_CYCLES = 8


@dataclass
class AntiEntropyStats:
    """What the process has done so far."""

    cycles: int = 0
    digests_sent: int = 0
    messages_lost: int = 0
    stale_refreshed: int = 0
    stale_invalidated: int = 0
    dangling_scrubbed: int = 0
    orphans_registered: int = 0
    entries_migrated: int = 0
    refresh_bytes: int = 0

    @property
    def repairs(self) -> int:
        """Total divergence repaired across all repair kinds."""
        return (
            self.stale_refreshed
            + self.stale_invalidated
            + self.dangling_scrubbed
            + self.orphans_registered
            + self.entries_migrated
        )

    def as_dict(self) -> Dict[str, float]:
        """Flat summary for reports (``ae_`` namespace)."""
        return {
            "ae_cycles": float(self.cycles),
            "ae_digests_sent": float(self.digests_sent),
            "ae_messages_lost": float(self.messages_lost),
            "ae_stale_refreshed": float(self.stale_refreshed),
            "ae_stale_invalidated": float(self.stale_invalidated),
            "ae_dangling_scrubbed": float(self.dangling_scrubbed),
            "ae_orphans_registered": float(self.orphans_registered),
            "ae_entries_migrated": float(self.entries_migrated),
            "ae_repairs": float(self.repairs),
            "ae_refresh_bytes": float(self.refresh_bytes),
        }

    def __repr__(self) -> str:
        return (
            f"AntiEntropyStats(cycles={self.cycles}, repairs={self.repairs}, "
            f"lost={self.messages_lost})"
        )


class AntiEntropyProcess:
    """The background repair process of one cloud.

    Construct via :meth:`~repro.core.cloud.CacheCloud.attach_anti_entropy`,
    which wires the process into the cloud and (optionally) a simulator.
    """

    def __init__(self, cloud) -> None:
        self.cloud = cloud
        self.stats = AntiEntropyStats()
        #: Rotating sample cursors, keyed by beacon / cache id.
        self._dir_cursor: Dict[int, int] = {}
        self._storage_cursor: Dict[int, int] = {}
        self._process: Optional[PeriodicProcess] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def start(self, simulator: Simulator) -> None:
        """Arm the periodic sweep on ``simulator``, one per cloud cycle."""
        if self._process is not None:
            return
        self._process = PeriodicProcess(
            simulator,
            self.cloud.config.cycle_length,
            lambda now: self.run_cycle(now),
            priority=EventPriority.CONTROL,
            label="anti-entropy",
        )
        self._process.start()

    def stop(self) -> None:
        """Disarm the periodic sweep."""
        if self._process is not None:
            self._process.stop()
            self._process = None

    def on_churn_event(self, cloud, event, applied: bool, now: float) -> None:
        """Churn / scale hook: sweep right after a node joins its ring, so a
        rejoining node reconverges without waiting a period.

        A warm join (``instantiate``) is the same join as a crash recovery,
        so it gets the same repair-on-recovery sweep. A *scripted*
        ``instantiate`` is announced by the schedule and by the controller
        that executed it: hooked to both, the process sweeps twice, the
        second sweep continuing the sample rotation where the first stopped.
        """
        if applied and event.action in (RECOVER, INSTANTIATE):
            self.run_cycle(now)

    # ------------------------------------------------------------------
    # One sweep
    # ------------------------------------------------------------------
    def run_cycle(self, now: float, exhaustive: bool = False) -> int:
        """Run one repair sweep; returns the number of repairs performed.

        ``exhaustive=True`` ignores the sample and byte budgets — used to
        drive the cloud to convergence after a run (see :meth:`quiesce`).
        """
        cloud = self.cloud
        if not cloud.config.cooperation:
            return 0
        self.stats.cycles += 1
        budget = [float("inf") if exhaustive else float(MAX_REPAIR_BYTES_PER_CYCLE)]
        repaired = 0
        for beacon_id in sorted(cloud.beacons):
            if cloud.caches[beacon_id].alive:
                repaired += self._beacon_sweep(beacon_id, now, exhaustive, budget)
        for cache in cloud.caches:
            if cache.alive:
                repaired += self._orphan_sweep(cache, now, exhaustive)
        return repaired

    def quiesce(self, now: float) -> int:
        """Run exhaustive sweeps until one makes no repair; returns total.

        Repairs can chain (an orphan registered in one sweep may prove
        stale in the next), so convergence takes a few passes. Callers
        should detach any fault injector first — under message loss a
        sweep's repairs are best-effort and the loop may need all
        :data:`QUIESCE_CYCLES` passes.
        """
        total = 0
        for _ in range(QUIESCE_CYCLES):
            repaired = self.run_cycle(now, exhaustive=True)
            total += repaired
            if repaired == 0:
                break
        return total

    # ------------------------------------------------------------------
    # Beacon-side sweep: stale holders, dangling entries, misplaced entries
    # ------------------------------------------------------------------
    def _beacon_sweep(
        self, beacon_id: int, now: float, exhaustive: bool, budget: List[float]
    ) -> int:
        cloud = self.cloud
        beacon = cloud.beacons[beacon_id]
        docs = sorted(beacon.directory)
        if not docs:
            return 0
        sample = self._rotate(docs, self._dir_cursor, beacon_id,
                              MAX_DOCS_PER_BEACON, exhaustive)
        # One digest exchange with the origin covers the whole sample: the
        # beacon cannot trust its own version knowledge (the lost
        # server-to-beacon push is exactly the failure being repaired).
        digest_bytes = CONTROL_MESSAGE_BYTES + DIGEST_ENTRY_BYTES * len(sample)
        if not self._exchange(
            beacon_id, cloud.origin.node_id, CONTROL_MESSAGE_BYTES, digest_bytes
        ):
            return 0
        repaired = 0
        for doc_id in sample:
            if not beacon.directory.knows(doc_id):
                continue  # scrubbed earlier this sweep
            owner = cloud.beacon_for_doc(doc_id)
            if owner != beacon_id:
                repaired += self._migrate_entry(beacon_id, doc_id, owner)
                continue
            repaired += self._repair_holders(beacon_id, doc_id, now, budget)
        return repaired

    def _repair_holders(
        self, beacon_id: int, doc_id: int, now: float, budget: List[float]
    ) -> int:
        cloud = self.cloud
        beacon = cloud.beacons[beacon_id]
        version = cloud.origin.version_of(doc_id)
        size = cloud.corpus[doc_id].size_bytes
        repaired = 0
        for holder in sorted(beacon.directory.holders(doc_id)):
            holder_cache = cloud.caches[holder]
            if not holder_cache.alive:
                beacon.directory.remove_holder(doc_id, holder)
                self.stats.dangling_scrubbed += 1
                repaired += 1
                continue
            if holder != beacon_id:
                # Digest round-trip with the holder; either leg can be lost.
                self.stats.digests_sent += 1
                if not self._exchange(
                    beacon_id, holder, CONTROL_MESSAGE_BYTES,
                    CONTROL_MESSAGE_BYTES,
                ):
                    continue
            held = holder_cache.storage.version_of(doc_id)
            if held < 0:
                beacon.directory.remove_holder(doc_id, holder)
                self.stats.dangling_scrubbed += 1
                repaired += 1
            elif held < version:
                repaired += self._refresh_or_invalidate(
                    beacon_id, doc_id, holder, version, size, now, budget
                )
        return repaired

    def _refresh_or_invalidate(
        self,
        beacon_id: int,
        doc_id: int,
        holder: int,
        version: int,
        size: int,
        now: float,
        budget: List[float],
    ) -> int:
        cloud = self.cloud
        body = size + TRANSFER_HEADER_BYTES
        if budget[0] >= body:
            cloud.origin.serve_fetch(doc_id)
            if self._send(cloud.origin.node_id, holder, body):
                budget[0] -= body
                cloud.caches[holder].apply_update(doc_id, version)
                self.stats.stale_refreshed += 1
                self.stats.refresh_bytes += body
                return 1
            return 0
        # Budget spent: invalidate so the staleness window still closes.
        if holder != beacon_id and not self._send(beacon_id, holder, CONTROL_MESSAGE_BYTES):
            return 0
        cloud.caches[holder].drop(doc_id, now)
        cloud.beacons[beacon_id].directory.remove_holder(doc_id, holder)
        self.stats.stale_invalidated += 1
        return 1

    def _migrate_entry(self, beacon_id: int, doc_id: int, owner: int) -> int:
        cloud = self.cloud
        beacon = cloud.beacons[beacon_id]
        if not cloud.caches[owner].alive:
            return 0  # no live owner to migrate to; retry a later cycle
        from repro.core.directory import DIRECTORY_ENTRY_BYTES

        if owner != beacon_id and not self._send(
            beacon_id, owner, DIRECTORY_ENTRY_BYTES
        ):
            return 0
        holders = beacon.directory.holders(doc_id)
        irh = cloud.doc_irh(doc_id)
        for holder in holders:
            beacon.directory.remove_holder(doc_id, holder)
        cloud.beacons[owner].directory.ingest([(doc_id, irh, holders)])
        self.stats.entries_migrated += 1
        return 1

    # ------------------------------------------------------------------
    # Cache-side sweep: orphaned copies
    # ------------------------------------------------------------------
    def _orphan_sweep(self, cache, now: float, exhaustive: bool) -> int:
        cloud = self.cloud
        docs = sorted(cache.storage)
        if not docs:
            return 0
        sample = self._rotate(docs, self._storage_cursor, cache.cache_id,
                              MAX_DOCS_PER_CACHE, exhaustive)
        repaired = 0
        for doc_id in sample:
            beacon_id = cloud.beacon_for_doc(doc_id)
            if not cloud.caches[beacon_id].alive:
                continue
            directory = cloud.beacons[beacon_id].directory
            if cache.cache_id in directory.holders(doc_id):
                continue
            if cache.cache_id != beacon_id and not self._send(
                cache.cache_id, beacon_id, CONTROL_MESSAGE_BYTES
            ):
                continue
            directory.add_holder(doc_id, cloud.doc_irh(doc_id), cache.cache_id)
            self.stats.orphans_registered += 1
            repaired += 1
        return repaired

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _rotate(
        self,
        items: List[int],
        cursors: Dict[int, int],
        key: int,
        limit: int,
        exhaustive: bool,
    ) -> List[int]:
        """Bounded, cursor-rotated sample of ``items`` (deterministic)."""
        if exhaustive or len(items) <= limit:
            return items
        start = cursors.get(key, 0) % len(items)
        cursors[key] = (start + limit) % len(items)
        return [items[(start + k) % len(items)] for k in range(limit)]

    def _send(self, src: int, dst: int, num_bytes: int) -> bool:
        """One repair message; returns whether it arrived.

        Best-effort by design: anti-entropy is periodic, so a lost digest
        or push is simply retried (with fresh state) on a later sweep —
        retransmission would duplicate that work.
        """
        delivery = self.cloud.fabric.send(
            src, dst, num_bytes, TrafficCategory.ANTI_ENTROPY, reliable=False
        )
        if not delivery.ok:
            self.stats.messages_lost += 1
        return delivery.ok

    def _exchange(
        self, src: int, dst: int, forward_bytes: int, reverse_bytes: int
    ) -> bool:
        """A digest round-trip; returns whether both legs arrived.

        Rides the fabric's same-tick exchange so the pair charges one meter
        transaction on the fast path; under faults each leg is losable
        individually and counted like any other anti-entropy message.
        """
        forward_ok, reverse_ok = self.cloud.fabric.send_exchange(
            src, dst, forward_bytes, reverse_bytes, TrafficCategory.ANTI_ENTROPY
        )
        if not forward_ok or not reverse_ok:
            self.stats.messages_lost += 1
        return forward_ok and reverse_ok

    def __repr__(self) -> str:
        return f"AntiEntropyProcess(stats={self.stats!r})"

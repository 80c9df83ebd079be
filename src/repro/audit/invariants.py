"""Cloud-wide invariant auditing.

Nothing in the protocol layer can say whether a cloud is *globally*
consistent at a point in time: divergence introduced by lost messages and
churn (stale holders, dangling or orphaned directory state) is repaired
lazily, one lookup at a time. The :class:`InvariantAuditor` closes that gap
— it walks a :class:`~repro.core.cloud.CacheCloud` (or a whole
:class:`~repro.core.edgenetwork.EdgeCacheNetwork`) and reports every
violation of the invariants the design promises:

* **Directory ↔ storage agreement** — every directory holder actually
  stores the document (no dangling holders, none dead), every stored copy
  is registered at its beacon point (no orphans), and every entry lives at
  the beacon that currently owns the document's IrH value.
* **Ring partition** — per beacon ring, the member sub-ranges exactly
  partition ``[0, IntraGen)``: no IrH value owned twice, none unowned.
* **Version monotonicity** — no cache holds a version newer than the
  origin's; copies *older* than the origin are reported as stale (bounded
  staleness is tolerated by design, but must be visible and repairable).
* **Replica physicality** — buddy replicas live at live buddies, and dead
  caches hold no documents (their disks died with them).
* **Stamp soundness** — a directory entry whose stamp is current (origin
  version, cloud holder-epoch) lists only live holders with a copy at that
  version or newer: what lets ``answer_lookup`` skip its holder walk.
* **Version column** — the slots of a store's version column that name a
  version are exactly its resident documents (dead caches: none).
* **Residence order** — the cloud's residence order is sorted and holds
  each cache once, under its storage's ``residence_key``, which is the key
  its ``residence_mean`` gives: what lets a store decision take the least
  residence among a document's holders from the first of them the order
  meets.
* **Traffic-meter conservation** — bytes charged to the meter equal the
  bytes attempted through the transport (injector drops and duplicates
  included), so no traffic is charged twice or silently uncharged.

The auditor only reads state; repairs are the job of
:mod:`repro.audit.antientropy`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.hashing import DynamicHashAssigner
from repro.edgecache.storage import residence_key
from repro.network.bandwidth import TrafficCategory


class ViolationKind(enum.Enum):
    """What kind of invariant a finding violates."""

    #: Directory names a live holder that does not store the document.
    DANGLING_HOLDER = "dangling_holder"
    #: Directory names a holder that is dead.
    DEAD_HOLDER_LISTED = "dead_holder_listed"
    #: A live cache stores a copy its beacon point does not know about.
    ORPHAN_COPY = "orphan_copy"
    #: A stored copy is older than the origin's current version.
    STALE_COPY = "stale_copy"
    #: A directory entry lives at a beacon that does not own its IrH value.
    MISPLACED_ENTRY = "misplaced_entry"
    #: A ring's sub-ranges do not exactly partition ``[0, IntraGen)``.
    RING_COVERAGE = "ring_coverage"
    #: A stored copy is *newer* than the origin's version (impossible by
    #: construction; a hard correctness bug if ever seen).
    VERSION_AHEAD_OF_ORIGIN = "version_ahead_of_origin"
    #: A buddy replica is recorded at a dead holder.
    REPLICA_AT_DEAD_BUDDY = "replica_at_dead_buddy"
    #: A dead cache still reports resident documents.
    DEAD_CACHE_STORES = "dead_cache_stores"
    #: Meter bytes/messages disagree with the transport attempt ledger.
    METER_MISMATCH = "meter_mismatch"
    #: A directory entry carries a current stamp, yet one of its holders is
    #: dead or lacks a copy at the stamped version: a lookup would trust a
    #: holder list it should have verified (an event that invalidates the
    #: stamp was not propagated to it).
    UNSOUND_STAMP = "unsound_stamp"
    #: The cloud's residence order is out of order, or a cache's entry in
    #: it (or its storage's ``residence_key``) differs from the key its
    #: ``residence_mean`` gives: a store decision would weigh the wrong
    #: minimum residence among the holders.
    RESIDENCE_ORDER = "residence_order"
    #: A store's version column names a version for a document it does not
    #: hold, or none for one it does: a freshness check would misjudge it.
    VERSION_COLUMN = "version_column"


#: Kinds that represent *divergence* the anti-entropy process repairs, as
#: opposed to hard correctness violations that should never occur at all.
REPAIRABLE_KINDS = frozenset(
    {
        ViolationKind.DANGLING_HOLDER,
        ViolationKind.DEAD_HOLDER_LISTED,
        ViolationKind.ORPHAN_COPY,
        ViolationKind.STALE_COPY,
        ViolationKind.MISPLACED_ENTRY,
    }
)


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by the auditor."""

    kind: ViolationKind
    detail: str
    cache_id: Optional[int] = None
    doc_id: Optional[int] = None


@dataclass
class AuditReport:
    """Structured outcome of one audit pass."""

    violations: List[Violation] = field(default_factory=list)
    #: How much state the pass examined (for "the check was not vacuous").
    caches_checked: int = 0
    directory_entries_checked: int = 0
    resident_copies_checked: int = 0
    rings_checked: int = 0

    def add(self, kind: ViolationKind, detail: str, **where) -> None:
        """Record one violation."""
        self.violations.append(Violation(kind, detail, **where))

    def count(self, kind: ViolationKind) -> int:
        """Number of violations of one kind."""
        return sum(1 for v in self.violations if v.kind is kind)

    @property
    def stale_copies(self) -> int:
        """Stale-holder count (the staleness the paper's design tolerates)."""
        return self.count(ViolationKind.STALE_COPY)

    @property
    def repairable(self) -> int:
        """Divergence the anti-entropy process is expected to repair."""
        return sum(1 for v in self.violations if v.kind in REPAIRABLE_KINDS)

    @property
    def hard_violations(self) -> int:
        """Violations no amount of anti-entropy should ever produce."""
        return len(self.violations) - self.repairable

    @property
    def ok(self) -> bool:
        """Whether the audited state satisfies every invariant."""
        return not self.violations

    def counts_by_kind(self) -> Dict[str, int]:
        """``kind value -> count`` over all violations."""
        counts: Dict[str, int] = {}
        for violation in self.violations:
            key = violation.kind.value
            counts[key] = counts.get(key, 0) + 1
        return counts

    def summary(self) -> Dict[str, float]:
        """Flat summary for experiment results and fingerprints."""
        summary = {f"audit_{kind.value}": 0.0 for kind in ViolationKind}
        for key, count in self.counts_by_kind().items():
            summary[f"audit_{key}"] = float(count)
        summary["audit_violations"] = float(len(self.violations))
        summary["audit_repairable"] = float(self.repairable)
        summary["audit_hard"] = float(self.hard_violations)
        return summary

    def merge(self, other: "AuditReport") -> None:
        """Fold another report (e.g. a sibling cloud's) into this one."""
        self.violations.extend(other.violations)
        self.caches_checked += other.caches_checked
        self.directory_entries_checked += other.directory_entries_checked
        self.resident_copies_checked += other.resident_copies_checked
        self.rings_checked += other.rings_checked

    def render(self, limit: int = 20) -> str:
        """Human-readable report (first ``limit`` violations spelled out)."""
        lines = [
            f"audit: caches={self.caches_checked} "
            f"directory_entries={self.directory_entries_checked} "
            f"copies={self.resident_copies_checked} rings={self.rings_checked}"
        ]
        if self.ok:
            lines.append("audit: OK — every invariant holds")
            return "\n".join(lines)
        for kind, count in sorted(self.counts_by_kind().items()):
            lines.append(f"  {kind}: {count}")
        for violation in self.violations[:limit]:
            lines.append(f"  - [{violation.kind.value}] {violation.detail}")
        if len(self.violations) > limit:
            lines.append(f"  ... and {len(self.violations) - limit} more")
        return "\n".join(lines)


class InvariantAuditor:
    """Read-only checker of cloud-wide invariants."""

    def audit(self, cloud, check_meter: bool = True) -> AuditReport:
        """Audit one cloud; returns the structured report.

        ``check_meter=False`` skips the conservation check — required when
        the cloud's meter is shared with sibling transports (multi-cloud
        networks audit the shared meter once, at the network level).
        """
        report = AuditReport()
        self._check_rings(cloud, report)
        self._check_directories(cloud, report)
        self._check_storage(cloud, report)
        self._check_replicas(cloud, report)
        self._check_residence_order(cloud, report)
        if check_meter:
            self._check_meter(cloud, report)
        report.caches_checked = len(cloud.caches)
        return report

    def audit_network(self, network) -> AuditReport:
        """Audit every cloud of an edge network plus the shared meter."""
        report = AuditReport()
        for cloud in network.clouds:
            report.merge(self.audit(cloud, check_meter=False))
        messages = sum(t.messages_attempted for t in self._transports(network))
        attempted = sum(t.bytes_attempted for t in self._transports(network))
        self._conservation(
            network.meter, messages, attempted, report, scope="network"
        )
        return report

    @staticmethod
    def _transports(network):
        return [cloud.transport for cloud in network.clouds]

    # ------------------------------------------------------------------
    # Ring partition
    # ------------------------------------------------------------------
    def _check_rings(self, cloud, report: AuditReport) -> None:
        assigner = cloud.assigner
        if not isinstance(assigner, DynamicHashAssigner):
            return  # static/consistent schemes have no rings to partition
        for ring_index, ring in enumerate(assigner.rings):
            report.rings_checked += 1
            coverage = [0] * ring.intra_gen
            for member in ring.members:
                for lo, hi in ring.arc_of(member).spans():
                    for irh in range(lo, hi + 1):
                        coverage[irh] += 1
            gaps = sum(1 for c in coverage if c == 0)
            overlaps = sum(1 for c in coverage if c > 1)
            if gaps or overlaps:
                report.add(
                    ViolationKind.RING_COVERAGE,
                    f"ring {ring_index}: {gaps} unowned and {overlaps} "
                    f"multiply-owned IrH values in [0, {ring.intra_gen})",
                )

    # ------------------------------------------------------------------
    # Directory ↔ storage agreement
    # ------------------------------------------------------------------
    def _check_directories(self, cloud, report: AuditReport) -> None:
        if not cloud.config.cooperation:
            return  # isolated caches keep no directories by design
        for beacon_id, beacon in sorted(cloud.beacons.items()):
            for doc_id in sorted(beacon.directory):
                report.directory_entries_checked += 1
                owner = cloud.beacon_for_doc(doc_id)
                if owner != beacon_id:
                    report.add(
                        ViolationKind.MISPLACED_ENTRY,
                        f"doc {doc_id} registered at beacon {beacon_id}, "
                        f"owned by {owner}",
                        cache_id=beacon_id,
                        doc_id=doc_id,
                    )
                version = cloud.origin.version_of(doc_id)
                stamped = beacon.directory.stamp_of(doc_id) == (
                    version,
                    cloud.holder_epoch[0],
                )
                for holder in sorted(beacon.directory.holders(doc_id)):
                    holder_cache = cloud.caches[holder]
                    if stamped and not (
                        holder_cache.alive
                        and holder_cache.holds_fresh(doc_id, version)
                    ):
                        report.add(
                            ViolationKind.UNSOUND_STAMP,
                            f"doc {doc_id}: entry at beacon {beacon_id} is "
                            f"stamped current at version {version}, but "
                            f"holder {holder} is dead or has no such copy",
                            cache_id=holder,
                            doc_id=doc_id,
                        )
                    if not holder_cache.alive:
                        report.add(
                            ViolationKind.DEAD_HOLDER_LISTED,
                            f"doc {doc_id}: dead cache {holder} listed as "
                            f"holder at beacon {beacon_id}",
                            cache_id=holder,
                            doc_id=doc_id,
                        )
                    elif not holder_cache.holds(doc_id):
                        report.add(
                            ViolationKind.DANGLING_HOLDER,
                            f"doc {doc_id}: cache {holder} listed at beacon "
                            f"{beacon_id} but stores no copy",
                            cache_id=holder,
                            doc_id=doc_id,
                        )

    def _check_storage(self, cloud, report: AuditReport) -> None:
        cooperative = cloud.config.cooperation
        for cache in cloud.caches:
            storage = cache.storage
            resident = set(storage)
            slotted = {doc_id for doc_id, held in enumerate(storage.versions) if held >= 0}
            if slotted != resident:
                report.add(
                    ViolationKind.VERSION_COLUMN,
                    f"cache {cache.cache_id}: version slots of docs "
                    f"{sorted(slotted ^ resident)[:5]} disagree with its copies",
                    cache_id=cache.cache_id,
                )
            if not cache.alive:
                if len(cache.storage):
                    report.add(
                        ViolationKind.DEAD_CACHE_STORES,
                        f"dead cache {cache.cache_id} reports "
                        f"{len(cache.storage)} resident documents",
                        cache_id=cache.cache_id,
                    )
                continue
            for doc_id in sorted(cache.storage):
                report.resident_copies_checked += 1
                held = storage.version_of(doc_id)
                current = cloud.origin.version_of(doc_id)
                if held > current:
                    report.add(
                        ViolationKind.VERSION_AHEAD_OF_ORIGIN,
                        f"doc {doc_id}: cache {cache.cache_id} holds "
                        f"version {held}, origin at {current}",
                        cache_id=cache.cache_id,
                        doc_id=doc_id,
                    )
                elif held < current:
                    report.add(
                        ViolationKind.STALE_COPY,
                        f"doc {doc_id}: cache {cache.cache_id} holds "
                        f"version {held}, origin at {current}",
                        cache_id=cache.cache_id,
                        doc_id=doc_id,
                    )
                if cooperative:
                    beacon_id = cloud.beacon_for_doc(doc_id)
                    registered = cache.cache_id in cloud.beacons[
                        beacon_id
                    ].directory.holders(doc_id)
                    if not registered:
                        report.add(
                            ViolationKind.ORPHAN_COPY,
                            f"doc {doc_id}: copy at cache {cache.cache_id} "
                            f"unregistered at beacon {beacon_id}",
                            cache_id=cache.cache_id,
                            doc_id=doc_id,
                        )

    # ------------------------------------------------------------------
    # Replica physicality
    # ------------------------------------------------------------------
    def _check_replicas(self, cloud, report: AuditReport) -> None:
        manager = cloud.failure_manager
        if manager is None:
            return
        for owner, holder in sorted(manager.replica_holders().items()):
            if not cloud.caches[holder].alive:
                report.add(
                    ViolationKind.REPLICA_AT_DEAD_BUDDY,
                    f"replica of beacon {owner} recorded at dead buddy "
                    f"{holder}",
                    cache_id=holder,
                )

    # ------------------------------------------------------------------
    # Residence order
    # ------------------------------------------------------------------
    def _check_residence_order(self, cloud, report: AuditReport) -> None:
        order = cloud.residence_order
        if order != sorted(order):
            report.add(
                ViolationKind.RESIDENCE_ORDER,
                f"residence order of {len(order)} entries is not sorted",
            )
        keys = {cache_id: residence for residence, cache_id in order}
        if not len(keys) == len(order) == len(cloud.caches):
            report.add(
                ViolationKind.RESIDENCE_ORDER,
                f"residence order has {len(order)} entries for {len(keys)} "
                f"ids and {len(cloud.caches)} caches",
            )
        for cache in cloud.caches:
            storage = cache.storage
            key = residence_key(storage.residence_mean)
            if not keys.get(cache.cache_id) == storage.residence_key == key:
                report.add(
                    ViolationKind.RESIDENCE_ORDER,
                    f"cache {cache.cache_id}: residence order key "
                    f"{keys.get(cache.cache_id)}, storage key "
                    f"{storage.residence_key}, storage residence "
                    f"{storage.residence_mean}",
                    cache_id=cache.cache_id,
                )

    # ------------------------------------------------------------------
    # Traffic-meter conservation
    # ------------------------------------------------------------------
    def _check_meter(self, cloud, report: AuditReport) -> None:
        transport = cloud.transport
        self._conservation(
            transport.meter,
            transport.messages_attempted,
            transport.bytes_attempted,
            report,
            scope=f"cloud({len(cloud.caches)} caches)",
        )
        faults = cloud.faults
        if faults is not None and faults.stats.bytes_attempted > transport.bytes_attempted:
            report.add(
                ViolationKind.METER_MISMATCH,
                f"injector attempted {faults.stats.bytes_attempted} bytes, "
                f"more than the transport ledger's "
                f"{transport.bytes_attempted}",
            )

    @staticmethod
    def _conservation(meter, messages: int, attempted: int, report, scope: str) -> None:
        total_messages = sum(
            meter.messages_for(category) for category in TrafficCategory
        )
        if meter.total_bytes != attempted:
            report.add(
                ViolationKind.METER_MISMATCH,
                f"{scope}: meter charged {meter.total_bytes} bytes but the "
                f"transport attempted {attempted}",
            )
        if total_messages != messages:
            report.add(
                ViolationKind.METER_MISMATCH,
                f"{scope}: meter counted {total_messages} messages but the "
                f"transport attempted {messages}",
            )

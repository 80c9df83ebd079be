"""Unit tests for the invariant auditor.

Two directions: a healthy cloud must audit clean (no false positives), and
every :class:`ViolationKind` must be detectable when the corresponding
corruption is planted by hand (no false negatives).
"""

from repro.audit.invariants import InvariantAuditor, ViolationKind
from repro.core.edgenetwork import EdgeCacheNetwork
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.network.bandwidth import TrafficCategory
from tests.conftest import make_cloud


def _drive(cloud, steps=40):
    for i in range(steps):
        cloud.handle_request(i % len(cloud.caches), (7 * i) % len(cloud.corpus), float(i))
        if i % 5 == 4:
            cloud.handle_update((3 * i) % len(cloud.corpus), float(i))


class TestCleanCloud:
    def test_fresh_cloud_audits_clean(self, small_corpus):
        report = InvariantAuditor().audit(make_cloud(small_corpus))
        assert report.ok
        assert report.violations == []

    def test_driven_cloud_audits_clean(self, small_corpus):
        cloud = make_cloud(small_corpus)
        _drive(cloud)
        cloud.run_cycle(50.0)
        report = InvariantAuditor().audit(cloud)
        assert report.ok, report.render()
        # The pass must not be vacuous.
        assert report.resident_copies_checked > 0
        assert report.directory_entries_checked > 0
        assert report.rings_checked == 2
        assert report.caches_checked == len(cloud.caches)

    def test_failure_resilience_cloud_audits_clean(self, small_corpus):
        cloud = make_cloud(small_corpus, failure_resilience=True)
        _drive(cloud)
        cloud.run_cycle(50.0)
        cloud.fail_cache(1, 51.0)
        cloud.recover_cache(1, 52.0)
        report = InvariantAuditor().audit(cloud)
        assert report.ok, report.render()

    def test_summary_shape(self, small_corpus):
        summary = InvariantAuditor().audit(make_cloud(small_corpus)).summary()
        assert summary["audit_violations"] == 0.0
        for kind in ViolationKind:
            assert summary[f"audit_{kind.value}"] == 0.0

    def test_render_mentions_ok(self, small_corpus):
        assert "OK" in InvariantAuditor().audit(make_cloud(small_corpus)).render()


class TestDetectsViolations:
    def _audit(self, cloud):
        return InvariantAuditor().audit(cloud)

    def test_dangling_holder(self, small_corpus):
        cloud = make_cloud(small_corpus)
        beacon = cloud.beacon_for_doc(5)
        cloud.beacons[beacon].directory.add_holder(5, cloud.doc_irh(5), 0)
        report = self._audit(cloud)
        assert report.count(ViolationKind.DANGLING_HOLDER) == 1

    def test_orphan_copy(self, small_corpus):
        cloud = make_cloud(small_corpus)
        cloud.caches[0].admit(5, 1024, 0, now=1.0)
        report = self._audit(cloud)
        assert report.count(ViolationKind.ORPHAN_COPY) == 1

    def test_stale_copy(self, small_corpus):
        cloud = make_cloud(small_corpus)
        cloud.handle_request(0, 5, now=1.0)
        cloud.origin.publish_update(5)  # version bumped behind the cloud's back
        report = self._audit(cloud)
        assert report.count(ViolationKind.STALE_COPY) >= 1
        assert report.stale_copies == report.count(ViolationKind.STALE_COPY)

    def test_version_ahead_of_origin(self, small_corpus):
        cloud = make_cloud(small_corpus)
        cloud.handle_request(0, 5, now=1.0)
        cloud.caches[0].storage.refresh_version(5, 99)
        report = self._audit(cloud)
        assert report.count(ViolationKind.VERSION_AHEAD_OF_ORIGIN) == 1
        assert report.hard_violations >= 1

    def test_version_column(self, small_corpus):
        cloud = make_cloud(small_corpus)
        cloud.handle_request(0, 5, now=1.0)
        assert self._audit(cloud).ok
        versions = cloud.caches[0].storage.versions
        # A slot for a copy the store does not count...
        versions[6] = 0
        report = self._audit(cloud)
        assert report.count(ViolationKind.VERSION_COLUMN) == 1
        assert report.hard_violations == 1
        # ...or a copy it counts with no slot.
        versions[6] = versions[5] = -1
        report = self._audit(cloud)
        assert report.count(ViolationKind.VERSION_COLUMN) == 1
        # A dead cache's column must be empty too.
        versions[5] = 0
        cloud.caches[0].fail(2.0)
        assert self._audit(cloud).count(ViolationKind.VERSION_COLUMN) == 0
        cloud.caches[0].storage.versions[7] = 0
        assert self._audit(cloud).count(ViolationKind.VERSION_COLUMN) == 1

    def test_version_column_against_the_replacement_order(self, small_corpus):
        cloud = make_cloud(small_corpus, capacity_bytes=small_corpus.total_bytes // 5)
        cloud.handle_request(0, 5, now=1.0)
        assert self._audit(cloud).ok
        order = cloud.caches[0].storage.policy
        # A resident copy the order lost: eviction could never reach it.
        admitted = order.on_remove(5)
        report = self._audit(cloud)
        assert report.count(ViolationKind.VERSION_COLUMN) == 1
        assert report.hard_violations == 1
        order.on_insert(5, 1024, admitted)
        assert self._audit(cloud).ok
        # An order entry with no copy.
        order.on_insert(9, 1024, 2.0)
        assert self._audit(cloud).count(ViolationKind.VERSION_COLUMN) == 1

    def test_dead_holder_listed_and_dead_cache_stores(self, small_corpus):
        cloud = make_cloud(small_corpus)
        cloud.handle_request(0, 5, now=1.0)
        cloud.caches[0].alive = False  # crash without the failure manager
        report = self._audit(cloud)
        assert report.count(ViolationKind.DEAD_HOLDER_LISTED) >= 1
        assert report.count(ViolationKind.DEAD_CACHE_STORES) == 1

    def test_unsound_stamp(self, small_corpus):
        cloud = make_cloud(small_corpus)
        cloud.handle_request(0, 5, now=1.0)
        cloud.handle_request(1, 5, now=2.0)  # the lookup walks, then stamps
        directory = cloud.beacons[cloud.beacon_for_doc(5)].directory
        assert directory.stamp_of(5) == (0, cloud.holder_epoch[0])
        assert self._audit(cloud).ok
        # A copy vanishes behind the protocol's back: the stamp now lies.
        cloud.caches[0].storage.remove(5, now=3.0)
        report = self._audit(cloud)
        assert report.count(ViolationKind.UNSOUND_STAMP) == 1
        assert report.hard_violations >= 1
        # The same divergence under a dropped stamp is merely repairable.
        directory.unstamp(5)
        report = self._audit(cloud)
        assert report.count(ViolationKind.UNSOUND_STAMP) == 0
        assert report.hard_violations == 0

    def test_stale_stamp_is_not_a_violation(self, small_corpus):
        """A stamp of an older version or epoch claims nothing current."""
        cloud = make_cloud(small_corpus)
        cloud.handle_request(0, 5, now=1.0)
        cloud.handle_request(1, 5, now=2.0)
        cloud.origin.publish_update(5)  # stamp now one version behind
        assert self._audit(cloud).count(ViolationKind.UNSOUND_STAMP) == 0
        cloud.handle_request(2, 6, now=3.0)
        cloud.handle_request(3, 6, now=4.0)
        cloud.caches[2].alive = False  # crash without the epoch bump ...
        assert self._audit(cloud).count(ViolationKind.UNSOUND_STAMP) == 1
        cloud.holder_epoch[0] += 1  # ... which is what disarms the stamp
        assert self._audit(cloud).count(ViolationKind.UNSOUND_STAMP) == 0

    def test_misplaced_entry(self, small_corpus):
        cloud = make_cloud(small_corpus)
        beacon = cloud.beacon_for_doc(5)
        other = next(b for b in cloud.beacons if b != beacon)
        cloud.caches[0].admit(5, 1024, 0, now=1.0)
        cloud.beacons[other].directory.add_holder(5, cloud.doc_irh(5), 0)
        report = self._audit(cloud)
        assert report.count(ViolationKind.MISPLACED_ENTRY) == 1

    def test_ring_coverage(self, small_corpus):
        cloud = make_cloud(small_corpus)
        ring = cloud.assigner.rings[0]
        # Give two members the same start: one arc inflates to the full
        # circle and overlaps everything else.
        ring._starts[1] = ring._starts[0]
        report = self._audit(cloud)
        assert report.count(ViolationKind.RING_COVERAGE) >= 1

    def test_replica_at_dead_buddy(self, small_corpus):
        cloud = make_cloud(small_corpus, failure_resilience=True)
        cloud.failure_manager.sync(1.0)
        holder = cloud.failure_manager.replica_holders()[0]
        cloud.handle_request(holder, 5, now=1.5)
        assert cloud.caches[holder].holds(5)
        # A crash the failure manager is not told of: the store empties (so
        # the dead buddy reports no DEAD_CACHE_STORES noise), the record of
        # the replica it held stays.
        cloud.caches[holder].fail(2.0)
        report = self._audit(cloud)
        assert report.count(ViolationKind.REPLICA_AT_DEAD_BUDDY) >= 1
        assert report.count(ViolationKind.DEAD_CACHE_STORES) == 0

    def test_meter_mismatch_on_unaccounted_bytes(self, small_corpus):
        cloud = make_cloud(small_corpus)
        cloud.transport.meter.record(TrafficCategory.CONTROL, 100)
        report = self._audit(cloud)
        assert report.count(ViolationKind.METER_MISMATCH) == 2  # bytes + messages
        assert not InvariantAuditor().audit(cloud, check_meter=False).violations

    def test_residence_order(self, small_corpus):
        cloud = make_cloud(small_corpus, capacity_bytes=small_corpus.total_bytes // 20)
        _drive(cloud, steps=120)
        order = cloud.residence_order
        assert sum(residence != float("-inf") for residence, _ in order) >= 2
        assert self._audit(cloud).ok
        # Two entries out of order: the order is unsorted (keys still agree).
        order[0], order[-1] = order[-1], order[0]
        report = self._audit(cloud)
        assert report.count(ViolationKind.RESIDENCE_ORDER) == 1
        assert report.hard_violations == 1
        order.sort()
        # An estimate moved without its entry: sorted, but the key lies.
        storage = cloud.caches[order[-1][1]].storage
        storage.residence_mean = order[-1][0] + 1.0
        report = self._audit(cloud)
        assert report.count(ViolationKind.RESIDENCE_ORDER) == 1
        assert report.violations[0].cache_id == order[-1][1]

    def test_render_lists_violations(self, small_corpus):
        cloud = make_cloud(small_corpus)
        cloud.caches[0].admit(5, 1024, 0, now=1.0)
        text = InvariantAuditor().audit(cloud).render()
        assert "orphan_copy" in text


class TestMeterConservation:
    def test_holds_across_faulty_run(self, small_corpus):
        cloud = make_cloud(small_corpus)
        injector = FaultInjector(
            FaultPlan(seed=3, loss_rate=0.3, duplicate_rate=0.1),
            cloud.transport,
        )
        cloud.attach_faults(injector)
        _drive(cloud)
        report = InvariantAuditor().audit(cloud)
        assert report.count(ViolationKind.METER_MISMATCH) == 0
        # Injector attempts (duplicates included) are a subset of the ledger.
        assert injector.stats.bytes_attempted <= cloud.transport.bytes_attempted

    def test_reset_accounting_keeps_ledger_and_meter_aligned(self, small_corpus):
        cloud = make_cloud(small_corpus)
        _drive(cloud, steps=10)
        cloud.transport.reset_accounting()
        _drive(cloud, steps=10)
        report = InvariantAuditor().audit(cloud)
        assert report.count(ViolationKind.METER_MISMATCH) == 0


class TestNetworkAudit:
    def _network(self, corpus):
        config = make_cloud(corpus).config
        return EdgeCacheNetwork([[0, 1, 2, 3], [4, 5, 6, 7]], config, corpus)

    def test_clean_network(self, small_corpus):
        network = self._network(small_corpus)
        for i in range(30):
            network.handle_request(i % 8, (3 * i) % len(small_corpus), float(i))
            if i % 5 == 4:
                network.handle_update((2 * i) % len(small_corpus), float(i))
        report = InvariantAuditor().audit_network(network)
        assert report.ok, report.render()
        assert report.caches_checked == 8

    def test_network_meter_mismatch_detected(self, small_corpus):
        network = self._network(small_corpus)
        network.meter.record(TrafficCategory.CONTROL, 64)
        report = InvariantAuditor().audit_network(network)
        assert report.count(ViolationKind.METER_MISMATCH) == 2

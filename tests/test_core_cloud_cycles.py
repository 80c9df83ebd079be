"""Unit tests for sub-range determination cycles at the cloud level."""

from repro.core.config import AssignmentScheme
from repro.core.directory import DIRECTORY_ENTRY_BYTES
from repro.network.bandwidth import TrafficCategory
from repro.simulation.engine import Simulator
from tests.conftest import wire


def hot_doc_in_ring(cloud, ring_index=0):
    """Find a document mapped to the given ring (for targeted load)."""
    for doc_id in range(len(cloud.corpus)):
        if cloud.doc_ring(doc_id) == ring_index:
            return doc_id
    raise AssertionError("no document maps to the ring")


class TestCycleMechanics:
    def test_cycle_resets_cycle_counters(self, cloud_factory):
        cloud = cloud_factory()
        cloud.handle_request(0, 5, now=1.0)
        beacon = cloud.beacon_for_doc(5)
        assert cloud.beacons[beacon].cycle_load > 0
        cloud.run_cycle(now=10.0)
        assert cloud.beacons[beacon].cycle_load == 0
        assert cloud.beacons[beacon].total_load > 0  # cumulative kept

    def test_skewed_load_moves_sub_ranges(self, cloud_factory):
        cloud = cloud_factory()
        doc = hot_doc_in_ring(cloud, 0)
        ring = cloud.assigner.rings[0]
        before = {m: ring.arc_of(m).width for m in ring.members}
        # Hammer one document so its beacon point is massively overloaded.
        for i in range(200):
            cloud.handle_update(doc, now=float(i) * 0.01)
        cloud.run_cycle(now=10.0)
        after = {m: ring.arc_of(m).width for m in ring.members}
        assert before != after

    def test_announcements_and_migration_traffic(self, cloud_factory):
        cloud = cloud_factory()
        doc = hot_doc_in_ring(cloud, 0)
        for i in range(200):
            cloud.handle_update(doc, now=float(i) * 0.01)
        rows = wire(cloud, lambda: cloud.run_cycle(now=10.0))
        announced = [r for r in rows if r[3] == "control"]
        # One announcement to every other cache and one to the origin.
        assert len(announced) == len(cloud.caches)

    def test_balanced_load_changes_nothing(self, cloud_factory):
        cloud = cloud_factory()
        rings_before = [
            (ring.members, [ring.arc_of(m).spans() for m in ring.members])
            for ring in cloud.assigner.rings
        ]
        rows = wire(cloud, lambda: cloud.run_cycle(now=10.0))  # no load at all
        rings_after = [
            (ring.members, [ring.arc_of(m).spans() for m in ring.members])
            for ring in cloud.assigner.rings
        ]
        assert rings_before == rings_after
        assert rows == []  # nothing moved, so nothing is announced


class TestDirectoryMigration:
    def test_lookup_records_follow_ownership(self, cloud_factory):
        """After a rebalance, the new beacon can resolve migrated documents."""
        cloud = cloud_factory()
        # Store many docs so directories are populated, biasing load heavily.
        for doc in range(30):
            cloud.handle_request(doc % 4, doc, now=float(doc) * 0.1)
        # Skew: hammer the hottest beacon with updates to one document.
        doc = hot_doc_in_ring(cloud, 0)
        for i in range(300):
            cloud.handle_update(doc, now=5.0 + i * 0.01)
        cloud.run_cycle(now=10.0)
        # Every stored document must still be resolvable as a cloud hit from
        # a cache that does not hold it.
        from repro.core.cloud import RequestOutcome

        for doc in range(30):
            holders = cloud.holders_of(doc)
            if not holders:
                continue
            requester = next(c for c in range(4) if c not in holders)
            result = cloud.handle_request(requester, doc, now=20.0)
            assert result.outcome is RequestOutcome.CLOUD_HIT, f"doc {doc}"

    def test_directory_entries_conserved_across_cycles(self, cloud_factory):
        cloud = cloud_factory()
        for doc in range(30):
            cloud.handle_request(doc % 4, doc, now=float(doc) * 0.1)
        total_before = sum(len(b.directory) for b in cloud.beacons.values())
        doc = hot_doc_in_ring(cloud, 0)
        for i in range(300):
            cloud.handle_update(doc, now=5.0 + i * 0.01)
        cloud.run_cycle(now=10.0)
        total_after = sum(len(b.directory) for b in cloud.beacons.values())
        assert total_after == total_before

    def test_migration_transfer_accounted(self, cloud_factory):
        cloud = cloud_factory()
        for doc in range(30):
            cloud.handle_request(doc % 4, doc, now=float(doc) * 0.1)
        doc = hot_doc_in_ring(cloud, 0)
        for i in range(300):
            cloud.handle_update(doc, now=5.0 + i * 0.01)
        cloud.run_cycle(now=10.0)
        migrated = sum(b.directory_entries_migrated for b in cloud.beacons.values())
        bytes_migrated = cloud.transport.meter.bytes_for(
            TrafficCategory.DIRECTORY_MIGRATION
        )
        assert migrated > 0
        assert bytes_migrated >= migrated * DIRECTORY_ENTRY_BYTES


class TestStaticSchemesHaveNoCycles:
    def test_static_cycle_is_a_counter_reset(self, small_corpus):
        from tests.conftest import make_cloud

        cloud = make_cloud(small_corpus, assignment=AssignmentScheme.STATIC)
        cloud.handle_request(0, 5, now=1.0)
        cloud.run_cycle(now=10.0)
        assert all(b.cycle_load == 0 for b in cloud.beacons.values())
        assert cloud.cycles_run == 1


class TestPeriodicAttachment:
    def test_attach_cycles_runs_on_period(self, cloud_factory):
        cloud = cloud_factory(cycle_length=10.0)
        sim = Simulator()
        process = cloud.attach_cycles(sim)
        sim.run_until(35.0)
        assert process.firings == 3
        assert cloud.cycles_run == 3

    def test_attach_cycles_idempotent(self, cloud_factory):
        cloud = cloud_factory()
        sim = Simulator()
        first = cloud.attach_cycles(sim)
        assert cloud.attach_cycles(sim) is first

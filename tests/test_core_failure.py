"""Unit tests for failure resilience (lazy replication + failover)."""

import pytest

from repro.core.cloud import RequestOutcome
from repro.core.config import AssignmentScheme, CloudConfig
from repro.workload.documents import build_corpus
from tests.conftest import make_cloud


@pytest.fixture
def resilient_cloud(small_corpus):
    return make_cloud(
        small_corpus,
        num_caches=4,
        num_rings=2,
        failure_resilience=True,
    )


class TestConfigGuards:
    def test_requires_dynamic_assignment(self, small_corpus):
        with pytest.raises(ValueError):
            make_cloud(
                small_corpus,
                assignment=AssignmentScheme.STATIC,
                failure_resilience=True,
            )

    def test_injection_requires_flag(self, small_corpus):
        cloud = make_cloud(small_corpus)
        with pytest.raises(RuntimeError):
            cloud.fail_cache(0, now=1.0)
        with pytest.raises(RuntimeError):
            cloud.recover_cache(0, now=1.0)


class TestBuddies:
    def test_buddy_is_ring_successor(self, resilient_cloud):
        manager = resilient_cloud.failure_manager
        for ring in resilient_cloud.assigner.rings:
            members = ring.members
            for i, member in enumerate(members):
                assert manager.buddy_of(member) == members[(i + 1) % len(members)]


class TestFailover:
    def populate(self, cloud):
        for doc in range(20):
            cloud.handle_request(doc % 4, doc, now=float(doc) * 0.1)
        cloud.run_cycle(now=5.0)  # triggers the lazy replica sync

    def test_fail_removes_from_ring_and_scrubs_directories(self, resilient_cloud):
        self.populate(resilient_cloud)
        victim = resilient_cloud.assigner.rings[0].members[0]
        absorber = resilient_cloud.fail_cache(victim, now=6.0)
        assert victim not in resilient_cloud.assigner.rings[0].members
        assert absorber in resilient_cloud.assigner.rings[0].members
        for beacon in resilient_cloud.beacons.values():
            for doc in beacon.directory:
                assert victim not in beacon.directory.holders(doc)

    def test_double_fail_raises(self, resilient_cloud):
        self.populate(resilient_cloud)
        victim = resilient_cloud.assigner.rings[0].members[0]
        resilient_cloud.fail_cache(victim, now=6.0)
        with pytest.raises(ValueError):
            resilient_cloud.fail_cache(victim, now=7.0)

    def test_requests_survive_beacon_failure(self, resilient_cloud):
        self.populate(resilient_cloud)
        victim = resilient_cloud.assigner.rings[0].members[0]
        resilient_cloud.fail_cache(victim, now=6.0)
        # Every document is still servable from a live cache.
        survivors = [c for c in range(4) if c != victim]
        for doc in range(20):
            requester = survivors[doc % 3]
            result = resilient_cloud.handle_request(requester, doc, now=7.0 + doc)
            assert result.outcome in (
                RequestOutcome.LOCAL_HIT,
                RequestOutcome.CLOUD_HIT,
                RequestOutcome.ORIGIN_FETCH,
            )

    def test_replica_preserves_cloud_hits_for_surviving_copies(self, resilient_cloud):
        """Documents held by survivors stay cloud-resolvable after the
        beacon holding their lookup records dies (the replica's purpose)."""
        self.populate(resilient_cloud)
        victim = resilient_cloud.assigner.rings[0].members[0]
        # Find a doc whose beacon is the victim but whose holders survive.
        target = None
        for doc in range(20):
            if resilient_cloud.beacon_for_doc(doc) != victim:
                continue
            holders = resilient_cloud.holders_of(doc) - {victim}
            if holders:
                target = (doc, holders)
                break
        if target is None:
            pytest.skip("seed produced no victim-beaconed surviving document")
        doc, holders = target
        resilient_cloud.fail_cache(victim, now=6.0)
        requester = next(
            c for c in range(4) if c != victim and c not in holders
        )
        result = resilient_cloud.handle_request(requester, doc, now=7.0)
        assert result.outcome is RequestOutcome.CLOUD_HIT

    def test_update_path_survives_failure(self, resilient_cloud):
        self.populate(resilient_cloud)
        victim = resilient_cloud.assigner.rings[0].members[0]
        resilient_cloud.fail_cache(victim, now=6.0)
        for doc in range(20):
            resilient_cloud.handle_update(doc, now=8.0)
        # Survivors holding copies must all be fresh.
        for cache in resilient_cloud.caches:
            if not cache.alive:
                continue
            for doc in range(20):
                copy = cache.copy_of(doc)
                if copy is not None:
                    assert copy.version == 1


class TestRecovery:
    def test_recover_rejoins_ring(self, resilient_cloud):
        for doc in range(20):
            resilient_cloud.handle_request(doc % 4, doc, now=float(doc) * 0.1)
        resilient_cloud.run_cycle(now=5.0)
        victim = resilient_cloud.assigner.rings[0].members[0]
        resilient_cloud.fail_cache(victim, now=6.0)
        resilient_cloud.recover_cache(victim, now=10.0)
        assert victim in resilient_cloud.assigner.rings[0].members
        assert resilient_cloud.caches[victim].alive
        # The recovered node owns a sub-range and can serve beacon duties.
        arc = resilient_cloud.assigner.rings[0].arc_of(victim)
        assert arc.width >= 1

    def test_recover_non_failed_raises(self, resilient_cloud):
        with pytest.raises(ValueError):
            resilient_cloud.recover_cache(0, now=1.0)

    def test_requests_work_after_recovery(self, resilient_cloud):
        for doc in range(20):
            resilient_cloud.handle_request(doc % 4, doc, now=float(doc) * 0.1)
        resilient_cloud.run_cycle(now=5.0)
        victim = resilient_cloud.assigner.rings[0].members[0]
        resilient_cloud.fail_cache(victim, now=6.0)
        resilient_cloud.recover_cache(victim, now=10.0)
        for doc in range(20):
            result = resilient_cloud.handle_request(victim, doc, now=11.0 + doc)
            assert result.outcome in (
                RequestOutcome.CLOUD_HIT,
                RequestOutcome.ORIGIN_FETCH,
                RequestOutcome.LOCAL_HIT,
            )

    def test_directory_consistency_after_recovery(self, resilient_cloud):
        """Directory holders must match ground truth after fail + recover."""
        for doc in range(20):
            resilient_cloud.handle_request(doc % 4, doc, now=float(doc) * 0.1)
        resilient_cloud.run_cycle(now=5.0)
        victim = resilient_cloud.assigner.rings[0].members[0]
        resilient_cloud.fail_cache(victim, now=6.0)
        resilient_cloud.recover_cache(victim, now=10.0)
        resilient_cloud.run_cycle(now=15.0)
        for doc in range(20):
            beacon = resilient_cloud.beacon_for_doc(doc)
            recorded = resilient_cloud.beacons[beacon].directory.holders(doc)
            truth = resilient_cloud.holders_of(doc)
            # Directory may have scrubbed entries (conservative), but must
            # never claim a holder that does not hold the document.
            assert recorded <= truth | {victim}


class TestLazySyncCounters:
    def test_sync_runs_each_cycle(self, resilient_cloud):
        resilient_cloud.run_cycle(now=5.0)
        resilient_cloud.run_cycle(now=10.0)
        assert resilient_cloud.failure_manager.syncs == 2

    def test_failover_counter(self, resilient_cloud):
        resilient_cloud.run_cycle(now=5.0)
        victim = resilient_cloud.assigner.rings[0].members[0]
        resilient_cloud.fail_cache(victim, now=6.0)
        assert resilient_cloud.failure_manager.failovers == 1


class TestOverlappingFailures:
    """Replicas are physical: they live at the buddy and die with it."""

    @pytest.fixture
    def wide_cloud(self, small_corpus):
        # 6 caches / 2 rings -> 3 members per ring: two members of the
        # same ring can fail while the ring stays serviceable.
        return make_cloud(
            small_corpus, num_caches=6, num_rings=2, failure_resilience=True
        )

    def populate(self, cloud):
        for doc in range(30):
            cloud.handle_request(doc % len(cloud.caches), doc, now=float(doc) * 0.1)
        cloud.run_cycle(now=5.0)  # lazy replica sync

    def test_buddy_crash_destroys_hosted_replicas(self, wide_cloud):
        self.populate(wide_cloud)
        manager = wide_cloud.failure_manager
        ring = wide_cloud.assigner.rings[0]
        victim = ring.members[0]
        buddy = manager.buddy_of(victim)
        wide_cloud.fail_cache(buddy, now=6.0)
        # The buddy held the victim's replica; the victim's entry is gone.
        assert victim not in manager.replica_holders()
        assert manager.replicas_lost >= 1

    def test_victim_failing_after_buddy_installs_nothing(self, wide_cloud):
        self.populate(wide_cloud)
        manager = wide_cloud.failure_manager
        ring = wide_cloud.assigner.rings[0]
        victim = ring.members[0]
        buddy = manager.buddy_of(victim)
        wide_cloud.fail_cache(buddy, now=6.0)
        installed_before = manager.stale_entries_installed
        wide_cloud.fail_cache(victim, now=7.0)
        # No replica survived the buddy crash, so the absorber gets nothing.
        assert manager.stale_entries_installed == installed_before

    def test_two_failures_same_ring_still_serves(self, wide_cloud):
        self.populate(wide_cloud)
        ring = wide_cloud.assigner.rings[0]
        first, second = ring.members[0], ring.members[1]
        wide_cloud.fail_cache(first, now=6.0)
        wide_cloud.fail_cache(second, now=7.0)
        assert len(ring.members) == 1
        live = next(c.cache_id for c in wide_cloud.caches if c.alive)
        for doc in range(10):
            result = wide_cloud.handle_request(live, doc, now=8.0 + doc)
            assert result is not None

    def test_last_ring_member_refuses_to_fail(self, wide_cloud):
        self.populate(wide_cloud)
        ring = wide_cloud.assigner.rings[0]
        first, second = ring.members[0], ring.members[1]
        wide_cloud.fail_cache(first, now=6.0)
        wide_cloud.fail_cache(second, now=7.0)
        survivor = ring.members[0]
        with pytest.raises(ValueError):
            wide_cloud.fail_cache(survivor, now=8.0)
        # The refusal must not have mutated anything.
        assert wide_cloud.caches[survivor].alive
        assert survivor in ring.members

    def test_buddy_failure_right_after_recovery(self, wide_cloud):
        """Recovery does not re-establish the replica — only the next sync
        does — so a buddy crash in that window loses exactly the replicas
        the buddy still hosted, and the freshly recovered node is not
        among them."""
        self.populate(wide_cloud)
        manager = wide_cloud.failure_manager
        ring = wide_cloud.assigner.rings[0]
        victim = ring.members[0]
        buddy = manager.buddy_of(victim)
        wide_cloud.fail_cache(victim, now=6.0)
        wide_cloud.recover_cache(victim, now=7.0)
        assert victim not in manager.replica_holders()
        held_at_buddy = [
            owner
            for owner, host in manager.replica_holders().items()
            if host == buddy
        ]
        assert victim not in held_at_buddy
        lost_before = manager.replicas_lost
        wide_cloud.fail_cache(buddy, now=8.0)
        assert manager.replicas_lost - lost_before == len(held_at_buddy)
        # The next sync after the buddy recovers re-covers everyone.
        wide_cloud.recover_cache(buddy, now=9.0)
        wide_cloud.run_cycle(now=10.0)
        assert victim in manager.replica_holders()

    def test_failure_during_recovery_window(self, wide_cloud):
        """A second member fails before the first one's replica re-syncs."""
        self.populate(wide_cloud)
        manager = wide_cloud.failure_manager
        ring = wide_cloud.assigner.rings[0]
        first = ring.members[0]
        wide_cloud.fail_cache(first, now=6.0)
        wide_cloud.recover_cache(first, now=7.0)
        # No sync has run since recovery: the recovered node has no fresh
        # replica, so a failure now must fall back to an empty install.
        assert first not in manager.replica_holders()
        installed_before = manager.stale_entries_installed
        wide_cloud.fail_cache(first, now=8.0)
        assert manager.stale_entries_installed == installed_before
        for doc in range(10):
            requester = next(c.cache_id for c in wide_cloud.caches if c.alive)
            assert wide_cloud.handle_request(requester, doc, now=9.0 + doc)

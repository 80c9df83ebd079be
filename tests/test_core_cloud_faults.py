"""Cloud-level behavior under injected faults.

Covers the three contracts of the fault layer:

1. A zero-fault plan attached to a cloud is value-identical to no
   injector at all (same outcomes, same stats, same byte accounting).
2. Message loss degrades service along the documented fallback ladder
   (retry -> timeout -> origin fallback -> forced delivery) with every
   step visible in the resilience counters.
3. Lost update pushes leave holders stale, and a stale holder serves its
   copy -- counted, with no origin fetch or message -- until propagation
   (or anti-entropy) reaches it.
"""

import pytest

from repro.core.cloud import RequestOutcome
from repro.faults.injector import FaultInjector
from repro.faults.plan import NO_FAULTS, FaultPlan, RetryPolicy
from repro.network.transport import Transport
from tests.conftest import make_cloud, wire


def _attach(cloud, plan, seed=None):
    injector = FaultInjector(plan, cloud.transport, seed=seed)
    cloud.attach_faults(injector)
    return injector


def _drive(cloud, steps=40):
    """A small deterministic request/update mix; returns result tuples."""
    results = []
    for i in range(steps):
        cache_id = i % len(cloud.caches)
        doc_id = (7 * i) % len(cloud.corpus)
        result = cloud.handle_request(cache_id, doc_id, now=float(i))
        results.append((result.outcome, result.latency_ms, result.served_by))
        if i % 5 == 4:
            cloud.handle_update((3 * i) % len(cloud.corpus), now=float(i))
    return results


class TestAttachValidation:
    def test_rejects_foreign_transport(self, small_corpus):
        cloud = make_cloud(small_corpus)
        injector = FaultInjector(NO_FAULTS, Transport())
        with pytest.raises(ValueError):
            cloud.attach_faults(injector)


class TestZeroPlanEquivalence:
    def test_zero_plan_matches_legacy_path_exactly(self, small_corpus):
        bare = make_cloud(small_corpus)
        faulty = make_cloud(small_corpus)
        _attach(faulty, NO_FAULTS)

        assert _drive(bare) == _drive(faulty)
        assert bare.aggregate_stats() == faulty.aggregate_stats()
        assert bare.transport.meter == faulty.transport.meter
        assert faulty.fabric.stats.retries == 0
        assert faulty.fabric.stats.timeouts == 0
        # A disabled plan contributes no message counters to the summary,
        # keeping zero-fault results byte-identical to fault-free runs.
        assert bare.resilience_summary() == faulty.resilience_summary()

    def test_enabled_plan_reports_message_counters(self, small_corpus):
        cloud = make_cloud(small_corpus)
        _attach(cloud, FaultPlan(loss_rate=0.2))
        _drive(cloud, steps=10)
        summary = cloud.resilience_summary()
        assert "messages_delivered" in summary
        assert "messages_dropped" in summary


class TestDeterminism:
    def test_same_plan_seed_same_outcomes(self, small_corpus):
        plan = FaultPlan(seed=21, loss_rate=0.3)
        runs = []
        for _ in range(2):
            cloud = make_cloud(small_corpus)
            _attach(cloud, plan)
            runs.append(_drive(cloud))
        assert runs[0] == runs[1]


class TestTotalLoss:
    def test_total_loss_degrades_to_forced_origin_delivery(self, small_corpus):
        cloud = make_cloud(small_corpus)
        policy = RetryPolicy(max_attempts=2)
        _attach(cloud, FaultPlan(loss_rate=1.0, retry=policy))
        result = cloud.handle_request(0, 5, now=1.0)
        # Lookup lost twice -> origin fallback; origin fetch also lost
        # twice -> forced delivery. The client is still served.
        assert result.outcome is RequestOutcome.CLOUD_TIMEOUT_ORIGIN_FALLBACK
        assert cloud.fault_origin_fallbacks == 1
        assert cloud.fabric.stats.forced_deliveries == 1
        assert cloud.fabric.stats.retries == 2  # one retransmission per failed RPC
        assert cloud.fabric.stats.timeouts == 4  # every attempt of both RPCs timed out
        assert cloud.caches[0].holds(5)

    def test_fallback_copy_is_not_registered(self, small_corpus):
        cloud = make_cloud(small_corpus)
        _attach(cloud, FaultPlan(loss_rate=1.0, retry=RetryPolicy(max_attempts=1)))
        cloud.handle_request(0, 5, now=1.0)
        beacon = cloud.beacon_for_doc(5)
        # The directory was unreachable, so the ad-hoc copy stays off the
        # books until a later successful interaction repairs it.
        assert 0 not in cloud.beacons[beacon].directory.holders(5)

    def test_timeouts_inflate_client_latency(self, small_corpus):
        reliable = make_cloud(small_corpus)
        lossy = make_cloud(small_corpus)
        _attach(lossy, FaultPlan(loss_rate=1.0, retry=RetryPolicy(max_attempts=2)))
        fast = reliable.handle_request(0, 5, now=1.0)
        slow = lossy.handle_request(0, 5, now=1.0)
        assert slow.latency_ms > fast.latency_ms


class TestLostUpdates:
    def test_lost_server_to_beacon_leaves_holders_stale(self, small_corpus):
        cloud = make_cloud(small_corpus)
        doc = 5
        requester = (cloud.beacon_for_doc(doc) + 1) % len(cloud.caches)
        _attach(
            cloud,
            FaultPlan(
                category_loss=(("update_server_to_beacon", 1.0),),
                retry=RetryPolicy(max_attempts=2),
            ),
        )
        cloud.handle_request(requester, doc, now=1.0)
        assert cloud.caches[requester].holds(doc)
        refreshed = cloud.handle_update(doc, now=2.0)
        assert refreshed == 0
        assert cloud.update_pushes_lost == 1

    def test_stale_holder_serves_its_copy(self, small_corpus):
        cloud = make_cloud(small_corpus)
        doc = 5
        requester = (cloud.beacon_for_doc(doc) + 1) % len(cloud.caches)
        _attach(
            cloud,
            FaultPlan(
                category_loss=(("update_server_to_beacon", 1.0),),
                retry=RetryPolicy(max_attempts=1),
            ),
        )
        cloud.handle_request(requester, doc, now=1.0)
        cloud.handle_update(doc, now=2.0)  # push lost: holder now stale
        fetches = cloud.origin.fetches_served
        sent = wire(cloud, lambda: cloud.handle_request(requester, doc, now=3.0))
        # The holder serves what it holds: nothing but the update path
        # refreshes a copy, so the miss is counted, not repaired.
        assert cloud.stale_serves == 1
        assert sent == [] and cloud.origin.fetches_served == fetches
        assert cloud.caches[requester].storage.version_of(doc) == 0
        assert cloud.origin.version_of(doc) == 1
        result = cloud.handle_request(requester, doc, now=4.0)
        assert result.outcome is RequestOutcome.LOCAL_HIT
        assert cloud.stale_serves == 2


class TestEvictionNotices:
    def test_lost_eviction_notice_is_counted(self, small_corpus):
        # Room for one 1 KiB document: the next one stored evicts it.
        cloud = make_cloud(small_corpus, capacity_bytes=1024)
        doc, other = 5, 6
        requester = (cloud.beacon_for_doc(doc) + 1) % len(cloud.caches)
        cloud.handle_request(requester, doc, now=1.0)
        _attach(
            cloud,
            FaultPlan(
                category_loss=(("control", 1.0),),
                retry=RetryPolicy(max_attempts=1),
            ),
        )
        cloud.handle_request(requester, other, now=2.0)
        assert not cloud.caches[requester].holds(doc)
        # The capacity eviction tried to tell the beacon and the notice was
        # lost: the directory keeps a dangling entry, visibly counted.
        assert cloud.eviction_notices_lost == 1
        beacon = cloud.beacon_for_doc(doc)
        assert requester in cloud.beacons[beacon].directory.holders(doc)


class TestNoCooperationFaults:
    """Regression: the direct-to-origin baseline must honour request loss.

    ``CacheNode.fetch_direct`` used to ignore the delivery outcome of its
    control-sized request leg: a lost request ticked no fault counter and
    its timeout/backoff penalties never reached the client's latency.
    """

    def test_lost_direct_request_ticks_fallback_counter(self, small_corpus):
        cloud = make_cloud(small_corpus, cooperation=False)
        _attach(
            cloud, FaultPlan(loss_rate=1.0, retry=RetryPolicy(max_attempts=2))
        )
        result = cloud.handle_request(0, 5, now=1.0)
        # The origin never heard the request, yet the client is still
        # served: the document leg is forced (last line of service).
        assert result.outcome is RequestOutcome.ORIGIN_FETCH
        assert cloud.fault_origin_fallbacks == 1
        assert cloud.fabric.stats.forced_deliveries == 1
        assert cloud.caches[0].holds(5)

    def test_lost_direct_request_inflates_client_latency(self, small_corpus):
        reliable = make_cloud(small_corpus, cooperation=False)
        lossy = make_cloud(small_corpus, cooperation=False)
        _attach(
            lossy, FaultPlan(loss_rate=1.0, retry=RetryPolicy(max_attempts=2))
        )
        fast = reliable.handle_request(0, 5, now=1.0)
        slow = lossy.handle_request(0, 5, now=1.0)
        # The request leg's timeouts and backoff reach the reported wait.
        assert slow.latency_ms > fast.latency_ms

    def test_zero_fault_direct_path_value_identical(self, small_corpus):
        bare = make_cloud(small_corpus, cooperation=False)
        faulty = make_cloud(small_corpus, cooperation=False)
        _attach(faulty, NO_FAULTS)
        assert _drive(bare) == _drive(faulty)
        assert bare.transport.meter == faulty.transport.meter
        assert faulty.fault_origin_fallbacks == 0


class TestChurnedPlacement:
    """Regression: placement must not see holders that churn has killed.

    Directory entries can outlive their caches — churn kills a holder
    before its entries are repaired. ``placement_context`` used to pass
    those phantom holders through ``existing_holders`` (and their
    residence estimates through ``min_residence_existing``), deflating the
    duplicate-avoidance component for replicas that no longer exist.
    """

    def test_dead_holder_filtered_from_existing_holders(self, small_corpus):
        cloud = make_cloud(small_corpus)
        doc = 5
        beacon = cloud.beacon_for_doc(doc)
        holder = (beacon + 1) % len(cloud.caches)
        observer = (beacon + 2) % len(cloud.caches)
        cloud.handle_request(holder, doc, now=1.0)
        cloud.caches[holder].fail(2.0)
        # The stale directory entry is still on the books (nothing has
        # looked the document up since the failure)...
        assert holder in cloud.beacons[beacon].directory.holders(doc)
        ctx = cloud.nodes[observer].placement_context(
            doc, cloud.corpus[doc].size_bytes, 3.0, beacon
        )
        # ...but the placement policy only ever sees live replicas.
        assert holder not in ctx.existing_holders
        assert ctx.existing_holders == frozenset()
        assert ctx.min_residence_existing is None

    def test_live_holders_still_reported(self, small_corpus):
        cloud = make_cloud(small_corpus)
        doc = 5
        beacon = cloud.beacon_for_doc(doc)
        holder = (beacon + 1) % len(cloud.caches)
        observer = (beacon + 2) % len(cloud.caches)
        cloud.handle_request(holder, doc, now=1.0)
        ctx = cloud.nodes[observer].placement_context(
            doc, cloud.corpus[doc].size_bytes, 2.0, beacon
        )
        assert holder in ctx.existing_holders


class TestDeadBeacon:
    """Regression tests for the dead-beacon guard (no failure manager)."""

    def _kill_beacon_of(self, cloud, doc):
        beacon = cloud.beacon_for_doc(doc)
        cloud.caches[beacon].fail(1.0)
        return beacon

    def test_request_falls_back_to_origin(self, small_corpus):
        cloud = make_cloud(small_corpus)
        doc = 5
        beacon = self._kill_beacon_of(cloud, doc)
        requester = (beacon + 1) % len(cloud.caches)
        result = cloud.handle_request(requester, doc, now=2.0)
        assert result.outcome is RequestOutcome.BEACON_DOWN_ORIGIN_FALLBACK
        assert cloud.beacon_unreachable == 1
        assert cloud.caches[requester].holds(doc)

    def test_update_degrades_to_per_holder_origin_refresh(self, small_corpus):
        cloud = make_cloud(small_corpus)
        doc = 5
        beacon = cloud.beacon_for_doc(doc)
        requester = (beacon + 1) % len(cloud.caches)
        cloud.handle_request(requester, doc, now=1.0)
        self._kill_beacon_of(cloud, doc)
        refreshed = cloud.handle_update(doc, now=2.0)
        assert refreshed == 1
        assert cloud.beacon_unreachable == 1
        result = cloud.handle_request(requester, doc, now=3.0)
        assert result.outcome is RequestOutcome.LOCAL_HIT

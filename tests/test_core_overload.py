"""The overload model: bounded queues, admission control, degradation.

Four layers of coverage:

1. Unit tests of :class:`~repro.core.overload.OverloadConfig` validation,
   :class:`~repro.core.overload.NodeQueue` (including the ``capacity=0``
   and ``capacity=1`` boundaries), and the controller's watermark
   hysteresis (including the degenerate equal-watermark flapping case).
2. Fabric integration: queueing delay accrues into ``Delivery.latency``,
   a full queue rejects like a loss (feeding the existing retry ladder),
   and — the no-double-penalty regression — a rejected attempt accrues
   timeout/backoff only, never its would-be service time, while a
   delayed-but-delivered message accrues queue delay and no timeout.
3. The interned ``DELIVERED_FREE`` singleton: frozen against mutation,
   and value-equal to a slow-path zero-latency delivery.
4. Cloud integration: the ``REJECTED`` ingress outcome, shed lookups
   degrading to origin-direct, the ``engaged``-gated resilience summary,
   and the monitor's overload series.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fabric import DELIVERED_FREE, Delivery, MessageFabric
from repro.core.overload import (
    CLIENT_REQUEST,
    ZERO_COST_OVERLOAD,
    NodeQueue,
    OverloadConfig,
    OverloadController,
)
from repro.core.node import MINUTES_TO_MS, RequestOutcome
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.network.bandwidth import TrafficCategory
from repro.network.transport import Transport
from repro.observe.flight import FlightRecorder, window_series
from tests.conftest import make_cloud


class TestOverloadConfig:
    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            OverloadConfig(queue_capacity=-1)

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            OverloadConfig(service_ms=-1.0)
        with pytest.raises(ValueError):
            OverloadConfig(service_ms_per_kb=-0.5)

    def test_rejects_unknown_category_override(self):
        with pytest.raises(ValueError):
            OverloadConfig(category_service_ms=(("bogus", 1.0),))

    def test_rejects_inverted_watermarks(self):
        with pytest.raises(ValueError):
            OverloadConfig(shed_highwater=2, shed_lowwater=5)

    def test_service_minutes_flat_override_and_per_kb(self):
        config = OverloadConfig(
            service_ms=60.0,
            service_ms_per_kb=30.0,
            category_service_ms=(
                (TrafficCategory.CONTROL.value, 120.0),
                (CLIENT_REQUEST, 240.0),
            ),
        )
        # Flat cost for a category with no override, plus the per-KiB term.
        assert config.service_minutes(
            TrafficCategory.PEER_TRANSFER.value, 2048
        ) == pytest.approx((60.0 + 2 * 30.0) / 60_000.0)
        # An override replaces the flat term; per-KiB still applies.
        assert config.service_minutes(
            TrafficCategory.CONTROL.value, 1024
        ) == pytest.approx((120.0 + 30.0) / 60_000.0)
        # The client-request pseudo-category shares the override table.
        assert config.service_minutes(CLIENT_REQUEST, 0) == pytest.approx(
            240.0 / 60_000.0
        )


class TestNodeQueue:
    def test_capacity_zero_rejects_everything(self):
        queue = NodeQueue(0)
        assert queue.admit(0.0, 1.0) is None
        assert queue.depth() == 0

    def test_capacity_one_boundary(self):
        queue = NodeQueue(1)
        assert queue.admit(0.0, 1.0) == pytest.approx(1.0)
        # The single slot is occupied until its service completes.
        assert queue.admit(0.0, 1.0) is None
        queue.drain(1.0)
        assert queue.admit(1.0, 1.0) == pytest.approx(1.0)

    def test_fifo_wait_accrues_behind_backlog(self):
        queue = NodeQueue(10)
        assert queue.admit(0.0, 2.0) == pytest.approx(2.0)
        # Second arrival waits for the first: delay = wait + own service.
        assert queue.admit(0.0, 3.0) == pytest.approx(5.0)
        # After an idle gap the server is free again — no carried wait.
        queue.drain(10.0)
        assert queue.depth() == 0
        assert queue.admit(10.0, 1.0) == pytest.approx(1.0)

    def test_drain_evaporates_only_completed_work(self):
        queue = NodeQueue(10)
        queue.admit(0.0, 1.0)  # completes at 1.0
        queue.admit(0.0, 1.0)  # completes at 2.0
        queue.drain(1.5)
        assert queue.depth() == 1


    @settings(max_examples=150, deadline=None)
    @given(
        capacity=st.integers(min_value=0, max_value=4),
        arrivals=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.0, 0.25, 1.0, 7.5]),  # clock step
                st.sampled_from([0.0, 0.5, 1.0, 3.0]),  # service time
            ),
            max_size=40,
        ),
    )
    def test_single_touch_arrive_equals_drain_depth_admit(self, capacity, arrivals):
        # The reference spells out the three steps as they were before
        # ``arrive`` existed (``admit`` used to require a prior ``drain``).
        one_touch, reference = NodeQueue(capacity), NodeQueue(capacity)
        now = 0.0
        for step, service in arrivals:
            now += step
            reference.drain(now)
            depth = reference.depth()
            delay = None
            if depth < capacity:
                start = max(reference.busy_until, now)
                reference.busy_until = start + service
                reference._completions.append(start + service)
                delay = start + service - now
            assert one_touch.arrive(now, service) == (depth, delay)
            assert one_touch.busy_until == reference.busy_until
            assert list(one_touch._completions) == list(reference._completions)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.0, 0.001, 0.004, 0.05]),  # clock step
                st.integers(min_value=0, max_value=3),  # destination
                st.sampled_from(["control", "peer_transfer", "update_fanout"]),
                st.sampled_from([0, 100, 4096]),  # message bytes
            ),
            max_size=60,
        )
    )
    def test_admit_wire_reports_the_backlog_depth_of_would_read(self, messages):
        # ``admit_wire`` answers from the one queue touch it makes; the
        # reference controller asks ``depth_of`` afterwards, as the fabric
        # used to for its queue-depth gauge.
        config = OverloadConfig(
            queue_capacity=3,
            service_ms=120.0,
            service_ms_per_kb=5.0,
            category_service_ms=(("control", 0.0), ("control", 999.0)),
        )
        wired, reference = OverloadController(config), OverloadController(config)
        for controller in (wired, reference):
            controller.exempt_node(3)
        now = 0.0
        for step, dst, category, num_bytes in messages:
            now += step
            wired.advance(now)
            reference.advance(now)
            queue = wired._queues.get(dst)
            start = max(now, queue.busy_until if queue is not None else 0.0)
            delay, backlog = wired.admit_wire(dst, category, num_bytes)
            assert delay == reference.admit_message(dst, category, num_bytes)
            if delay is not None:
                assert backlog == reference.depth_of(dst)
                if dst != 3:
                    # The controller's resolved cost table is the config's
                    # formula, bit for bit (first duplicate override wins).
                    cost = config.service_minutes(category, num_bytes)
                    assert wired._queues[dst].busy_until == start + cost
        assert wired.stats == reference.stats


class TestControllerPolicy:
    def _controller(self, **kwargs) -> OverloadController:
        return OverloadController(OverloadConfig(**kwargs))

    def test_exempt_node_never_queues_or_sheds(self):
        controller = self._controller(
            queue_capacity=0, shed_highwater=0, shed_lowwater=0
        )
        controller.exempt_node(99)
        assert controller.admit_message(99, "control", 100) == 0.0
        assert controller.depth_of(99) == 0
        assert not controller.shed_lookup(99)
        assert controller.stats.messages_rejected == 0

    def test_clock_is_monotonic(self):
        controller = self._controller()
        controller.advance(5.0)
        controller.advance(3.0)  # stale timestamps never rewind the clock
        assert controller.now == 5.0

    def test_hysteresis_enter_and_exit(self):
        controller = self._controller(
            queue_capacity=100,
            service_ms=60_000.0,  # one simulated minute per message
            shed_highwater=3,
            shed_lowwater=1,
        )
        for _ in range(3):
            controller.admit_message(5, "control", 0)
        assert controller.shed_lookup(5)  # depth 3 >= highwater
        assert controller.stats.shed_entries == 1
        # Depth 2 is between the watermarks: still shedding (hysteresis).
        controller.advance(1.5)
        assert controller.shed_peer_fetch(5)
        # Depth 1 <= lowwater: the node exits the shedding state.
        controller.advance(2.5)
        assert not controller.defer_fanout(5)
        assert controller.stats.shed_exits == 1
        assert controller.stats.lookups_shed == 1
        assert controller.stats.peer_fetches_shed == 1
        assert controller.stats.fanout_deferred == 0

    def test_equal_watermarks_flap(self):
        """Degenerate hysteresis: highwater == lowwater flaps per check."""
        controller = self._controller(
            queue_capacity=100,
            service_ms=60_000.0,
            shed_highwater=1,
            shed_lowwater=1,
        )
        controller.admit_message(5, "control", 0)  # depth stays 1
        decisions = [controller.shed_lookup(5) for _ in range(4)]
        assert decisions == [True, False, True, False]
        assert controller.stats.shed_entries == 2
        assert controller.stats.shed_exits == 2

    def test_engaged_false_for_zero_cost_controller(self):
        controller = OverloadController(ZERO_COST_OVERLOAD)
        controller.admit_message(1, "control", 100)
        controller.admit_request(2)
        assert not controller.engaged
        # Any rejection engages it.
        rejecting = self._controller(queue_capacity=0)
        rejecting.admit_request(2)
        assert rejecting.engaged

    def test_depth_sampled_at_every_arrival(self):
        controller = self._controller(queue_capacity=2, service_ms=60_000.0)
        controller.admit_message(1, "control", 0)  # sees depth 0
        controller.admit_message(1, "control", 0)  # sees depth 1
        controller.admit_message(1, "control", 0)  # sees depth 2: rejected
        assert controller.stats.queue_depth_samples == 3
        assert controller.stats.queue_depth_sum == 3
        assert controller.stats.avg_queue_depth == pytest.approx(1.0)
        assert controller.stats.messages_rejected == 1


def _service_fabric(config: OverloadConfig) -> MessageFabric:
    fabric = MessageFabric(Transport())
    fabric.attach_service(OverloadController(config))
    return fabric


class TestFabricServiceIntegration:
    def test_attach_detach_toggles_fast_path(self):
        fabric = MessageFabric(Transport())
        assert fabric._fast_path
        controller = OverloadController(OverloadConfig())
        fabric.attach_service(controller)
        assert not fabric._fast_path
        assert fabric.service is controller
        assert fabric.detach_service() is controller
        assert fabric.service is None
        assert fabric._fast_path

    def test_queue_delay_accrues_into_delivery_latency(self):
        fabric = _service_fabric(OverloadConfig(service_ms=30_000.0))
        first = fabric.send_control(0, 1)
        second = fabric.send_control(0, 1)  # same instant: waits for first
        assert first == Delivery(ok=True, latency=0.5, attempts=1)
        assert second.latency == pytest.approx(1.0)
        assert fabric.stats.rejections == 0

    def test_full_queue_rejects_best_effort_like_a_loss(self):
        fabric = _service_fabric(OverloadConfig(queue_capacity=0))
        delivery = fabric.send_control(0, 1, reliable=False)
        assert not delivery.ok
        assert delivery.attempts == 1
        assert delivery.latency == 0.0
        assert fabric.stats.rejections == 1

    def test_rejected_reliable_pays_timeouts_but_never_service_time(self):
        """No double penalty: a rejected attempt accrues the retry ladder's
        timeout/backoff, never the service time it would have needed."""
        policy = RetryPolicy(max_attempts=3)
        fabric = _service_fabric(
            # Huge service cost: if a rejected attempt were also charged
            # service time, the latency assertion below would be off by
            # ten minutes per attempt.
            OverloadConfig(queue_capacity=0, service_ms=600_000.0, retry=policy)
        )
        delivery = fabric.send_control(0, 1, reliable=True)
        assert not delivery.ok
        assert delivery.attempts == 3
        assert fabric.stats.rejections == 3
        assert fabric.stats.timeouts == 3
        expected = 3 * policy.timeout_minutes + sum(
            policy.backoff_minutes(k) for k in range(2)
        )
        assert delivery.latency == pytest.approx(expected)

    def test_delayed_delivery_is_not_a_timeout(self):
        """The other side of the no-double-penalty contract: a message
        delayed by queueing but delivered counts its queue delay and no
        timeout penalty."""
        fabric = _service_fabric(
            OverloadConfig(service_ms=30_000.0, retry=RetryPolicy())
        )
        delivery = fabric.send_control(0, 1, reliable=True)
        assert delivery.ok
        assert delivery.attempts == 1
        assert delivery.latency == pytest.approx(0.5)
        assert fabric.stats.timeouts == 0
        assert fabric.stats.retries == 0

    def test_service_retry_used_only_without_injector(self):
        transport = Transport()
        fabric = MessageFabric(transport)
        service_policy = RetryPolicy(max_attempts=5)
        fabric.attach_service(
            OverloadController(
                OverloadConfig(queue_capacity=0, retry=service_policy)
            )
        )
        assert fabric.retry_policy is service_policy
        # An attached injector's plan wins over the service config.
        plan = FaultPlan(retry=RetryPolicy(max_attempts=2))
        fabric.attach_faults(FaultInjector(plan, transport))
        assert fabric.retry_policy is plan.retry
        assert fabric.send_control(0, 1, reliable=True).attempts == 2

    def test_system_plane_bypasses_the_queues(self):
        fabric = _service_fabric(OverloadConfig(queue_capacity=0))
        fabric.send_system(0, 1, 2048, TrafficCategory.DIRECTORY_MIGRATION)
        fabric.send_system_control(0, 1)
        assert fabric.transport.messages_attempted == 2
        assert fabric.stats.rejections == 0
        assert fabric.service.stats.messages_rejected == 0

    def test_rejections_and_delays_are_metered(self):
        from repro.observe import Telemetry

        fabric = _service_fabric(
            OverloadConfig(queue_capacity=1, service_ms=30_000.0)
        )
        fabric.telemetry = telemetry = Telemetry()
        fabric.send_control(0, 1)  # delayed by its own service time
        fabric.send_control(0, 1)  # queue full: rejected
        assert telemetry.counters["fabric.rejected.control"] == 1
        assert telemetry.histograms["queue_delay_ms.control"].count == 1
        assert telemetry.gauges["queue_depth.1"] == 1.0


class TestDeliverySingletonFrozen:
    """The interned zero-latency Delivery cannot be mutated in place."""

    def test_mutation_raises_frozen_instance_error(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DELIVERED_FREE.ok = False
        with pytest.raises(dataclasses.FrozenInstanceError):
            DELIVERED_FREE.latency = 1.0

    def test_fast_and_slow_path_zero_latency_deliveries_compare_equal(self):
        fast = MessageFabric(Transport())
        slow = MessageFabric(Transport())
        slow.capture_dispatches()  # forces the general dispatch path
        fast_delivery = fast.send_control(0, 1)
        slow_delivery = slow.send_control(0, 1)
        assert fast_delivery is DELIVERED_FREE
        assert slow_delivery is not DELIVERED_FREE
        assert slow_delivery == fast_delivery == Delivery(True, 0.0, 1)


class TestCloudOverload:
    def test_attach_is_idempotent_and_detach_returns_controller(
        self, small_corpus
    ):
        cloud = make_cloud(small_corpus)
        controller = cloud.attach_overload(OverloadConfig())
        assert cloud.attach_overload(OverloadConfig()) is controller
        assert cloud.fabric.service is controller
        assert cloud.detach_overload() is controller
        assert cloud.overload is None
        assert cloud.fabric.service is None

    def test_capacity_zero_rejects_every_client_request(self, small_corpus):
        cloud = make_cloud(small_corpus)
        cloud.attach_overload(OverloadConfig(queue_capacity=0))
        result = cloud.handle_request(0, 5, now=1.0)
        assert result.outcome is RequestOutcome.REJECTED
        assert result.latency_ms == 0.0
        assert cloud.requests_handled == 1
        # A turned-away client never reached the cache: no request counted,
        # no frequency observed, no miss-path traffic.
        assert cloud.caches[0].stats.requests == 0
        assert cloud.overload.stats.requests_rejected == 1

    def test_ingress_queue_delay_reaches_the_client_latency(
        self, small_corpus
    ):
        cloud = make_cloud(small_corpus)
        cloud.attach_overload(
            OverloadConfig(
                category_service_ms=((CLIENT_REQUEST, 60_000.0),),
            )
        )
        first = cloud.handle_request(0, 5, now=0.0)
        second = cloud.handle_request(0, 5, now=0.0)  # local hit, queued
        assert second.outcome is RequestOutcome.LOCAL_HIT
        # Two same-instant arrivals: the second waits a full service time
        # behind the first, then pays its own (2 min total, in ms).
        assert second.latency_ms == pytest.approx(2.0 * MINUTES_TO_MS)
        assert first.latency_ms >= 1.0 * MINUTES_TO_MS

    def test_saturated_beacon_sheds_lookup_to_origin_direct(
        self, small_corpus
    ):
        cloud = make_cloud(small_corpus)
        controller = cloud.attach_overload(
            OverloadConfig(
                queue_capacity=10,
                service_ms=60_000.0,
                shed_highwater=2,
                shed_lowwater=0,
            )
        )
        doc_id = 5
        beacon_id = cloud.beacon_for_doc(doc_id)
        requester = (beacon_id + 1) % len(cloud.caches)
        for _ in range(3):
            controller.admit_message(beacon_id, "control", 0)
        result = cloud.handle_request(requester, doc_id, now=0.0)
        assert result.outcome is RequestOutcome.OVERLOAD_ORIGIN_FALLBACK
        assert result.served_by == cloud.origin.node_id
        assert controller.stats.lookups_shed == 1
        # The client was served: shedding degrades, it does not reject.
        assert cloud.caches[requester].storage.get(doc_id) is not None

    def test_origin_is_exempt_from_queueing(self, small_corpus):
        cloud = make_cloud(small_corpus)
        controller = cloud.attach_overload(OverloadConfig(queue_capacity=0))
        assert controller.admit_message(
            cloud.origin.node_id, "origin_fetch", 4096
        ) == 0.0
        assert controller.stats.messages_rejected == 0

    def test_resilience_summary_gated_on_engagement(self, small_corpus):
        quiet = make_cloud(small_corpus)
        quiet.attach_overload(ZERO_COST_OVERLOAD)
        quiet.handle_request(0, 5, now=1.0)
        assert not any(
            key.startswith("overload_") for key in quiet.resilience_summary()
        )

        loud = make_cloud(small_corpus)
        loud.attach_overload(OverloadConfig(queue_capacity=0))
        loud.handle_request(0, 5, now=1.0)
        summary = loud.resilience_summary()
        assert summary["overload_requests_rejected"] == 1.0


class TestWindowedOverloadSeries:
    @staticmethod
    def recorded(cloud):
        """Windows [0, 1) and [1, 2) of one request at t=0.5, in memory."""
        recorder = cloud.attach_flight(FlightRecorder(None, window=1.0))
        cloud.handle_request(0, 5, now=0.5)
        recorder.finish(2.0)
        return recorder.log

    def test_series_present_only_with_controller_attached(self, small_corpus):
        bare = self.recorded(make_cloud(small_corpus))
        assert len(bare.windows) == 2
        assert not any("overload" in window for window in bare.windows)

        cloud = make_cloud(small_corpus)
        cloud.attach_overload(OverloadConfig(queue_capacity=0))
        series = window_series(
            self.recorded(cloud), ("rejection_rate", "avg_queue_depth", "shed_rate")
        )
        # Window 1 saw one arrival, rejected; window 2 saw none.
        assert series["rejection_rate"] == [(1.0, 1.0), (2.0, 0.0)]
        assert len(series["avg_queue_depth"]) == 2
        assert len(series["shed_rate"]) == 2

"""The message fabric: dispatch styles and the zero-fault guarantee.

Two layers of coverage:

1. Unit tests of :class:`~repro.core.fabric.MessageFabric` dispatch styles
   (best-effort / reliable / forced / system / RPC) against a raw
   transport and a total-loss injector.
2. The structural equivalence guarantee behind the protocol-plane
   refactor: a cloud with a zero-fault injector attached produces a
   message-for-message identical dispatch log — and identical meter,
   attempt-ledger, and fabric-stat totals — to a cloud with no injector
   at all. This upgrades the older "same outcomes and stats" check to
   "the very same wire messages in the very same order".
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fabric import (
    DELIVERED_FREE,
    Delivery,
    DispatchRecord,
    MessageFabric,
)
from repro.core.overload import OverloadConfig, OverloadController
from repro.faults.injector import FaultInjector
from repro.faults.plan import NO_FAULTS, FaultPlan, RetryPolicy
from repro.network.bandwidth import TrafficCategory
from repro.network.topology import EuclideanTopology
from repro.network.transport import (
    CONTROL_MESSAGE_BYTES,
    TRANSFER_HEADER_BYTES,
    Transport,
)
from repro.observe import FlightRecorder, WorkProfile
from repro.workload.documents import build_corpus
from tests.conftest import make_cloud


def _fabric(plan=None, **plan_kwargs):
    """A fabric over a fresh transport, optionally with faults attached."""
    transport = Transport()
    fabric = MessageFabric(transport)
    if plan is not None or plan_kwargs:
        plan = plan if plan is not None else FaultPlan(**plan_kwargs)
        fabric.attach_faults(FaultInjector(plan, transport))
    return fabric


class TestAttachValidation:
    def test_rejects_injector_over_foreign_transport(self):
        fabric = MessageFabric(Transport())
        injector = FaultInjector(NO_FAULTS, Transport())
        with pytest.raises(ValueError):
            fabric.attach_faults(injector)

    def test_detach_keeps_injector_stats(self):
        fabric = _fabric(loss_rate=1.0)
        injector = fabric.faults
        fabric.send_control(0, 1)
        fabric.detach_faults()
        assert fabric.faults is None
        assert injector.stats.dropped == 1
        # Post-detach dispatches bypass the (detached) middleware.
        assert fabric.send_control(0, 1).ok


class TestDispatchStyles:
    def test_fault_free_delivery_is_single_attempt(self):
        fabric = _fabric()
        delivery = fabric.send_control(0, 1)
        assert delivery == Delivery(ok=True, latency=0.0, attempts=1)
        assert fabric.stats.dispatches == 1
        assert fabric.stats.retries == 0

    def test_document_dispatch_charges_header(self):
        fabric = _fabric()
        fabric.send_document(0, 1, 1000, TrafficCategory.PEER_TRANSFER)
        meter = fabric.transport.meter
        assert meter.bytes_for(TrafficCategory.PEER_TRANSFER) == (
            1000 + TRANSFER_HEADER_BYTES
        )

    def test_document_dispatch_rejects_empty_body(self):
        fabric = _fabric()
        with pytest.raises(ValueError):
            fabric.send_document(0, 1, 0, TrafficCategory.PEER_TRANSFER)

    def test_lost_best_effort_costs_nothing(self):
        """Fire-and-forget: no retransmission, no timeout, no latency."""
        fabric = _fabric(loss_rate=1.0, retry=RetryPolicy(max_attempts=3))
        delivery = fabric.send_control(0, 1, reliable=False)
        assert not delivery.ok
        assert delivery.latency == 0.0
        assert delivery.attempts == 1
        assert fabric.stats.timeouts == 0
        assert fabric.stats.retries == 0

    def test_lost_reliable_pays_timeouts_and_backoff(self):
        policy = RetryPolicy(max_attempts=3)
        fabric = _fabric(loss_rate=1.0, retry=policy)
        delivery = fabric.send_control(0, 1, reliable=True)
        assert not delivery.ok
        assert delivery.attempts == 3
        assert fabric.stats.retries == 2
        assert fabric.stats.timeouts == 3
        expected = 3 * policy.timeout_minutes + sum(
            policy.backoff_minutes(k) for k in range(2)
        )
        assert delivery.latency == pytest.approx(expected)

    def test_forced_document_always_arrives(self):
        fabric = _fabric(loss_rate=1.0, retry=RetryPolicy(max_attempts=2))
        latency = fabric.send_forced_document(
            0, 1, 1000, TrafficCategory.ORIGIN_FETCH
        )
        assert latency > 0.0  # timeout penalties accrued on the way
        assert fabric.stats.forced_deliveries == 1
        # Two faulted attempts plus the out-of-band delivery, all charged.
        assert fabric.transport.messages_attempted == 3
        assert fabric.transport.meter.bytes_for(TrafficCategory.ORIGIN_FETCH) == (
            3 * (1000 + TRANSFER_HEADER_BYTES)
        )

    def test_system_plane_bypasses_fault_middleware(self):
        fabric = _fabric(loss_rate=1.0)
        fabric.send_system(0, 1, 2048, TrafficCategory.DIRECTORY_MIGRATION)
        fabric.send_system_control(0, 1)
        # Charged and counted, but the injector never saw either message.
        assert fabric.transport.messages_attempted == 2
        assert fabric.faults.stats.dropped == 0
        assert fabric.faults.stats.bytes_attempted == 0


class TestFastPath:
    """The no-middleware dispatch fast path (see fabric module docs)."""

    def test_flag_tracks_every_attachment(self):
        from repro.observe import Telemetry

        fabric = _fabric()
        assert fabric._fast_path
        fabric.attach_faults(FaultInjector(NO_FAULTS, fabric.transport))
        assert not fabric._fast_path
        fabric.detach_faults()
        assert fabric._fast_path
        fabric.capture_dispatches()
        assert not fabric._fast_path
        fabric.stop_dispatch_capture()
        assert fabric._fast_path
        fabric.telemetry = Telemetry()
        assert not fabric._fast_path
        fabric.telemetry = None
        assert fabric._fast_path

    def test_repr_names_every_bound_plane(self):
        from repro.observe import Telemetry

        fabric = _fabric(NO_FAULTS)
        fabric.attach_service(OverloadController(OverloadConfig()))
        fabric.telemetry = Telemetry()
        fabric.capture_dispatches()
        assert "planes=faults+service+watch+capture," in repr(fabric)

    def test_zero_latency_delivery_is_interned(self):
        """Topology-less dispatches return the shared frozen singleton."""
        fabric = _fabric()
        assert fabric.send_control(0, 1) is DELIVERED_FREE
        assert fabric.request_response(0, 1, 2) is DELIVERED_FREE

    def test_rpc_charges_all_legs_and_fires_callback(self):
        fabric = _fabric()
        fired = []
        delivery = fabric.request_response(
            0, 1, 3, irh=7, on_request_delivered=fired.append
        )
        assert delivery.ok
        assert fired == [7]  # the IrH value threads through the fabric
        assert fabric.stats.dispatches == 4  # 3 out + 1 back
        assert fabric.transport.messages_attempted == 4
        assert fabric.transport.meter.bytes_for(TrafficCategory.CONTROL) == (
            4 * CONTROL_MESSAGE_BYTES
        )


#: Observer attach/detach steps, in any order (a repeated attach replaces).
OBSERVER_STEPS = (
    "attach_telemetry", "detach_telemetry",
    "attach_profile", "detach_profile",
    "attach_flight", "detach_flight",
)


class TestOneResolutionPoint:
    """``CacheCloud._rewatch`` is the one place observers are resolved: the
    fabric's one observer reference is ``cloud.watch`` after every step."""

    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(st.sampled_from(OBSERVER_STEPS), max_size=12))
    def test_the_fabric_watches_what_the_cloud_watches(self, steps):
        from repro.observe import Telemetry

        cloud = make_cloud(build_corpus(50, fixed_size=1024))
        fabric = cloud.fabric
        recorders = []
        with tempfile.TemporaryDirectory() as scratch:
            for index, step in enumerate(steps):
                if step == "attach_telemetry":
                    cloud.attach_telemetry(Telemetry())
                elif step == "attach_profile":
                    cloud.attach_profile(WorkProfile())
                elif step == "attach_flight":
                    recorders.append(FlightRecorder(f"{scratch}/{index}.jsonl"))
                    cloud.attach_flight(recorders[-1])
                elif step == "detach_profile" and cloud.flight is not None:
                    with pytest.raises(ValueError):
                        cloud.detach_profile()
                else:
                    getattr(cloud, step)()
                watch = cloud.watch
                assert fabric.watch is watch
                telemetry, flight = cloud.telemetry, cloud.flight
                assert fabric._fast_path == (telemetry is None and flight is None)
                for category in TrafficCategory:
                    slot = fabric._slots[category]
                    assert slot.instruments is (
                        None if telemetry is None else telemetry.instruments(category.value)
                    )
                    assert slot.flight_row is (
                        None if flight is None else flight.fabric_row(category.value)
                    )
                # Every combination serves through the roots it resolved.
                cloud.handle_request(index % 4, index, now=float(index))
                cloud.handle_update(index, now=index + 0.5)
            for recorder in recorders:
                recorder.finish(len(steps))


def _topology_pair():
    """Two fabrics over identical three-node topologies; the second one has
    a dispatch capture attached, forcing it onto the general path."""
    coords = {0: (0.0, 0.0), 1: (30.0, 0.0), 2: (0.0, 40.0)}
    fast = MessageFabric(Transport(topology=EuclideanTopology(dict(coords))))
    slow = MessageFabric(Transport(topology=EuclideanTopology(dict(coords))))
    log = slow.capture_dispatches()
    return fast, slow, log


class TestBatchEquivalence:
    """Batched fast-path sends are indistinguishable from per-leg sends."""

    LEGS = [(0, 1, 512), (0, 2, 2048), (1, 2, 128)]

    def test_system_batch_matches_per_leg_stream(self):
        fast, slow, log = _topology_pair()
        category = TrafficCategory.DIRECTORY_MIGRATION
        fast_latency = fast.send_system_batch(self.LEGS, category)
        slow_latency = slow.send_system_batch(self.LEGS, category)
        assert fast_latency == slow_latency  # slowest leg either way
        assert fast.transport.meter == slow.transport.meter
        assert (
            fast.transport.messages_attempted
            == slow.transport.messages_attempted
        )
        assert fast.transport.bytes_attempted == slow.transport.bytes_attempted
        assert fast.stats.dispatches == slow.stats.dispatches == len(self.LEGS)
        # The observed path saw the exact per-attempt stream.
        assert [(r.src, r.dst, r.num_bytes) for r in log] == self.LEGS

    def test_empty_batch_is_free(self):
        fast, slow, log = _topology_pair()
        assert fast.send_system_batch([], TrafficCategory.CONTROL) == 0.0
        assert fast.stats.dispatches == 0
        assert fast.transport.messages_attempted == 0

    def test_exchange_matches_per_leg_stream(self):
        fast, slow, log = _topology_pair()
        category = TrafficCategory.ANTI_ENTROPY
        assert fast.send_exchange(0, 1, 300, 700, category) == (True, True)
        assert slow.send_exchange(0, 1, 300, 700, category) == (True, True)
        assert fast.transport.meter == slow.transport.meter
        assert (
            fast.transport.messages_attempted
            == slow.transport.messages_attempted
        )
        assert fast.transport.bytes_attempted == slow.transport.bytes_attempted
        assert fast.stats.dispatches == slow.stats.dispatches == 2
        assert [(r.src, r.dst, r.num_bytes) for r in log] == [
            (0, 1, 300),
            (1, 0, 700),
        ]

    def test_exchange_reverse_leg_needs_forward_delivery(self):
        transport = Transport()
        fabric = MessageFabric(transport)
        fabric.attach_faults(
            FaultInjector(FaultPlan(loss_rate=1.0), transport)
        )
        assert fabric.send_exchange(
            0, 1, 300, 700, TrafficCategory.ANTI_ENTROPY
        ) == (False, False)
        # Only the forward leg was attempted (a server cannot answer a
        # digest it never received), but its bytes were still charged.
        assert transport.messages_attempted == 1
        assert transport.bytes_attempted == 300


class TestForcedDeliveryTrace:
    """The forced out-of-band leg is a row of the dispatch log.

    A transfer delivered past the retry budget reached the client just as
    surely as one the budget covered, so the log shows it after the lost
    attempts, like any other wire attempt.
    """

    def test_forced_leg_emits_the_message(self):
        fabric = _fabric(loss_rate=1.0, retry=RetryPolicy(max_attempts=2))
        log = fabric.capture_dispatches()
        fabric.send_forced_document(0, 1, 1000, TrafficCategory.ORIGIN_FETCH)
        assert fabric.stats.forced_deliveries == 1
        leg = DispatchRecord(0, 1, 1000 + TRANSFER_HEADER_BYTES, "origin_fetch")
        assert log == [leg] * 3  # two lost attempts, then the forced leg

    def test_cloud_trace_records_every_served_document(self, small_corpus):
        cloud = make_cloud(small_corpus)
        cloud.attach_faults(
            FaultInjector(
                FaultPlan(loss_rate=1.0, retry=RetryPolicy(max_attempts=2)),
                cloud.transport,
            )
        )
        log = cloud.fabric.capture_dispatches()
        result = cloud.handle_request(0, 5, now=1.0)
        assert cloud.fabric.stats.forced_deliveries == 1
        # The client was served by the origin: two lost attempts, then the
        # forced leg that carried the document, the log's last row.
        leg = DispatchRecord(result.served_by, 0, 1024 + TRANSFER_HEADER_BYTES, "origin_fetch")
        assert [r for r in log if r.category != "control"] == [leg] * 3
        assert log[-1] == leg


class _ResponseDropInjector(FaultInjector):
    """Drops every message on one directed edge; delivers the rest."""

    def __init__(self, plan, transport, drop_edge):
        super().__init__(plan, transport)
        self._drop_edge = drop_edge

    def deliver(self, src, dst, num_bytes, category):
        latency = self.transport.send(src, dst, num_bytes, category)
        if (src, dst) == self._drop_edge:
            return None
        return latency


class TestRequestResponse:
    def test_fault_free_rpc_charges_hops_plus_response(self):
        fabric = _fabric()
        fired = []
        delivery = fabric.request_response(
            0, 1, 3, on_request_delivered=lambda irh: fired.append(True)
        )
        assert delivery.ok
        assert fired == [True]
        assert fabric.transport.messages_attempted == 4  # 3 out + 1 back
        assert fabric.transport.meter.bytes_for(TrafficCategory.CONTROL) == (
            4 * CONTROL_MESSAGE_BYTES
        )

    def test_server_work_happens_even_when_response_lost(self):
        """The callback fires per attempt whose request legs all arrive —
        a real server does its work before its reply goes missing."""
        transport = Transport()
        fabric = MessageFabric(transport)
        policy = RetryPolicy(max_attempts=2)
        fabric.attach_faults(
            _ResponseDropInjector(
                FaultPlan(retry=policy), transport, drop_edge=(1, 0)
            )
        )
        fired = []
        delivery = fabric.request_response(
            0, 1, 1, on_request_delivered=lambda irh: fired.append(True)
        )
        assert not delivery.ok
        assert fired == [True, True]  # both attempts reached the server
        assert fabric.stats.timeouts == 2
        assert fabric.stats.retries == 1

    def test_lost_request_leg_never_reaches_server(self):
        fabric = _fabric(loss_rate=1.0, retry=RetryPolicy(max_attempts=2))
        fired = []
        delivery = fabric.request_response(
            0, 1, 2, on_request_delivered=lambda irh: fired.append(True)
        )
        assert not delivery.ok
        assert fired == []


def _drive(cloud, steps=60):
    """A deterministic request/update mix exercising every protocol."""
    results = []
    for i in range(steps):
        cache_id = i % len(cloud.caches)
        doc_id = (7 * i) % len(cloud.corpus)
        result = cloud.handle_request(cache_id, doc_id, now=float(i))
        results.append((result.outcome, result.latency_ms, result.served_by))
        if i % 5 == 4:
            cloud.handle_update((3 * i) % len(cloud.corpus), now=float(i))
        if i % 20 == 19:
            cloud.run_cycle(now=float(i))
    return results


class TestZeroFaultStructuralEquivalence:
    """A zero-fault injector is indistinguishable on the wire from none."""

    def test_dispatch_log_is_message_for_message_identical(self, small_corpus):
        bare = make_cloud(small_corpus)
        instrumented = make_cloud(small_corpus)
        instrumented.attach_faults(
            FaultInjector(NO_FAULTS, instrumented.transport)
        )
        bare_log = bare.fabric.capture_dispatches()
        faulty_log = instrumented.fabric.capture_dispatches()

        assert _drive(bare) == _drive(instrumented)

        assert len(bare_log) > 0
        assert bare_log == faulty_log
        assert all(isinstance(r, DispatchRecord) for r in bare_log)

    def test_meter_and_ledger_totals_identical(self, small_corpus):
        bare = make_cloud(small_corpus)
        instrumented = make_cloud(small_corpus)
        instrumented.attach_faults(
            FaultInjector(NO_FAULTS, instrumented.transport)
        )
        _drive(bare)
        _drive(instrumented)

        assert bare.transport.meter == instrumented.transport.meter
        assert (
            bare.transport.messages_attempted
            == instrumented.transport.messages_attempted
        )
        assert (
            bare.transport.bytes_attempted
            == instrumented.transport.bytes_attempted
        )
        assert bare.fabric.stats == instrumented.fabric.stats
        assert instrumented.fabric.stats.retries == 0
        assert instrumented.fabric.stats.timeouts == 0
        assert instrumented.fabric.stats.forced_deliveries == 0

    def test_zero_fault_plan_makes_no_random_draws(self, small_corpus):
        """NO_FAULTS must never consult the RNG, or seeds would diverge."""
        cloud = make_cloud(small_corpus)
        injector = FaultInjector(NO_FAULTS, cloud.transport, seed=99)
        before = injector._rng.getstate()
        cloud.attach_faults(injector)
        _drive(cloud)
        assert injector._rng.getstate() == before

    def test_capture_can_be_stopped(self, small_corpus):
        cloud = make_cloud(small_corpus)
        log = cloud.fabric.capture_dispatches()
        cloud.handle_request(0, 5, now=1.0)
        seen = len(log)
        assert seen > 0
        cloud.fabric.stop_dispatch_capture()
        cloud.handle_request(1, 5, now=2.0)
        assert len(log) == seen


class TestTelemetryOffPathEquivalence:
    """Attaching telemetry observes the protocols without perturbing them.

    The observability layer's contract (PR 5) extends the zero-fault
    guarantee: a cloud with a `Telemetry` registry attached must produce
    the very same wire messages, outcomes, meter/ledger totals, and RNG
    draw count as a cloud with none — recording is strictly read-only.
    """

    def test_dispatch_log_and_outcomes_identical(self, small_corpus):
        from repro.observe import Telemetry

        bare = make_cloud(small_corpus)
        observed = make_cloud(small_corpus)
        observed.attach_telemetry(Telemetry())
        bare_log = bare.fabric.capture_dispatches()
        observed_log = observed.fabric.capture_dispatches()

        assert _drive(bare) == _drive(observed)

        assert len(bare_log) > 0
        assert bare_log == observed_log

    def test_meter_and_ledger_totals_identical(self, small_corpus):
        from repro.observe import Telemetry

        bare = make_cloud(small_corpus)
        observed = make_cloud(small_corpus)
        observed.attach_telemetry(Telemetry())
        _drive(bare)
        _drive(observed)

        assert bare.transport.meter == observed.transport.meter
        assert (
            bare.transport.messages_attempted
            == observed.transport.messages_attempted
        )
        assert (
            bare.transport.bytes_attempted == observed.transport.bytes_attempted
        )
        assert bare.fabric.stats == observed.fabric.stats

    def test_telemetry_makes_no_random_draws(self, small_corpus):
        """Recording must never consult the injector RNG, or seeds diverge."""
        from repro.observe import Telemetry

        cloud = make_cloud(small_corpus)
        injector = FaultInjector(NO_FAULTS, cloud.transport, seed=99)
        cloud.attach_faults(injector)
        cloud.attach_telemetry(Telemetry())
        before = injector._rng.getstate()
        _drive(cloud)
        assert injector._rng.getstate() == before

    def test_telemetry_actually_recorded(self, small_corpus):
        from repro.observe import Telemetry

        cloud = make_cloud(small_corpus)
        telemetry = Telemetry()
        cloud.attach_telemetry(telemetry)
        _drive(cloud)
        assert telemetry.counters["fabric.attempts.control"] > 0
        assert telemetry.histograms["bytes.peer_transfer"].count > 0
        assert len(telemetry.spans.spans) > 0
        assert telemetry.spans.depth == 0  # every span closed

    def test_detach_stops_recording_and_returns_registry(self, small_corpus):
        from repro.observe import Telemetry

        cloud = make_cloud(small_corpus)
        telemetry = Telemetry()
        cloud.attach_telemetry(telemetry)
        cloud.handle_request(0, 5, now=1.0)
        recorded = len(telemetry.spans.spans)
        assert recorded > 0
        detached = cloud.detach_telemetry()
        assert detached is telemetry
        assert cloud.telemetry is None
        assert cloud.fabric.watch is None
        cloud.handle_request(1, 5, now=2.0)
        assert len(telemetry.spans.spans) == recorded

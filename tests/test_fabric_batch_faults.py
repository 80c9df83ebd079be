"""Batched dispatch equivalence while a fault injector is attached.

``send_system_batch``, ``send_exchange`` and ``send_fanout`` take an optimized
path when the fabric is unobserved; attaching a
:class:`~repro.faults.injector.FaultInjector` forces all three onto the
general per-leg path. These tests pin the contract that the batch is
*equivalent* to its per-leg spelling with the injector in place: identical
meter/ledger totals, identical latencies and outcomes, and identical RNG
consumption — so a fault-injected sweep cannot diverge depending on which
spelling a protocol happens to use.
"""

import pytest

from repro.core.fabric import MessageFabric
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.network.bandwidth import TrafficCategory
from repro.network.topology import EuclideanTopology
from repro.network.transport import TRANSFER_HEADER_BYTES, Transport

LEGS = [(0, 1, 512), (0, 2, 2048), (1, 2, 128)]


def _faulted_fabric(plan: FaultPlan, seed: int = 42) -> MessageFabric:
    coords = {0: (0.0, 0.0), 1: (30.0, 0.0), 2: (0.0, 40.0)}
    transport = Transport(topology=EuclideanTopology(dict(coords)))
    fabric = MessageFabric(transport)
    fabric.attach_faults(FaultInjector(plan, transport, seed=seed))
    return fabric


class TestSystemBatchUnderFaults:
    """System-plane batches bypass the injector — exactly like per-leg."""

    def test_batch_matches_per_leg_sends_with_injector_attached(self):
        plan = FaultPlan(loss_rate=1.0, retry=RetryPolicy(max_attempts=3))
        batched = _faulted_fabric(plan)
        per_leg = _faulted_fabric(plan)
        category = TrafficCategory.DIRECTORY_MIGRATION

        batch_latency = batched.send_system_batch(LEGS, category)
        leg_latency = max(
            per_leg.send_system(src, dst, num_bytes, category)
            for src, dst, num_bytes in LEGS
        )

        assert batch_latency == pytest.approx(leg_latency)
        assert batch_latency > 0.0  # the topology actually priced the legs
        assert batched.transport.meter == per_leg.transport.meter
        assert (
            batched.transport.messages_attempted
            == per_leg.transport.messages_attempted
            == len(LEGS)
        )
        assert (
            batched.transport.bytes_attempted
            == per_leg.transport.bytes_attempted
        )
        assert batched.stats.dispatches == per_leg.stats.dispatches == len(LEGS)

    def test_injector_never_sees_the_batch(self):
        plan = FaultPlan(loss_rate=1.0)
        fabric = _faulted_fabric(plan)
        fabric.send_system_batch(LEGS, TrafficCategory.DIRECTORY_MIGRATION)
        assert fabric.faults.stats.dropped == 0
        assert fabric.faults.stats.bytes_attempted == 0

    def test_batch_makes_no_random_draws(self):
        fabric = _faulted_fabric(FaultPlan(loss_rate=0.5))
        before = fabric.faults._rng.getstate()
        fabric.send_system_batch(LEGS, TrafficCategory.DIRECTORY_MIGRATION)
        assert fabric.faults._rng.getstate() == before


class TestExchangeUnderFaults:
    """A digest exchange is its two best-effort legs, draw for draw."""

    CATEGORY = TrafficCategory.ANTI_ENTROPY

    def _per_leg_exchange(self, fabric: MessageFabric):
        forward = fabric.send(0, 1, 300, self.CATEGORY, reliable=False)
        if not forward.ok:
            return (False, False)
        reverse = fabric.send(1, 0, 700, self.CATEGORY, reliable=False)
        return (True, reverse.ok)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_exchange_matches_per_leg_sends_seed_for_seed(self, seed):
        plan = FaultPlan(loss_rate=0.5)
        exchanged = _faulted_fabric(plan, seed=seed)
        per_leg = _faulted_fabric(plan, seed=seed)

        assert exchanged.send_exchange(
            0, 1, 300, 700, self.CATEGORY
        ) == self._per_leg_exchange(per_leg)
        assert exchanged.transport.meter == per_leg.transport.meter
        assert (
            exchanged.transport.messages_attempted
            == per_leg.transport.messages_attempted
        )
        assert (
            exchanged.transport.bytes_attempted
            == per_leg.transport.bytes_attempted
        )
        assert exchanged.stats.dispatches == per_leg.stats.dispatches
        # Same RNG draw count: the exchange consumes exactly what its
        # per-leg spelling would, so downstream seeded behaviour agrees.
        assert (
            exchanged.faults._rng.getstate()
            == per_leg.faults._rng.getstate()
        )

    def test_lossless_exchange_delivers_both_legs(self):
        fabric = _faulted_fabric(FaultPlan())
        assert fabric.send_exchange(0, 1, 300, 700, self.CATEGORY) == (
            True,
            True,
        )
        assert fabric.transport.messages_attempted == 2
        assert fabric.transport.bytes_attempted == 1000


class TestFanoutUnderFaults:
    """An update's holder legs are reliable document pushes, draw for draw."""

    CATEGORY = TrafficCategory.UPDATE_FANOUT
    HOLDERS = [1, 2, 1, 2, 2, 1]
    BODY = 900

    def _per_leg_fanout(self, fabric: MessageFabric):
        return [
            fabric.send_document(
                0, holder, self.BODY, self.CATEGORY, reliable=True
            )
            for holder in self.HOLDERS
        ]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_fanout_matches_per_leg_sends_seed_for_seed(self, seed):
        plan = FaultPlan(loss_rate=0.5, retry=RetryPolicy(max_attempts=3))
        fanned = _faulted_fabric(plan, seed=seed)
        per_leg = _faulted_fabric(plan, seed=seed)

        pushes = fanned.send_fanout(0, self.HOLDERS, self.BODY, self.CATEGORY)

        # Per-leg outcome, latency (timeouts and backoff included) and
        # attempt count, in holder order.
        assert pushes == self._per_leg_fanout(per_leg)
        assert fanned.transport.meter == per_leg.transport.meter
        assert (
            fanned.transport.messages_attempted
            == per_leg.transport.messages_attempted
        )
        assert (
            fanned.transport.bytes_attempted == per_leg.transport.bytes_attempted
        )
        assert fanned.stats == per_leg.stats
        assert fanned.faults.stats == per_leg.faults.stats
        assert fanned.faults._rng.getstate() == per_leg.faults._rng.getstate()

    def test_loss_bites_and_retries_are_per_leg(self):
        plan = FaultPlan(loss_rate=0.5, retry=RetryPolicy(max_attempts=3))
        outcomes = set()
        retries = 0
        for seed in range(1, 9):
            fabric = _faulted_fabric(plan, seed=seed)
            pushes = fabric.send_fanout(0, self.HOLDERS, self.BODY, self.CATEGORY)
            outcomes.update(push.ok for push in pushes)
            retries += fabric.stats.retries
        assert outcomes == {True, False}
        assert retries > 0

    def test_unobserved_fanout_is_one_transaction_with_the_same_totals(self):
        def bare_fabric() -> MessageFabric:
            fabric = _faulted_fabric(FaultPlan())
            fabric.detach_faults()
            assert fabric._fast_path
            return fabric

        fanned, per_leg = bare_fabric(), bare_fabric()
        pushes = fanned.send_fanout(0, self.HOLDERS, self.BODY, self.CATEGORY)
        assert pushes == self._per_leg_fanout(per_leg)
        assert all(push.latency > 0.0 for push in pushes)  # topology priced them
        assert fanned.transport.meter == per_leg.transport.meter
        assert fanned.transport.bytes_attempted == per_leg.transport.bytes_attempted
        assert fanned.transport.bytes_attempted == len(self.HOLDERS) * (
            self.BODY + TRANSFER_HEADER_BYTES
        )
        assert fanned.stats == per_leg.stats
        assert fanned.stats.dispatches == len(self.HOLDERS)

    def test_empty_fanout_sends_nothing(self):
        fabric = _faulted_fabric(FaultPlan(loss_rate=0.5))
        before = fabric.faults._rng.getstate()
        assert fabric.send_fanout(0, [], self.BODY, self.CATEGORY) == []
        assert fabric.stats.dispatches == 0
        assert fabric.transport.messages_attempted == 0
        assert fabric.faults._rng.getstate() == before

    def test_bodyless_fanout_is_rejected_like_a_bodyless_document(self):
        fabric = _faulted_fabric(FaultPlan())
        with pytest.raises(ValueError):
            fabric.send_fanout(0, self.HOLDERS, 0, self.CATEGORY)

"""Unit tests for the fault plan and the seeded injector."""

import pytest

from repro.faults.injector import FaultInjector, FaultStats
from repro.faults.plan import NO_FAULTS, FaultPlan, RetryPolicy
from repro.network.bandwidth import TrafficCategory
from repro.network.transport import (
    CONTROL_MESSAGE_BYTES,
    TRANSFER_HEADER_BYTES,
    Transport,
)


class TestRetryPolicy:
    def test_defaults_valid(self):
        policy = RetryPolicy()
        assert policy.max_attempts >= 1

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_base_minutes=0.25, backoff_factor=2.0)
        assert policy.backoff_minutes(0) == 0.25
        assert policy.backoff_minutes(1) == 0.5
        assert policy.backoff_minutes(2) == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"timeout_minutes": -1.0},
            {"backoff_base_minutes": -0.1},
            {"backoff_factor": 0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestFaultPlan:
    def test_no_faults_is_disabled(self):
        assert not NO_FAULTS.enabled

    def test_any_rate_enables(self):
        assert FaultPlan(loss_rate=0.1).enabled
        assert FaultPlan(duplicate_rate=0.1).enabled
        assert FaultPlan(delay_rate=0.1, delay_minutes=1.0).enabled
        assert FaultPlan(partitioned_links=((0, 1),)).enabled
        assert FaultPlan(category_loss=(("control", 0.5),)).enabled
        assert FaultPlan(link_loss=((0, 1, 0.5),)).enabled

    def test_zero_overrides_do_not_enable(self):
        assert not FaultPlan(category_loss=(("control", 0.0),)).enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss_rate": 1.5},
            {"duplicate_rate": -0.1},
            {"delay_minutes": -1.0},
            {"category_loss": (("bogus", 0.5),)},
            {"category_loss": (("control", 2.0),)},
            {"link_loss": ((0, 1, -0.5),)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_partition_is_undirected(self):
        plan = FaultPlan(partitioned_links=((3, 1),))
        assert plan.is_partitioned(1, 3)
        assert plan.is_partitioned(3, 1)
        assert not plan.is_partitioned(1, 2)

    def test_loss_precedence_link_over_category_over_default(self):
        plan = FaultPlan(
            loss_rate=0.1,
            category_loss=(("control", 0.2),),
            link_loss=((0, 1, 0.9),),
        )
        assert plan.loss_for(TrafficCategory.CONTROL, 1, 0) == 0.9
        assert plan.loss_for(TrafficCategory.CONTROL, 0, 2) == 0.2
        assert plan.loss_for(TrafficCategory.PEER_TRANSFER, 0, 2) == 0.1

    def test_plan_is_hashable_and_frozen(self):
        plan = FaultPlan(loss_rate=0.5)
        hash(plan)
        with pytest.raises(AttributeError):
            plan.loss_rate = 0.1


class TestTransientPartitions:
    def test_heals_at_heal_minute(self):
        plan = FaultPlan(partitioned_links=((0, 1, 5.0),))
        assert plan.is_partitioned(0, 1, now=0.0)
        assert plan.is_partitioned(1, 0, now=4.99)
        assert not plan.is_partitioned(0, 1, now=5.0)  # heal bound inclusive
        assert not plan.is_partitioned(0, 1, now=100.0)

    def test_two_tuple_never_heals(self):
        plan = FaultPlan(partitioned_links=((0, 1),))
        assert plan.is_partitioned(0, 1, now=1e9)

    def test_mixed_entries_checked_independently(self):
        plan = FaultPlan(partitioned_links=((0, 1, 2.0), (2, 3)))
        assert not plan.is_partitioned(0, 1, now=3.0)
        assert plan.is_partitioned(2, 3, now=3.0)
        assert plan.is_partitioned(3, 2, now=3.0)

    def test_transient_plan_is_hashable(self):
        hash(FaultPlan(partitioned_links=((0, 1, 5.0),)))

    @pytest.mark.parametrize(
        "entry", [(0,), (0, 1, 2.0, 3.0), (0, 1, -1.0)]
    )
    def test_validation(self, entry):
        with pytest.raises(ValueError):
            FaultPlan(partitioned_links=(entry,))


class TestFaultInjector:
    def test_zero_plan_is_pure_passthrough(self):
        """A zero plan charges the meter exactly like a bare transport and
        consumes no randomness at all."""
        bare = Transport()
        faulty = Transport()
        injector = FaultInjector(NO_FAULTS, faulty)
        state_before = injector._rng.getstate()
        for src, dst in [(0, 1), (1, 2), (2, 0)]:
            expected = bare.send_control(src, dst)
            assert injector.deliver_control(src, dst) == expected
            expected = bare.send_document(
                src, dst, 4096, TrafficCategory.PEER_TRANSFER
            )
            assert (
                injector.deliver_document(
                    src, dst, 4096, TrafficCategory.PEER_TRANSFER
                )
                == expected
            )
        assert injector._rng.getstate() == state_before
        assert bare.meter == faulty.meter
        assert injector.stats.dropped == 0
        assert injector.stats.delivered == 6

    def test_certain_loss_drops_everything(self):
        injector = FaultInjector(FaultPlan(loss_rate=1.0), Transport())
        for _ in range(5):
            assert injector.deliver_control(0, 1) is None
        assert injector.stats.dropped == 5
        assert injector.stats.delivered == 0

    def test_dropped_messages_still_charge_the_meter(self):
        transport = Transport()
        injector = FaultInjector(FaultPlan(loss_rate=1.0), transport)
        injector.deliver_control(0, 1)
        assert transport.meter.total_bytes == CONTROL_MESSAGE_BYTES

    def test_partition_drops_without_rng(self):
        injector = FaultInjector(
            FaultPlan(partitioned_links=((0, 1),)), Transport()
        )
        state_before = injector._rng.getstate()
        assert injector.deliver_control(1, 0) is None
        assert injector._rng.getstate() == state_before
        assert injector.deliver_control(0, 2) is not None

    def test_duplicates_charge_twice(self):
        transport = Transport()
        injector = FaultInjector(FaultPlan(duplicate_rate=1.0), transport)
        latency = injector.deliver_control(0, 1)
        assert latency is not None
        assert transport.meter.total_bytes == 2 * CONTROL_MESSAGE_BYTES
        assert injector.stats.duplicated == 1

    def test_delay_adds_latency(self):
        injector = FaultInjector(
            FaultPlan(delay_rate=1.0, delay_minutes=2.5), Transport()
        )
        assert injector.deliver_control(0, 1) == pytest.approx(2.5)
        assert injector.stats.delayed == 1

    def test_document_includes_header(self):
        transport = Transport()
        injector = FaultInjector(NO_FAULTS, transport)
        injector.deliver_document(0, 1, 1000, TrafficCategory.PEER_TRANSFER)
        assert transport.meter.total_bytes == 1000 + TRANSFER_HEADER_BYTES

    def test_document_requires_positive_size(self):
        injector = FaultInjector(NO_FAULTS, Transport())
        with pytest.raises(ValueError):
            injector.deliver_document(0, 1, 0, TrafficCategory.PEER_TRANSFER)

    def test_same_seed_same_fault_sequence(self):
        plan = FaultPlan(seed=11, loss_rate=0.4)
        outcomes = []
        for _ in range(2):
            injector = FaultInjector(plan, Transport())
            outcomes.append(
                [injector.deliver_control(0, 1) is None for _ in range(50)]
            )
        assert outcomes[0] == outcomes[1]
        assert any(outcomes[0])  # some drops
        assert not all(outcomes[0])  # some deliveries

    def test_seed_override_changes_sequence(self):
        plan = FaultPlan(seed=11, loss_rate=0.4)
        a = FaultInjector(plan, Transport())
        b = FaultInjector(plan, Transport(), seed=999)
        seq_a = [a.deliver_control(0, 1) is None for _ in range(100)]
        seq_b = [b.deliver_control(0, 1) is None for _ in range(100)]
        assert seq_a != seq_b

    def test_drops_decompose_by_category(self):
        injector = FaultInjector(
            FaultPlan(category_loss=(("control", 1.0),)), Transport()
        )
        injector.deliver_control(0, 1)
        assert injector.deliver_document(
            0, 1, 100, TrafficCategory.PEER_TRANSFER
        ) is not None
        assert injector.stats.dropped_by_category == {"control": 1}

    def test_stats_attempts(self):
        stats = FaultStats(delivered=3, dropped=2)
        assert stats.attempts == 5
        assert stats.as_dict()["messages_dropped"] == 2.0

    def test_without_clock_transient_partition_acts_permanent(self):
        # Time is pinned at 0.0, which is always before the heal minute.
        injector = FaultInjector(
            FaultPlan(partitioned_links=((0, 1, 5.0),)), Transport()
        )
        for _ in range(3):
            assert injector.deliver_control(0, 1) is None

    def test_clock_heals_transient_partition(self):
        now = [0.0]
        injector = FaultInjector(
            FaultPlan(partitioned_links=((0, 1, 5.0),)),
            Transport(),
            clock=lambda: now[0],
        )
        assert injector.deliver_control(0, 1) is None
        now[0] = 5.0
        assert injector.deliver_control(0, 1) is not None
        assert injector.stats.dropped == 1
        assert injector.stats.delivered == 1

    def test_bytes_attempted_counts_drops_and_duplicates(self):
        injector = FaultInjector(FaultPlan(loss_rate=1.0), Transport())
        injector.deliver_control(0, 1)
        assert injector.stats.bytes_attempted == CONTROL_MESSAGE_BYTES

        duplicator = FaultInjector(FaultPlan(duplicate_rate=1.0), Transport())
        duplicator.deliver_control(0, 1)
        assert duplicator.stats.bytes_attempted == 2 * CONTROL_MESSAGE_BYTES

    def test_attempt_ledger_matches_transport(self):
        transport = Transport()
        injector = FaultInjector(
            FaultPlan(seed=9, loss_rate=0.5, duplicate_rate=0.3), transport
        )
        for i in range(50):
            injector.deliver_control(i % 4, (i + 1) % 4)
        assert injector.stats.bytes_attempted == transport.bytes_attempted
        assert transport.meter.total_bytes == transport.bytes_attempted

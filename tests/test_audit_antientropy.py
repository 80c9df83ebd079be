"""Unit tests for the anti-entropy repair process.

Three contracts:

1. A disabled (or never-cycled) process is a strict no-op — zero-fault
   runs stay value-identical to a cloud without it.
2. Each divergence kind (stale holder, orphan copy, dangling entry,
   misplaced entry) is repaired by a sweep, within the byte budget, and
   counted.
3. Repairs are deterministic, schedulable, churn-reactive, and survive
   their own repair messages being lost.
"""

import pytest

from repro.audit.antientropy import AntiEntropyConfig, AntiEntropyProcess
from repro.audit.invariants import InvariantAuditor
from repro.core.elastic import ElasticConfig
from repro.core.overload import OverloadConfig
from repro.experiments.runner import run_experiment
from repro.faults.churn import ChurnEvent, ChurnSchedule
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.network.bandwidth import TrafficCategory
from repro.network.transport import TRANSFER_HEADER_BYTES
from repro.simulation.engine import Simulator
from tests.conftest import make_cloud


def _drive(cloud, steps=40):
    results = []
    for i in range(steps):
        result = cloud.handle_request(
            i % len(cloud.caches), (7 * i) % len(cloud.corpus), now=float(i)
        )
        results.append((result.outcome, result.latency_ms, result.served_by))
        if i % 5 == 4:
            cloud.handle_update((3 * i) % len(cloud.corpus), now=float(i))
    return results


def _plant_stale(cloud, doc_id=5):
    """A registered holder whose copy the origin has silently outrun."""
    requester = (cloud.beacon_for_doc(doc_id) + 1) % len(cloud.caches)
    cloud.handle_request(requester, doc_id, now=1.0)
    cloud.origin.publish_update(doc_id)
    return requester


class TestConfigValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            AntiEntropyConfig(period_minutes=0.0)
        with pytest.raises(ValueError):
            AntiEntropyConfig(max_docs_per_beacon=0)
        with pytest.raises(ValueError):
            AntiEntropyConfig(max_docs_per_cache=0)
        with pytest.raises(ValueError):
            AntiEntropyConfig(max_repair_bytes_per_cycle=-1)

    def test_backoff_factor_below_one_rejected(self):
        # Companion guard in the retry policy (see faults/plan.py).
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class TestNoOpContract:
    def test_disabled_process_is_value_identical_to_none(self, small_corpus):
        bare = make_cloud(small_corpus)
        idle = make_cloud(small_corpus)
        process = idle.attach_anti_entropy(AntiEntropyConfig(enabled=False))

        assert _drive(bare) == _drive(idle)
        assert process.run_cycle(41.0) == 0
        assert process.quiesce(42.0) == 0
        assert bare.aggregate_stats() == idle.aggregate_stats()
        assert bare.transport.meter == idle.transport.meter
        assert bare.resilience_summary() == idle.resilience_summary()
        assert process.stats.repairs == 0
        assert process.stats.cycles == 0

    def test_attached_but_never_cycled_is_value_identical(self, small_corpus):
        bare = make_cloud(small_corpus)
        idle = make_cloud(small_corpus)
        idle.attach_anti_entropy()  # enabled, but nothing ever fires it
        assert _drive(bare) == _drive(idle)
        assert bare.transport.meter == idle.transport.meter
        assert bare.resilience_summary().keys() <= idle.resilience_summary().keys()

    def test_disabled_start_never_schedules(self, small_corpus):
        cloud = make_cloud(small_corpus)
        simulator = Simulator()
        process = cloud.attach_anti_entropy(
            AntiEntropyConfig(enabled=False), simulator
        )
        simulator.run_until(100.0)
        assert process.stats.cycles == 0
        assert cloud.transport.meter.bytes_for(TrafficCategory.ANTI_ENTROPY) == 0

    def test_attach_is_idempotent(self, small_corpus):
        cloud = make_cloud(small_corpus)
        first = cloud.attach_anti_entropy()
        assert cloud.attach_anti_entropy() is first


class TestRepairs:
    def test_stale_holder_refreshed(self, small_corpus):
        cloud = make_cloud(small_corpus)
        process = cloud.attach_anti_entropy()
        holder = _plant_stale(cloud)
        assert process.run_cycle(2.0) == 1
        assert process.stats.stale_refreshed == 1
        copy = cloud.caches[holder].copy_of(5)
        assert copy.version == cloud.origin.version_of(5)
        # The refresh body travelled under the repair category.
        assert cloud.transport.meter.bytes_for(TrafficCategory.ANTI_ENTROPY) > 0

    def test_orphan_copy_reregistered(self, small_corpus):
        cloud = make_cloud(small_corpus)
        process = cloud.attach_anti_entropy()
        cloud.caches[0].admit(5, 1024, cloud.origin.version_of(5), now=1.0)
        assert process.run_cycle(2.0) == 1
        assert process.stats.orphans_registered == 1
        beacon = cloud.beacon_for_doc(5)
        assert 0 in cloud.beacons[beacon].directory.holders(5)

    def test_dangling_entry_scrubbed(self, small_corpus):
        cloud = make_cloud(small_corpus)
        process = cloud.attach_anti_entropy()
        beacon = cloud.beacon_for_doc(5)
        cloud.beacons[beacon].directory.add_holder(5, cloud.doc_irh(5), 0)
        assert process.run_cycle(1.0) == 1
        assert process.stats.dangling_scrubbed == 1
        assert 0 not in cloud.beacons[beacon].directory.holders(5)

    def test_dead_holder_scrubbed(self, small_corpus):
        cloud = make_cloud(small_corpus)
        process = cloud.attach_anti_entropy()
        holder = _plant_stale(cloud)
        cloud.caches[holder].alive = False
        beacon = cloud.beacon_for_doc(5)
        # The beacon itself holds a copy too after the cloud transfer; only
        # the dead holder's entry must go.
        process.run_cycle(2.0, exhaustive=True)
        assert process.stats.dangling_scrubbed >= 1
        assert holder not in cloud.beacons[beacon].directory.holders(5)

    def test_misplaced_entry_migrated(self, small_corpus):
        cloud = make_cloud(small_corpus)
        process = cloud.attach_anti_entropy()
        beacon = cloud.beacon_for_doc(5)
        other = next(b for b in cloud.beacons if b != beacon)
        cloud.caches[0].admit(5, 1024, cloud.origin.version_of(5), now=1.0)
        cloud.beacons[other].directory.add_holder(5, cloud.doc_irh(5), 0)
        process.run_cycle(2.0)
        assert process.stats.entries_migrated == 1
        assert not cloud.beacons[other].directory.knows(5)
        assert 0 in cloud.beacons[beacon].directory.holders(5)

    def test_quiesce_converges_to_clean_audit(self, small_corpus):
        cloud = make_cloud(small_corpus)
        process = cloud.attach_anti_entropy()
        _drive(cloud)
        # Plant a chain: an orphan that is also stale, plus a dangling entry.
        cloud.caches[1].admit(9, 1024, 0, now=40.0)
        cloud.origin.publish_update(9)
        beacon = cloud.beacon_for_doc(13)
        cloud.beacons[beacon].directory.add_holder(13, cloud.doc_irh(13), 2)
        assert process.quiesce(41.0) > 0
        report = InvariantAuditor().audit(cloud)
        assert report.ok, report.render()


class TestBudget:
    def test_zero_budget_invalidates_instead_of_refreshing(self, small_corpus):
        cloud = make_cloud(small_corpus)
        process = cloud.attach_anti_entropy(
            AntiEntropyConfig(max_repair_bytes_per_cycle=0)
        )
        holder = _plant_stale(cloud)
        assert process.run_cycle(2.0) >= 1
        assert process.stats.stale_refreshed == 0
        assert process.stats.stale_invalidated >= 1
        assert not cloud.caches[holder].holds(5)
        beacon = cloud.beacon_for_doc(5)
        assert holder not in cloud.beacons[beacon].directory.holders(5)

    def test_budget_bounds_refresh_bytes_per_cycle(self, small_corpus):
        body = 1024 + TRANSFER_HEADER_BYTES  # fixed-size corpus documents
        budget = 2 * body
        cloud = make_cloud(small_corpus)
        process = cloud.attach_anti_entropy(
            AntiEntropyConfig(max_repair_bytes_per_cycle=budget)
        )
        for i in range(6):
            cloud.handle_request(i % len(cloud.caches), 10 + i, now=1.0)
            cloud.origin.publish_update(10 + i)
        process.run_cycle(2.0)
        assert process.stats.refresh_bytes <= budget
        assert process.stats.stale_refreshed == 2
        # The rest of the stale set still converged, just the cheap way.
        assert process.stats.stale_invalidated >= 1


class TestDeterminismAndScheduling:
    def test_identical_runs_produce_identical_stats(self, small_corpus):
        snapshots = []
        for _ in range(2):
            cloud = make_cloud(small_corpus)
            process = cloud.attach_anti_entropy(
                AntiEntropyConfig(max_docs_per_beacon=4, max_docs_per_cache=4)
            )
            injector = FaultInjector(
                FaultPlan(seed=11, loss_rate=0.25), cloud.transport
            )
            cloud.attach_faults(injector)
            for i in range(40):
                cloud.handle_request(
                    i % len(cloud.caches), (7 * i) % len(cloud.corpus), now=float(i)
                )
                if i % 5 == 4:
                    cloud.handle_update((3 * i) % len(cloud.corpus), now=float(i))
                if i % 10 == 9:
                    process.run_cycle(float(i))
            snapshots.append(
                (process.stats.as_dict(), dict(cloud.transport.meter._bytes))
            )
        assert snapshots[0] == snapshots[1]

    def test_periodic_scheduling_runs_cycles(self, small_corpus):
        cloud = make_cloud(small_corpus)
        simulator = Simulator()
        process = cloud.attach_anti_entropy(
            AntiEntropyConfig(period_minutes=5.0), simulator
        )
        _plant_stale(cloud)
        simulator.run_until(20.0)
        assert process.stats.cycles >= 3
        assert process.stats.stale_refreshed == 1
        process.stop()
        cycles = process.stats.cycles
        simulator.run_until(40.0)
        assert process.stats.cycles == cycles

    def test_default_period_is_cloud_cycle_length(self, small_corpus):
        cloud = make_cloud(small_corpus)  # cycle_length=10
        simulator = Simulator()
        process = cloud.attach_anti_entropy(AntiEntropyConfig(), simulator)
        simulator.run_until(30.0)
        assert process.stats.cycles == 3


class TestChurnHook:
    def _cloud_with_hooked_schedule(self, corpus, **config_overrides):
        cloud = make_cloud(corpus, failure_resilience=True)
        process = cloud.attach_anti_entropy(
            AntiEntropyConfig(**config_overrides)
        )
        schedule = ChurnSchedule([])
        schedule.add_hook(process.on_churn_event)
        return cloud, process, schedule

    def test_sweep_fires_after_recovery(self, small_corpus):
        cloud, process, schedule = self._cloud_with_hooked_schedule(small_corpus)
        schedule.apply(cloud, ChurnEvent(1.0, 1, "fail"), 1.0)
        assert process.stats.cycles == 0  # failures alone trigger nothing
        schedule.apply(cloud, ChurnEvent(2.0, 1, "recover"), 2.0)
        assert process.stats.cycles == 1

    def test_skipped_recovery_does_not_fire(self, small_corpus):
        cloud, process, schedule = self._cloud_with_hooked_schedule(small_corpus)
        schedule.apply(cloud, ChurnEvent(1.0, 1, "recover"), 1.0)  # already live
        assert schedule.stats.skipped == 1
        assert process.stats.cycles == 0

    def test_repair_on_recovery_opt_out(self, small_corpus):
        cloud, process, schedule = self._cloud_with_hooked_schedule(
            small_corpus, repair_on_recovery=False
        )
        schedule.apply(cloud, ChurnEvent(1.0, 1, "fail"), 1.0)
        schedule.apply(cloud, ChurnEvent(2.0, 1, "recover"), 2.0)
        assert process.stats.cycles == 0

    def test_sweep_fires_after_a_warm_join(self, small_corpus):
        """An elastic warm join *is* a recovery, so ``run_experiment`` hooks
        the repair sweep to the controller as it does to the churn schedule
        (it used to hook the schedule only, and the hook matched ``recover``
        only: a re-instantiated node waited for the next periodic sweep)."""
        cloud = make_cloud(small_corpus, num_caches=6, failure_resilience=True)
        run_experiment(
            cloud.config,
            small_corpus,
            [],
            [],
            duration=5.0,
            cloud=cloud,
            overload=OverloadConfig(),
            elastic=ElasticConfig(initial_caches=5),
            # No periodic sweep falls inside the run: every cycle counted
            # below is the hook's.
            anti_entropy=AntiEntropyConfig(period_minutes=100.0),
        )
        assert cloud.anti_entropy.stats.cycles == 0
        standby = cloud.failure_manager.retired()[0]
        cloud.elastic.instantiate_node(standby, 6.0)
        assert cloud.anti_entropy.stats.cycles == 1


class TestLossyRepairs:
    def test_lost_repair_messages_are_counted_not_fatal(self, small_corpus):
        cloud = make_cloud(small_corpus)
        process = cloud.attach_anti_entropy()
        holder = _plant_stale(cloud)
        injector = FaultInjector(
            FaultPlan(seed=5, loss_rate=1.0), cloud.transport
        )
        cloud.attach_faults(injector)
        process.run_cycle(2.0)
        assert process.stats.messages_lost >= 1
        assert process.stats.stale_refreshed == 0
        copy = cloud.caches[holder].copy_of(5)
        assert copy.version < cloud.origin.version_of(5)  # still waiting
        # Heal the network: the next sweep completes the repair.
        cloud.detach_faults()
        process.run_cycle(3.0)
        assert process.stats.stale_refreshed == 1

"""Unit tests for the experiment driver."""

import pytest

from repro.core.config import AssignmentScheme, CloudConfig, PlacementScheme
from repro.experiments.runner import TraceFeeder, run_experiment
from repro.simulation.engine import Simulator
from repro.core.cloud import CacheCloud
from repro.workload.documents import build_corpus
from repro.workload.trace import RequestRecord, Trace, UpdateRecord


@pytest.fixture
def corpus():
    return build_corpus(30, fixed_size=1024)


def config(**overrides):
    defaults = dict(
        num_caches=4,
        num_rings=2,
        intra_gen=100,
        cycle_length=10.0,
        placement=PlacementScheme.AD_HOC,
    )
    defaults.update(overrides)
    return CloudConfig(**defaults)


def simple_trace():
    requests = [RequestRecord(float(i) * 0.5, i % 4, i % 10) for i in range(40)]
    updates = [UpdateRecord(float(i) + 0.25, i % 10) for i in range(15)]
    return Trace(requests=requests, updates=updates)


class TestTraceFeeder:
    def test_feeds_all_records_in_order(self, corpus):
        sim = Simulator()
        cloud = CacheCloud(config(), corpus)
        trace = simple_trace()
        feeder = TraceFeeder(sim, cloud, trace.merged())
        feeder.start()
        sim.run_until(100.0)
        assert feeder.records_fed == len(trace)
        assert cloud.requests_handled == 40
        assert cloud.updates_handled == 15

    def test_one_event_in_flight(self, corpus):
        sim = Simulator()
        cloud = CacheCloud(config(), corpus)
        feeder = TraceFeeder(sim, cloud, simple_trace().merged())
        feeder.start()
        assert sim.pending_events == 1  # never the whole trace


class TestRunExperiment:
    def test_validation(self, corpus):
        with pytest.raises(ValueError):
            run_experiment(config(), corpus, [], [], duration=0.0)
        with pytest.raises(ValueError):
            run_experiment(config(), corpus, [], [], duration=10.0, warmup=10.0)

    def test_result_fields_populated(self, corpus):
        trace = simple_trace()
        result = run_experiment(
            config(), corpus, trace.requests, trace.updates, duration=30.0, warmup=5.0
        )
        assert result.duration == 30.0
        assert result.warmup == 5.0
        assert set(result.beacon_loads) == {0, 1, 2, 3}
        assert result.load_stats is not None
        assert result.requests == 40
        assert result.updates == 15
        assert result.cloud is not None
        assert 0.0 <= result.docs_stored_percent <= 100.0

    def test_warmup_resets_counters(self, corpus):
        trace = simple_trace()
        # All records land before t=20; with warmup at 21 every counter the
        # result reports must be zero.
        result = run_experiment(
            config(),
            corpus,
            trace.requests,
            trace.updates,
            duration=30.0,
            warmup=21.0,
        )
        assert all(load == 0 for load in result.beacon_loads.values())
        assert result.traffic.total_bytes == 0
        assert result.stats.requests == 0

    def test_warmup_reset_rebases_the_injector_with_the_ledger(self, corpus):
        # Regression: the warm-up reset zeroed the transport's attempt
        # ledger but not the injector's twin of it, so every warmed-up run
        # with a fault plan failed the auditor's conservation check with a
        # false *hard* "injector attempted more bytes than the ledger".
        from repro.faults.plan import FaultPlan

        trace = simple_trace()
        result = run_experiment(
            config(),
            corpus,
            trace.requests,
            trace.updates,
            duration=30.0,
            warmup=10.0,
            fault_plan=FaultPlan(seed=4, loss_rate=0.2),
            audit=True,
        )
        injector = result.cloud.faults
        assert injector.stats.dropped > 0
        assert result.audit["audit_meter_mismatch"] == 0
        assert result.audit["audit_hard"] == 0
        ledger = result.cloud.transport.bytes_attempted
        assert 0 < injector.stats.bytes_attempted <= ledger
        # Delivery fates stay cumulative: more attempts than the
        # post-warm-up ledger ever saw (the resilience goldens pin them).
        assert injector.stats.attempts > result.cloud.transport.messages_attempted

    def test_default_warmup_is_one_cycle(self, corpus):
        trace = simple_trace()
        result = run_experiment(
            config(cycle_length=8.0),
            corpus,
            trace.requests,
            trace.updates,
            duration=30.0,
        )
        assert result.warmup == 8.0

    def test_loads_are_per_unit_time(self, corpus):
        trace = simple_trace()
        result = run_experiment(
            config(), corpus, trace.requests, trace.updates, duration=40.0, warmup=0.0
        )
        total_handled = sum(b.total_load for b in result.cloud.beacons.values())
        assert sum(result.beacon_loads.values()) == pytest.approx(
            total_handled / 40.0
        )

    def test_cycles_attached(self, corpus):
        trace = simple_trace()
        result = run_experiment(
            config(cycle_length=5.0),
            corpus,
            trace.requests,
            trace.updates,
            duration=26.0,
            warmup=0.0,
        )
        assert result.cloud.cycles_run == 5

    def test_sorted_loads_descending(self, corpus):
        trace = simple_trace()
        result = run_experiment(
            config(), corpus, trace.requests, trace.updates, duration=30.0, warmup=0.0
        )
        loads = result.sorted_loads()
        assert loads == sorted(loads, reverse=True)


class TestCommonRandomNumbers:
    def test_same_trace_two_schemes_same_total_load(self, corpus):
        """Static and dynamic see identical workloads (CRN comparisons)."""
        trace = simple_trace()
        static = run_experiment(
            config(assignment=AssignmentScheme.STATIC),
            corpus,
            trace.requests,
            trace.updates,
            duration=30.0,
            warmup=0.0,
        )
        dynamic = run_experiment(
            config(assignment=AssignmentScheme.DYNAMIC),
            corpus,
            trace.requests,
            trace.updates,
            duration=30.0,
            warmup=0.0,
        )
        assert static.requests == dynamic.requests
        assert static.updates == dynamic.updates

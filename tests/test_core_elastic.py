"""Elastic sizing: watermark policy, warm join, safe drain, scale events.

Layers of coverage:

1. :class:`~repro.core.elastic.ElasticConfig` validation and attach-time
   requirements (overload signals + failure resilience are mandatory).
2. Membership mechanics: initial sizing, warm join, retirement, the
   standby discipline (crash-downed nodes are not standbys), and ring
   coverage guards.
3. The safe-drain contract: every pre-drain resident document is handed
   off or *explicitly* invalidated — counters account for all of them,
   bytes are charged, staleness and the byte budget divert to
   invalidation, and the invariant auditor stays clean.
4. Hysteresis: equal watermarks and ``cooldown=0`` must converge, never
   flap membership; cooldown actually blocks consecutive changes.
5. Scripted ``instantiate``/``retire`` churn events: routed through the
   controller, counted apart from crashes, skipped without one, and the
   ``ChurnStats.as_dict`` schema stays legacy-identical until they run.
6. Churn/retirement queue hygiene and the REJECTED-latency contract.
7. A hypothesis property: *any* scale sequence keeps the cloud sound.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.invariants import InvariantAuditor
from repro.core import elastic
from repro.core.elastic import ElasticConfig, ElasticController
from repro.core.node import RequestOutcome
from repro.core.overload import OverloadConfig
from repro.faults.churn import (
    FAIL,
    INSTANTIATE,
    RECOVER,
    RETIRE,
    ChurnEvent,
    ChurnSchedule,
    ChurnStats,
)
from repro.network.transport import TRANSFER_HEADER_BYTES
from repro.observe import Telemetry
from repro.observe.flight import FlightRecorder, window_series
from repro.workload.documents import build_corpus
from tests.conftest import make_cloud


def elastic_cloud(corpus, num_caches=6, overload=None, **config_kwargs):
    """A resilient cloud with overload + elastic controllers attached."""
    cloud = make_cloud(
        corpus, num_caches=num_caches, num_rings=2, failure_resilience=True
    )
    cloud.attach_overload(overload if overload is not None else OverloadConfig())
    controller = cloud.attach_elastic(ElasticConfig(**config_kwargs))
    return cloud, controller


def watermarks(monkeypatch, out=None, in_=None, rejection=None):
    """Move the module's scale-out / scale-in watermarks for one test."""
    for name, value in (
        ("SCALE_OUT_DEPTH", out),
        ("SCALE_IN_DEPTH", in_),
        ("SCALE_OUT_REJECTION", rejection),
    ):
        if value is not None:
            monkeypatch.setattr(elastic, name, value)


def feed(controller, now, depth, rejected=0, admitted=10):
    """Advance the overload counters so the window mean depth is ``depth``,
    then run one controller check."""
    stats = controller.cloud.overload.stats
    stats.queue_depth_sum += depth * 10
    stats.queue_depth_samples += 10
    stats.requests_admitted += admitted
    stats.requests_rejected += rejected
    controller.check(now)


class TestElasticConfig:
    def test_defaults_valid(self):
        config = ElasticConfig()
        assert config.min_caches == 1
        assert config.max_caches is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_caches": 0},
            {"min_caches": 4, "max_caches": 3},
            {"min_caches": 2, "initial_caches": 1},
            {"max_caches": 4, "initial_caches": 5},
            {"window_minutes": 0.0},
            {"check_period_minutes": 0.0},
            {"cooldown_minutes": -1.0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ElasticConfig(**kwargs)


class TestAttach:
    def test_requires_failure_resilience(self, small_corpus):
        cloud = make_cloud(small_corpus)
        with pytest.raises(RuntimeError):
            cloud.attach_elastic(ElasticConfig())

    def test_requires_overload_signals(self, small_corpus):
        cloud = make_cloud(small_corpus, failure_resilience=True)
        with pytest.raises(RuntimeError):
            cloud.attach_elastic(ElasticConfig())

    def test_min_caches_cannot_exceed_cloud(self, small_corpus):
        cloud = make_cloud(
            small_corpus, num_caches=4, failure_resilience=True
        )
        cloud.attach_overload(OverloadConfig())
        with pytest.raises(ValueError):
            cloud.attach_elastic(ElasticConfig(min_caches=5))

    def test_attach_is_idempotent(self, small_corpus):
        cloud, controller = elastic_cloud(small_corpus)
        assert cloud.attach_elastic(ElasticConfig()) is controller
        assert isinstance(controller, ElasticController)

    def test_resilience_summary_carries_elastic_counters(self, small_corpus):
        cloud, controller = elastic_cloud(small_corpus)
        controller.finalize(3.0)
        summary = cloud.resilience_summary()
        assert summary["elastic_node_minutes"] == pytest.approx(18.0)
        assert summary["elastic_scale_out_events"] == 0.0
        # Without a controller the schema is untouched.
        bare = make_cloud(small_corpus, failure_resilience=True)
        assert not any(
            key.startswith("elastic_") for key in bare.resilience_summary()
        )


class TestMembershipMechanics:
    def test_initial_sizing_retires_without_counting_events(
        self, small_corpus
    ):
        cloud, controller = elastic_cloud(
            small_corpus, min_caches=2, initial_caches=3
        )
        assert controller.active_count() == 3
        assert controller.stats.scale_in_events == 0
        retired = [c.cache_id for c in cloud.caches if not c.alive]
        assert len(retired) == 3
        assert all(controller.is_standby(cache_id) for cache_id in retired)

    def test_warm_join_restores_ring_and_directory_ownership(
        self, small_corpus
    ):
        cloud, controller = elastic_cloud(small_corpus, min_caches=2)
        # Populate a few documents, then bounce the highest eligible node.
        for doc_id in range(8):
            cloud.handle_request(doc_id % 6, doc_id, now=1.0)
        victim = controller._choose_victim()
        controller.retire_node(victim, 2.0)
        assert controller.is_standby(victim)
        controller.instantiate_node(victim, 3.0)
        assert cloud.caches[victim].alive
        assert not controller.is_standby(victim)
        # The rejoined node owns a sub-range again and the directory is
        # sound — a request routed anywhere must still resolve.
        assert InvariantAuditor().audit(cloud).hard_violations == 0
        result = cloud.handle_request(victim, 3, now=4.0)
        assert result.outcome is not RequestOutcome.REJECTED

    def test_instantiate_rejects_non_standby(self, small_corpus):
        _, controller = elastic_cloud(small_corpus)
        with pytest.raises(ValueError):
            controller.instantiate_node(0, 1.0)

    def test_retire_rejects_dead_node(self, small_corpus):
        cloud, controller = elastic_cloud(small_corpus, min_caches=1)
        victim = controller._choose_victim()
        controller.retire_node(victim, 1.0)
        with pytest.raises(ValueError):
            controller.retire_node(victim, 2.0)

    def test_never_retires_last_ring_member(self, small_corpus):
        # 2 caches / 2 rings: every node is the last member of its ring.
        cloud, controller = elastic_cloud(small_corpus, num_caches=2)
        assert controller._choose_victim() is None
        with pytest.raises(ValueError):
            controller.retire_node(0, 1.0)

    def test_crashed_node_is_not_a_standby(self, small_corpus):
        cloud, controller = elastic_cloud(small_corpus)
        cloud.fail_cache(5, now=1.0)
        assert not controller.is_standby(5)
        with pytest.raises(ValueError):
            controller.instantiate_node(5, 2.0)

    def test_node_minutes_integrate_membership_changes(self, small_corpus):
        _, controller = elastic_cloud(small_corpus, min_caches=2)
        victim = controller._choose_victim()
        controller.retire_node(victim, 2.0)  # 6 nodes for 2 minutes
        controller.finalize(4.0)  # then 5 nodes for 2 minutes
        assert controller.stats.node_minutes == pytest.approx(22.0)


class TestSafeDrain:
    def _populated_victim(self, corpus, **config_kwargs):
        cloud, controller = elastic_cloud(corpus, **config_kwargs)
        victim = controller._choose_victim()
        for doc_id in range(6):
            cloud.handle_request(victim, doc_id, now=1.0)
        assert len(cloud.caches[victim].storage) > 0
        return cloud, controller, victim

    def test_every_predrain_doc_is_handed_off_or_invalidated(
        self, small_corpus
    ):
        cloud, controller, victim = self._populated_victim(small_corpus)
        before = set(cloud.caches[victim].storage)
        controller.retire_node(victim, 2.0)
        stats = controller.stats
        assert stats.docs_handed_off + stats.docs_invalidated == len(before)
        assert len(cloud.caches[victim].storage) == 0
        # Fresh fitting copies moved: bytes charged, bodies resident at a
        # live cache and registered at the beacon (audited below).
        assert stats.docs_handed_off > 0
        assert stats.drain_bytes >= stats.docs_handed_off * (
            1024 + TRANSFER_HEADER_BYTES
        )
        report = InvariantAuditor().audit(cloud)
        assert report.hard_violations == 0

    def test_zero_budget_invalidates_everything_explicitly(
        self, small_corpus, monkeypatch
    ):
        monkeypatch.setattr(elastic, "DRAIN_BYTE_BUDGET", 0)
        cloud, controller, victim = self._populated_victim(small_corpus)
        before = set(cloud.caches[victim].storage)
        controller.retire_node(victim, 2.0)
        assert controller.stats.docs_handed_off == 0
        assert controller.stats.docs_invalidated == len(before)
        assert InvariantAuditor().audit(cloud).hard_violations == 0

    def test_stale_copies_are_invalidated_not_shipped(self, small_corpus):
        cloud, controller, victim = self._populated_victim(small_corpus)
        before = set(cloud.caches[victim].storage)
        # Make one resident copy stale: the origin moves on silently. Only
        # the victim holds it, so a live holder after the drain got it from
        # the drain.
        doc_id = min(before)
        assert [c.cache_id for c in cloud.caches if c.holds(doc_id)] == [victim]
        cloud.origin.publish_update(doc_id)
        controller.retire_node(victim, 2.0)
        assert not any(c.alive and c.holds(doc_id) for c in cloud.caches)
        assert controller.stats.docs_invalidated == 1
        assert controller.stats.docs_handed_off == len(before) - 1
        for other in before - {doc_id}:
            assert any(c.alive and c.holds(other) for c in cloud.caches)

    def test_retirement_directory_migrates_to_ring_successor(
        self, small_corpus
    ):
        cloud, controller, victim = self._populated_victim(small_corpus)
        controller.retire_node(victim, 2.0)
        # Every document previously beaconed at the victim resolves at a
        # live beacon now.
        for doc_id in range(len(small_corpus)):
            assert cloud.caches[cloud.beacon_for_doc(doc_id)].alive


class TestHysteresis:
    def test_equal_watermarks_do_not_flap(self, small_corpus, monkeypatch):
        watermarks(monkeypatch, out=2.0, in_=2.0)
        _, controller = elastic_cloud(
            small_corpus,
            min_caches=2,
            initial_caches=4,
            cooldown_minutes=0.0,
            window_minutes=3.0,
            check_period_minutes=1.0,
        )
        # A steady boundary signal: the out-condition wins every check, so
        # the size converges to max and *stays* there — no in/out cycling.
        for minute in range(1, 12):
            feed(controller, float(minute), depth=2)
        assert controller.active_count() == 6
        assert controller.stats.scale_out_events == 2
        assert controller.stats.scale_in_events == 0

    def test_zero_cooldown_converges_to_min_without_flapping(
        self, small_corpus, monkeypatch
    ):
        watermarks(monkeypatch, out=4.0, in_=1.0)
        _, controller = elastic_cloud(
            small_corpus,
            min_caches=2,
            cooldown_minutes=0.0,
            window_minutes=3.0,
            check_period_minutes=1.0,
        )
        for minute in range(1, 12):
            feed(controller, float(minute), depth=0)
        assert controller.active_count() == 2
        assert controller.stats.scale_in_events == 4
        assert controller.stats.scale_out_events == 0
        assert controller.stats.blocked_bounds > 0

    def test_cooldown_blocks_consecutive_changes(self, small_corpus, monkeypatch):
        watermarks(monkeypatch, out=2.0)
        _, controller = elastic_cloud(
            small_corpus,
            min_caches=2,
            initial_caches=3,
            cooldown_minutes=10.0,
            window_minutes=3.0,
            check_period_minutes=1.0,
        )
        feed(controller, 1.0, depth=5)  # observe only (window too short)
        feed(controller, 2.0, depth=5)  # scales out
        feed(controller, 3.0, depth=5)  # inside cooldown
        assert controller.stats.scale_out_events == 1
        assert controller.stats.blocked_cooldown == 1

    def test_rejection_rate_triggers_scale_out(self, small_corpus, monkeypatch):
        watermarks(monkeypatch, out=100.0, rejection=0.05)
        _, controller = elastic_cloud(
            small_corpus,
            min_caches=2,
            initial_caches=3,
            cooldown_minutes=0.0,
            window_minutes=3.0,
            check_period_minutes=1.0,
        )
        feed(controller, 1.0, depth=0, rejected=0)
        feed(controller, 2.0, depth=0, rejected=5, admitted=5)
        assert controller.stats.scale_out_events == 1

    def test_any_rejection_vetoes_scale_in(self, small_corpus, monkeypatch):
        watermarks(monkeypatch, rejection=0.5)
        _, controller = elastic_cloud(
            small_corpus,
            min_caches=2,
            cooldown_minutes=0.0,
            window_minutes=3.0,
            check_period_minutes=1.0,
        )
        feed(controller, 1.0, depth=0)
        # Quiet queues but a rejected client in the window: hold steady.
        feed(controller, 2.0, depth=0, rejected=1, admitted=99)
        assert controller.active_count() == 6
        assert controller.stats.scale_in_events == 0

    def test_warmup_reset_rebases_the_window(self, small_corpus):
        _, controller = elastic_cloud(
            small_corpus, min_caches=2, window_minutes=3.0
        )
        feed(controller, 1.0, depth=9)
        feed(controller, 2.0, depth=9)
        stats = controller.cloud.overload.stats
        stats.reset()  # the runner's warm-up reset
        evaluations = controller.stats.evaluations
        controller.check(3.0)  # counters moved backward: observe only
        assert controller.stats.evaluations == evaluations


class TestScheduledScaleEvents:
    def _schedule(self):
        return ChurnSchedule(
            [
                ChurnEvent(1.0, 5, RETIRE),
                ChurnEvent(2.0, 5, INSTANTIATE),
            ]
        )

    def test_without_controller_scale_events_are_skipped(self, small_corpus):
        cloud = make_cloud(
            small_corpus, num_caches=6, failure_resilience=True
        )
        schedule = self._schedule()
        schedule.apply_due(cloud, 3.0)
        assert schedule.stats.skipped == 2
        assert schedule.stats.scale_ins == 0
        assert "churn_scale_outs" not in schedule.stats.as_dict()

    def test_with_controller_scale_events_execute_and_count(
        self, small_corpus
    ):
        cloud, controller = elastic_cloud(small_corpus, min_caches=2)
        schedule = self._schedule()
        schedule.apply_due(cloud, 3.0)
        assert schedule.stats.scale_ins == 1
        assert schedule.stats.scale_outs == 1
        assert schedule.stats.failures == 0
        assert cloud.caches[5].alive
        summary = schedule.stats.as_dict()
        assert summary["churn_scale_outs"] == 1.0
        assert summary["churn_scale_ins"] == 1.0

    def test_crashed_node_cannot_be_instantiated_by_script(
        self, small_corpus
    ):
        cloud, controller = elastic_cloud(small_corpus, min_caches=2)
        schedule = ChurnSchedule(
            [ChurnEvent(1.0, 5, FAIL), ChurnEvent(2.0, 5, INSTANTIATE)]
        )
        schedule.apply_due(cloud, 3.0)
        assert schedule.stats.failures == 1
        assert schedule.stats.scale_outs == 0
        assert schedule.stats.skipped == 1

    def test_retired_node_cannot_be_recovered_by_script(self, small_corpus):
        """A standby is out by choice, not crashed: churn's ``recover`` leaves
        it to the controller. The two ledgers used to disagree here — the
        node came back alive *and* standby, ``active_count()`` read 6, and the
        next scale-out died with ``cache 5 is not down`` inside the check."""
        cloud, controller = elastic_cloud(
            small_corpus, min_caches=2, cooldown_minutes=0.0
        )
        controller.retire_node(5, 0.5)
        schedule = ChurnSchedule([ChurnEvent(1.0, 5, RECOVER)])
        schedule.apply_due(cloud, 2.0)
        assert schedule.stats.recoveries == 0
        assert schedule.stats.skipped == 1
        assert not cloud.caches[5].alive and controller.is_standby(5)
        assert controller.active_count() == 5
        feed(controller, 3.0, depth=0.0)  # first sample: observe only
        feed(controller, 4.0, depth=50.0)
        assert controller.stats.scale_out_events == 1
        assert cloud.caches[5].alive and not controller.is_standby(5)

    def test_legacy_as_dict_schema_without_scale_events(self):
        stats = ChurnStats(failures=1, recoveries=1)
        assert set(stats.as_dict()) == {
            "churn_failures",
            "churn_recoveries",
            "churn_skipped",
            "unavailability_minutes",
            "unavailability_windows",
        }


class TestQueueHygieneOnMembershipChange:
    def _deep_queue_cloud(self, corpus):
        cloud = make_cloud(
            corpus, num_caches=6, num_rings=2, failure_resilience=True
        )
        overload = cloud.attach_overload(
            OverloadConfig(queue_capacity=100, service_ms=60_000.0)
        )
        return cloud, overload

    def test_crash_recovery_resets_the_queue(self, small_corpus):
        cloud, overload = self._deep_queue_cloud(small_corpus)
        for _ in range(3):
            overload.admit_message(5, "control", 0)
        assert overload.depth_of(5) > 0
        cloud.fail_cache(5, now=1.0)
        cloud.recover_cache(5, now=2.0)
        assert overload.depth_of(5) == 0

    def test_retirement_resets_the_queue(self, small_corpus):
        cloud, overload = self._deep_queue_cloud(small_corpus)
        controller = cloud.attach_elastic(ElasticConfig(min_caches=2))
        victim = controller._choose_victim()
        for _ in range(3):
            overload.admit_message(victim, "control", 0)
        assert overload.depth_of(victim) > 0
        controller.retire_node(victim, 1.0)
        assert overload.depth_of(victim) == 0


class TestRejectedRequestsAndLatency:
    def test_rejected_requests_do_not_enter_the_latency_record(
        self, small_corpus
    ):
        cloud = make_cloud(small_corpus)
        cloud.attach_overload(OverloadConfig(queue_capacity=0))
        telemetry = Telemetry()
        cloud.attach_telemetry(telemetry)
        result = cloud.handle_request(0, 5, now=1.0)
        assert result.outcome is RequestOutcome.REJECTED
        # A zero-latency non-answer must not drag the percentiles down.
        assert len(telemetry.request_latencies) == 0

    def test_served_requests_are_recorded(self, small_corpus):
        cloud = make_cloud(small_corpus)
        cloud.attach_overload(OverloadConfig())
        telemetry = Telemetry()
        cloud.attach_telemetry(telemetry)
        cloud.handle_request(0, 5, now=1.0)
        assert len(telemetry.request_latencies) == 1


class TestWindowedElasticSeries:
    def test_series_present_only_with_controller(self, small_corpus):
        bare = make_cloud(small_corpus, failure_resilience=True)
        recorder = bare.attach_flight(FlightRecorder(None, window=1.0))
        bare.handle_request(0, 5, now=0.5)
        recorder.finish(2.0)
        assert not any("cloud_size" in window for window in recorder.log.windows)

    def test_cloud_size_gauge_is_read_when_the_window_closes(self, small_corpus):
        cloud, controller = elastic_cloud(small_corpus, min_caches=2)
        recorder = cloud.attach_flight(FlightRecorder(None, window=1.0))

        def request(now):
            ingress = next(cache.cache_id for cache in cloud.caches if cache.alive)
            cloud.handle_request(ingress, 5, now=now)

        request(0.2)
        controller.retire_node(controller._choose_victim(), 0.5)
        request(1.5)  # closes [0, 1) with five caches live
        controller.retire_node(controller._choose_victim(), 1.7)
        recorder.finish(2.0)  # closes [1, 2) with four
        assert window_series(recorder.log, ["cloud_size"]) == {
            "cloud_size": [(1.0, 5.0), (2.0, 4.0)]
        }


class TestScaleSequenceProperty:
    """Satellite invariant: any scale sequence keeps the cloud sound."""

    @settings(max_examples=20, deadline=None)
    @given(
        ops=st.lists(
            st.sampled_from(["out", "in", "req"]), min_size=1, max_size=24
        )
    )
    def test_any_scale_sequence_keeps_the_cloud_sound(self, ops):
        corpus = build_corpus(40, fixed_size=1024)
        cloud = make_cloud(
            corpus, num_caches=6, num_rings=2, failure_resilience=True
        )
        cloud.attach_overload(OverloadConfig())
        controller = cloud.attach_elastic(ElasticConfig(min_caches=2))
        auditor = InvariantAuditor()
        now = 0.0
        doc = 0
        for op in ops:
            now += 1.0
            if op == "req":
                for _ in range(5):
                    cloud.handle_request(doc % 6, doc % 40, now=now)
                    doc += 1
                continue
            if op == "out":
                standby = cloud.failure_manager.retired()
                if standby:
                    controller.instantiate_node(standby[0], now)
            else:
                victim = controller._choose_victim()
                if (
                    victim is None
                    or controller.active_count() <= controller.min_caches
                ):
                    continue
                before = len(cloud.caches[victim].storage)
                handed = controller.stats.docs_handed_off
                invalidated = controller.stats.docs_invalidated
                controller.retire_node(victim, now)
                moved = controller.stats.docs_handed_off - handed
                gone = controller.stats.docs_invalidated - invalidated
                # Never silent loss: the drain accounts for every copy.
                assert moved + gone == before
            assert auditor.audit(cloud).hard_violations == 0
        assert auditor.audit(cloud).hard_violations == 0

"""Equivalence net for the simulator's record source.

``TraceFeeder`` used to schedule one :class:`Event` per trace record — a
closure, an ``Event``, a heap push and a heap pop each. It now hands the
engine one time-sorted stream (``Simulator.attach_source``) and the engine
keeps a single waiting record beside the heap. That is meant to change
nothing but host time: a record takes its ``seq`` from the same counter at
the same moment the old feeder's ``schedule_at`` took it, and the loop
dispatches the smaller ``(time, priority, seq)`` of heap head and waiting
record — so records and events interleave exactly as before.

The old feeder is kept here, verbatim, as the oracle
(:class:`EventPerRecordFeeder`). Every scenario runs twice — oracle feeder
and source feeder, same engine — and compares the order in which callbacks
and records ran, ``dispatched_events``, how many sequence numbers were
consumed, the engine's end state, and for whole-pipeline scenarios the
``ExperimentResult`` fingerprint. The last class recompiles the engine with
one seam removed and requires the net to tear.
"""

from __future__ import annotations

import inspect
import textwrap
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cloud import CacheCloud
from repro.core.config import (
    WEIGHTS_ALL_ON,
    AssignmentScheme,
    CloudConfig,
    PlacementScheme,
)
from repro.core.elastic import ElasticConfig
from repro.core.overload import OverloadConfig
from repro.experiments import runner
from repro.experiments.reporting import fingerprint
from repro.experiments.runner import TraceFeeder, run_experiment
from repro.faults.churn import FAIL, RECOVER, ChurnEvent, ChurnSchedule
from repro.observe.flight import FlightRecorder
from repro.simulation import engine, events
from repro.simulation.clock import ClockError
from repro.simulation.engine import SimulationError, Simulator
from repro.simulation.events import EventPriority
from repro.workload.documents import build_corpus
from repro.workload.trace import (
    RequestRecord,
    TraceRecord,
    UpdateRecord,
    merge_streams,
)


class EventPerRecordFeeder:
    """The parent commit's ``TraceFeeder``: one scheduled event per record."""

    def __init__(
        self, simulator: Simulator, cloud: Any, stream: Iterable[TraceRecord]
    ) -> None:
        self._sim = simulator
        self._cloud = cloud
        self._iter: Iterator[TraceRecord] = iter(stream)
        self.records_fed = 0

    def start(self) -> None:
        self._schedule_next()

    def _schedule_next(self) -> None:
        record = next(self._iter, None)
        if record is None:
            return
        priority = (
            EventPriority.UPDATE
            if isinstance(record, UpdateRecord)
            else EventPriority.REQUEST
        )
        self._sim.schedule_at(
            max(record.time, self._sim.now),
            lambda r=record: self._process(r),
            priority=priority,
            label="trace-record",
        )

    def _process(self, record: TraceRecord) -> None:
        self.records_fed += 1
        if isinstance(record, UpdateRecord):
            self._cloud.handle_update(record.doc_id, self._sim.now)
        else:
            self._cloud.handle_request(record.cache_id, record.doc_id, self._sim.now)
        self._schedule_next()


FEEDERS = {"oracle": EventPerRecordFeeder, "source": TraceFeeder}


class LoggingCloud:
    """Stands in for a cloud: logs each record as it is handled.

    ``on_record`` (if given) runs inside the handler, i.e. while the record
    is in flight — where a real cloud's hooks would schedule follow-ups.
    """

    def __init__(self, log: List[tuple], on_record: Optional[Callable] = None) -> None:
        self.log = log
        self.on_record = on_record

    def handle_request(self, cache_id: int, doc_id: int, now: float) -> None:
        self.log.append((now, type(now), "request", cache_id, doc_id))
        if self.on_record is not None:
            self.on_record("request", doc_id, now)

    def handle_update(self, doc_id: int, now: float) -> None:
        self.log.append((now, type(now), "update", doc_id))
        if self.on_record is not None:
            self.on_record("update", doc_id, now)


def seq_now() -> int:
    """The next sequence number (consumes it)."""
    return next(events._SEQ)


class Harness:
    """One simulator + logging cloud + feeder, and everything compared."""

    def __init__(self, feeder: str, sim_cls: type = Simulator, start_time: float = 0.0):
        self.sim = sim_cls(start_time)
        self.log: List[tuple] = []
        self.cloud = LoggingCloud(self.log)
        self.feeder_cls = FEEDERS[feeder]
        self.feeder: Any = None
        self._seq_base = seq_now()

    def at(
        self,
        time: float,
        label: str,
        priority: EventPriority = EventPriority.REQUEST,
        then: Optional[Callable[[], None]] = None,
    ) -> None:
        """Schedule a logging callback (optionally doing ``then`` as well)."""

        def fire() -> None:
            self.log.append((self.sim.now, int(priority), label))
            if then is not None:
                then()

        self.sim.schedule_at(time, fire, priority=priority, label=label)

    def feed(self, records: Iterable[TraceRecord]) -> None:
        self.feeder = self.feeder_cls(self.sim, self.cloud, records)
        self.feeder.start()

    def outcome(self) -> dict:
        return {
            "log": list(self.log),
            "dispatched": self.sim.dispatched_events,
            "pending": self.sim.pending_events,
            "next_time": self.sim.peek_next_time(),
            "now": self.sim.now,
            "fed": self.feeder.records_fed if self.feeder is not None else 0,
            "seq_used": seq_now() - self._seq_base - 1,
        }


def both(scenario: Callable[[Harness], Any], sim_cls: type = Simulator, **kwargs: Any):
    """Run ``scenario`` under each feeder; returns (oracle, source) outcomes."""
    outcomes = []
    for feeder in ("oracle", "source"):
        harness = Harness(feeder, sim_cls=sim_cls, **kwargs)
        returned = scenario(harness)
        outcome = harness.outcome()
        outcome["returned"] = returned
        outcomes.append(outcome)
    return outcomes


def requests(*times: float) -> List[RequestRecord]:
    return [RequestRecord(t, i % 3, i) for i, t in enumerate(times)]


# ----------------------------------------------------------------------
# Scenarios on the bare engine
# ----------------------------------------------------------------------
def cycle_boundary(h: Harness) -> int:
    """CONTROL work at a record's instant runs first, whenever it was armed."""
    h.at(10.0, "cycle", EventPriority.CONTROL)
    h.feed(requests(9.0, 10.0, 10.0, 11.0))
    # Armed after the t=10 records' predecessor became head: still first.
    h.at(9.5, "arm-late-cycle", then=lambda: h.at(10.0, "late-cycle", EventPriority.CONTROL))
    return h.sim.run_until(20.0)


def warmup_instant(h: Harness) -> int:
    """METRICS work at a record's instant runs last."""
    h.at(5.0, "warmup-reset", EventPriority.METRICS)
    h.feed(merge_streams(requests(4.0, 5.0, 5.0), [UpdateRecord(5.0, 7)]))
    return h.sim.run_until(6.0)


def update_and_request_at_one_instant(h: Harness) -> int:
    h.feed(
        merge_streams(
            [RequestRecord(1.0, 0, 1), RequestRecord(2.0, 1, 2), RequestRecord(2.0, 2, 3)],
            [UpdateRecord(2.0, 2), UpdateRecord(2.0, 9), UpdateRecord(3.0, 1)],
        )
    )
    h.at(2.0, "transfer", EventPriority.TRANSFER)
    return h.sim.run_until(5.0)


def seq_tie(h: Harness) -> int:
    """REQUEST-priority events at a waiting record's exact time.

    ``during`` is scheduled while record 0 is in flight — before record 1
    becomes the head, so it outranks it. ``after`` is scheduled by a heap
    event that runs while record 1 already waits — so record 1 outranks it.
    """

    def on_record(kind: str, doc_id: int, now: float) -> None:
        if doc_id == 0:
            h.at(2.0, "during")

    h.cloud.on_record = on_record
    h.at(1.5, "between", then=lambda: h.at(2.0, "after"))
    h.feed(requests(1.0, 2.0, 2.0, 3.0))
    return h.sim.run_until(5.0)


def late_record_is_clamped(h: Harness) -> int:
    """A stream attached late: records behind the clock run at once, in order."""
    h.at(6.0, "tick")
    h.sim.run_until(5.0)
    h.feed(merge_streams(requests(3.0, 4.0, 5.5, 7.0), [UpdateRecord(4.0, 1)]))
    h.at(5.0, "same-instant-control", EventPriority.CONTROL)
    return h.sim.run_until(8.0)


def integer_times(h: Harness) -> int:
    """Records built with int times reach the cloud as floats."""
    h.feed([RequestRecord(1, 0, 0), RequestRecord(2, 1, 1)])
    return h.sim.run_until(3)


def stop_inside_a_record(h: Harness) -> int:
    def on_record(kind: str, doc_id: int, now: float) -> None:
        if doc_id == 2:
            h.sim.stop()

    h.cloud.on_record = on_record
    h.at(3.0, "metrics", EventPriority.METRICS)
    h.feed(requests(1.0, 2.0, 3.0, 3.0, 4.0))
    return h.sim.run_until(10.0)


def stop_inside_the_stream(h: Harness) -> int:
    """``stop()`` from the stream's own ``next``: what the benchmark does."""

    def stream() -> Iterator[RequestRecord]:
        for record in requests(1.0, 2.0, 3.0, 4.0, 5.0):
            yield record
            if record.doc_id == 2:
                h.sim.stop()  # runs when the feeder asks for record 3

    h.at(3.0, "metrics", EventPriority.METRICS)
    h.feed(merge_streams(stream(), [UpdateRecord(2.5, 0), UpdateRecord(6.0, 1)]))
    return h.sim.run_until(10.0)


def exclusive_end(h: Harness) -> Tuple[int, int]:
    h.feed(requests(1.0, 2.0, 2.0, 3.0))
    h.at(2.0, "control", EventPriority.CONTROL)
    first = h.sim.run_until(2.0, inclusive=False)
    h.log.append(("boundary", h.sim.now, h.sim.pending_events, h.sim.peek_next_time()))
    return first, h.sim.run_until(2.0)


def exhausted_before_end(h: Harness) -> int:
    h.feed(requests(1.0, 2.0))
    h.at(8.0, "late")
    return h.sim.run_until(10.0)


def run_drains(h: Harness) -> Tuple[int, int]:
    """``run()`` honours the stream exactly as ``run_until`` does."""
    h.feed(merge_streams(requests(1.0, 2.0, 4.0), [UpdateRecord(2.0, 5)]))
    h.at(2.0, "control", EventPriority.CONTROL)
    h.at(3.0, "tick")
    first = h.sim.run(max_events=3)
    h.log.append(("paused", h.sim.now, h.sim.pending_events))
    return first, h.sim.run()


def cancelled_head(h: Harness) -> int:
    h.feed(requests(1.0, 3.0))
    h.at(2.0, "kept")
    h.sim.schedule_at(0.5, lambda: h.log.append("never")).cancel()
    h.sim.schedule_at(2.0, lambda: h.log.append("never"), EventPriority.CONTROL).cancel()
    return h.sim.run_until(5.0)


def empty_stream(h: Harness) -> int:
    h.feed([])
    h.at(1.0, "only")
    return h.sim.run_until(2.0)


SCENARIOS = [
    cycle_boundary,
    warmup_instant,
    update_and_request_at_one_instant,
    seq_tie,
    late_record_is_clamped,
    integer_times,
    stop_inside_a_record,
    stop_inside_the_stream,
    exclusive_end,
    exhausted_before_end,
    run_drains,
    cancelled_head,
    empty_stream,
]


class TestEngineScenarios:
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
    def test_source_matches_event_per_record(self, scenario):
        oracle, source = both(scenario)
        assert source == oracle

    def test_scenarios_are_not_vacuous(self):
        """The orders the scenarios exist for actually occur."""
        _, out = both(cycle_boundary)
        labels = [entry[2] for entry in out["log"] if entry[0] == 10.0]
        assert labels == ["cycle", "late-cycle", "request", "request"]
        _, out = both(warmup_instant)
        assert [entry[2] for entry in out["log"] if entry[0] == 5.0] == [
            "update", "request", "request", "warmup-reset",
        ]
        _, out = both(seq_tie)
        at_two = [entry[2:] for entry in out["log"] if entry[0] == 2.0]
        # Record 2 becomes the head only once record 1 has run: behind "after".
        assert at_two == [("during",), ("request", 1, 1), ("after",), ("request", 2, 2)]
        _, out = both(late_record_is_clamped)
        assert [e[0] for e in out["log"] if e[2] in ("request", "update")][:3] == [5.0] * 3
        _, out = both(integer_times)
        assert all(entry[1] is float for entry in out["log"])
        _, out = both(stop_inside_a_record)
        assert out["fed"] == 3 and out["pending"] == 2
        _, out = both(stop_inside_the_stream)
        assert 0 < out["fed"] < 7 and out["pending"] >= 1

    def test_one_record_waits_never_the_trace(self):
        sim = Simulator()
        TraceFeeder(sim, LoggingCloud([]), requests(*range(1, 1000))).start()
        assert sim.pending_events == 1
        assert sim.peek_next_time() == 1.0
        sim.schedule_at(0.5, lambda: None)
        assert sim.pending_events == 2
        assert sim.peek_next_time() == 0.5

    def test_second_source_is_refused(self):
        sim = Simulator()
        TraceFeeder(sim, LoggingCloud([]), requests(1.0)).start()
        with pytest.raises(SimulationError):
            TraceFeeder(sim, LoggingCloud([]), requests(2.0)).start()


# ----------------------------------------------------------------------
# Random schedules x random sorted streams
# ----------------------------------------------------------------------
GRID = st.integers(0, 12).map(lambda n: n / 2.0)  # coarse times: ties are common
PRIORITIES = st.sampled_from(list(EventPriority))


@st.composite
def programs(draw):
    heap = draw(st.lists(st.tuples(GRID, PRIORITIES), max_size=8))
    request_times = sorted(draw(st.lists(GRID, max_size=10)))
    update_times = sorted(draw(st.lists(GRID, max_size=5)))
    # Follow-ups scheduled from inside records / events: (trigger index,
    # delay, priority), where the trigger is the n-th thing to run.
    follow_ups = draw(
        st.lists(st.tuples(st.integers(0, 20), GRID, PRIORITIES), max_size=6)
    )
    stop_after = draw(st.one_of(st.none(), st.integers(0, 20)))
    end = draw(GRID)
    inclusive = draw(st.booleans())
    return heap, request_times, update_times, follow_ups, stop_after, end, inclusive


def random_program(program) -> Callable[[Harness], Any]:
    heap, request_times, update_times, follow_ups, stop_after, end, inclusive = program

    def scenario(h: Harness) -> Tuple[int, int]:
        def react() -> None:
            step = len(h.log) - 1
            for index, (trigger, delay, priority) in enumerate(follow_ups):
                if trigger == step:
                    h.at(h.sim.now + delay, f"follow-{index}", priority)
            if stop_after == step:
                h.sim.stop()

        h.cloud.on_record = lambda kind, doc_id, now: react()
        for index, (time, priority) in enumerate(heap):
            h.at(time, f"event-{index}", priority, then=react)
        h.feed(
            merge_streams(
                requests(*request_times),
                [UpdateRecord(t, i) for i, t in enumerate(update_times)],
            )
        )
        first = h.sim.run_until(end, inclusive=inclusive)
        try:
            return first, h.sim.run()
        except ClockError:
            # A stopped ``run_until`` leaves the clock at ``end`` with work
            # still pending behind it; resuming trips over that work. Old
            # behaviour, and it must trip at the same point either way.
            return first, "clock-error"

    return scenario


class TestRandomPrograms:
    @given(program=programs())
    @settings(max_examples=300, deadline=None)
    def test_source_matches_event_per_record(self, program):
        oracle, source = both(random_program(program))
        assert source == oracle


# ----------------------------------------------------------------------
# The whole pipeline: run_experiment with every kind of scheduled work
# ----------------------------------------------------------------------
DURATION = 30.0


def pipeline_run(feeder_cls: type, monkeypatch) -> dict:
    """``run_experiment`` with churn, anti-entropy, elastic and an in-memory
    flight recorder."""
    monkeypatch.setattr(runner, "TraceFeeder", feeder_cls)
    corpus = build_corpus(60, fixed_size=2048)
    config = CloudConfig(
        num_caches=6,
        num_rings=2,
        cycle_length=5.0,
        assignment=AssignmentScheme.DYNAMIC,
        placement=PlacementScheme.UTILITY,
        utility_weights=WEIGHTS_ALL_ON,
        capacity_bytes=int(corpus.total_bytes * 0.2),
        failure_resilience=True,
        seed=77,
    )
    # Quarter-minute grid: records land on cycle boundaries (5, 10, ...),
    # on the warm-up instant (5.0), on flight-window boundaries and on
    # elastic / anti-entropy ticks (anti-entropy sweeps once per cycle), and
    # updates share instants with requests.
    request_records = [
        RequestRecord(i * 0.25, (i * 5) % 6, (i * 7) % 60) for i in range(118)
    ]
    update_records = [UpdateRecord(i * 0.75, (i * 11) % 60) for i in range(39)]
    simulator = Simulator()
    cloud = CacheCloud(config, corpus)
    order: List[tuple] = []
    handle_request, handle_update = cloud.handle_request, cloud.handle_update

    def logged_request(cache_id: int, doc_id: int, now: float):
        order.append((now, "request", cache_id, doc_id, simulator.dispatched_events))
        return handle_request(cache_id, doc_id, now)

    def logged_update(doc_id: int, now: float):
        order.append((now, "update", doc_id, simulator.dispatched_events))
        return handle_update(doc_id, now)

    cloud.handle_request = logged_request
    cloud.handle_update = logged_update
    schedule_at = simulator.schedule_at

    def logged_schedule_at(time, callback, priority=EventPriority.REQUEST, label=None):
        if label == "trace-record":  # the oracle's records: logged by the cloud
            return schedule_at(time, callback, priority=priority, label=label)

        def fire():
            order.append((simulator.now, int(priority), label))
            return callback()

        return schedule_at(time, fire, priority=priority, label=label)

    simulator.schedule_at = logged_schedule_at
    cloud.attach_overload(OverloadConfig(queue_capacity=8, service_ms=200.0))
    flight = FlightRecorder(None, window=2.5)
    churn = ChurnSchedule(
        [
            ChurnEvent(7.5, 2, FAIL),
            ChurnEvent(12.0, 4, FAIL),
            ChurnEvent(13.75, 2, RECOVER),
            ChurnEvent(15.0, 4, RECOVER),
        ]
    )

    def attach_churn(cloud, simulator):
        # Scripted events reach a cloud through a schedule, hooked to the
        # repair sweep as ``run_experiment`` hooks its own.
        churn.add_hook(cloud.anti_entropy.on_churn_event)
        churn.attach(cloud, simulator)

    seq_base = seq_now()
    result = run_experiment(
        config,
        corpus,
        request_records,
        update_records,
        DURATION,
        warmup=5.0,
        cloud=cloud,
        simulator=simulator,
        anti_entropy=True,
        flight=flight,
        elastic=ElasticConfig(
            min_caches=3, check_period_minutes=1.25, cooldown_minutes=2.5,
            window_minutes=2.5,
        ),
        audit=True,
        on_attached=attach_churn,
    )
    churn.finalize(DURATION)
    return {
        "order": order,
        "seq_used": seq_now() - seq_base - 1,
        "dispatched": simulator.dispatched_events,
        "pending": simulator.pending_events,
        "now": simulator.now,
        "result": fingerprint(result.detached()),
        "churn": churn.stats.as_dict(),
        "flight": fingerprint(
            [flight.log.header, flight.log.windows, flight.log.summary]
        ),
        "labels": {entry[2] for entry in order if isinstance(entry[1], int)},
    }


class TestPipeline:
    def test_run_experiment_is_unchanged(self, monkeypatch):
        oracle = pipeline_run(EventPerRecordFeeder, monkeypatch)
        source = pipeline_run(TraceFeeder, monkeypatch)
        assert source == oracle
        # Every kind of scheduled work took part, and records met it.
        assert oracle["labels"] == {
            "anti-entropy", "churn", "elastic-check", "sub-range-determination",
            "warmup-reset",
        }
        record_times = {entry[0] for entry in oracle["order"] if entry[1] in ("request", "update")}
        event_times = {entry[0] for entry in oracle["order"] if isinstance(entry[1], int)}
        assert len(record_times & event_times) >= 10


# ----------------------------------------------------------------------
# Removed seams: each mutant engine must tear the net
# ----------------------------------------------------------------------
def mutant_simulator(fragment: str, replacement: str) -> type:
    """``Simulator`` recompiled with one source fragment replaced."""
    source = textwrap.dedent(inspect.getsource(engine.Simulator))
    assert source.count(fragment) == 1, fragment
    namespace = dict(vars(engine))
    exec(source.replace(fragment, replacement), namespace)
    return namespace["Simulator"]


MUTANTS = {
    "source_compares_time_only": (
        "(event.time, event.priority, event.seq) < key",
        "event.time < key[0]",
    ),
    "source_ties_go_to_the_heap": (
        "(event.time, event.priority, event.seq) < key",
        "event.time <= key[0]",
    ),
    "seq_taken_at_dispatch": (
        "int(priority), next(_SEQ))",
        "int(priority), next(_SEQ) + 10**9)",
    ),
    "record_not_counted": (
        "                self._pull(pull, time)\n",
        "                self._pull(pull, time)\n                self._dispatched -= 1\n",
    ),
    "successor_pulled_before_processing": (
        "                process(item, time)\n                self._pull(pull, time)\n",
        "                self._pull(pull, time)\n                head = (self._head_key, self._head_item)\n"
        "                self._head_key = None\n                process(item, time)\n"
        "                self._head_key, self._head_item = head\n",
    ),
}


class TestRemovedSeams:
    def test_unmutated_recompile_passes(self):
        """The recompile itself changes nothing (the mutants do)."""
        sim_cls = mutant_simulator("self._dispatched += 1", "self._dispatched += 1")
        for scenario in SCENARIOS:
            oracle, source = both(scenario, sim_cls=sim_cls)
            assert source == oracle, scenario.__name__

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant_tears_the_net(self, name):
        sim_cls = mutant_simulator(*MUTANTS[name])
        torn = []
        for scenario in SCENARIOS:
            oracle, source = both(scenario, sim_cls=sim_cls)
            if source != oracle:
                torn.append(scenario.__name__)
        assert torn, f"no scenario noticed the {name} mutant"

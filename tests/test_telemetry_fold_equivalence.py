"""The telemetry journal, folded on read, equals recording eagerly.

A wire attempt no longer walks ``record -> hist.record x2`` and
``record_queueing -> hist.record``: the fabric appends the attempt's size,
delivered latency and positive queueing delay to per-category lists, writes
the backlog into one registry-wide map, and ``Telemetry.fold`` does the
counting and the histograms for a whole batch — on every read and every
``FOLD_EVERY`` operation roots. That is sound only if a fold leaves exactly
what the eager calls left, down to the bit pattern of every histogram sum.
This file is the net under that claim.

``EagerInstruments`` / ``EagerTelemetry`` are the recording bodies as they
stood before the journal existed, kept here as the oracle (there is
deliberately no switch for them in ``src/``); ``eager_attempt`` is what the
fabric's attempt body told them. A script of attempts (delivered, lost,
rejected at a full queue, queued with and without delay; several categories
and destinations), ``count``/``gauge`` calls, operation roots, reads through
every accessor and attach/detach of the registry and the service model is
run through a real :class:`MessageFabric` with scripted middleware on one
side and through the oracle on the other; at every read and at the end the
two exports must be byte-equal.

The last class mutates one seam of the journal at a time and checks that the
net then tears.
"""

from __future__ import annotations

import inspect
import math
import pickle
import struct
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fabric import MessageFabric
from repro.core.node import MINUTES_TO_MS
from repro.faults.plan import FaultPlan
from repro.metrics.timeseries import TimeSeries
from repro.network.bandwidth import TrafficCategory
from repro.network.transport import Transport
from repro.observe import histogram as histogram_module
from repro.observe import registry as registry_module
from repro.observe.export import dump_json
from repro.observe.histogram import LogHistogram
from repro.observe.registry import Telemetry
from repro.observe.spans import SpanRecorder

CATEGORIES = (
    TrafficCategory.CONTROL,
    TrafficCategory.PEER_TRANSFER,
    TrafficCategory.UPDATE_FANOUT,
)


# ----------------------------------------------------------------------
# The oracle: the eager recording bodies, as they were before the journal
# ----------------------------------------------------------------------
class EagerInstruments:
    def __init__(self, telemetry: "EagerTelemetry", category: str) -> None:
        self._telemetry = telemetry
        self._name = category
        self._keys = tuple(
            f"fabric.{what}.{category}" for what in ("attempts", "lost", "rejected")
        )
        self._bytes: Optional[LogHistogram] = None
        self._latency: Optional[LogHistogram] = None
        self._delay: Optional[LogHistogram] = None

    def record(self, num_bytes: int, latency_minutes: Optional[float]) -> None:
        telemetry = self._telemetry
        counters = telemetry.counters
        attempts, lost, _ = self._keys
        counters[attempts] = counters.get(attempts, 0) + 1
        hist = self._bytes
        if hist is None:
            hist = self._bytes = telemetry.histogram(f"bytes.{self._name}")
        hist.record(num_bytes)
        if latency_minutes is None:
            counters[lost] = counters.get(lost, 0) + 1
            return
        hist = self._latency
        if hist is None:
            hist = self._latency = telemetry.histogram(f"latency_ms.{self._name}")
        hist.record(latency_minutes * MINUTES_TO_MS)

    def record_rejection(self) -> None:
        self._telemetry.count(self._keys[2])

    def record_queueing(self, dst: int, delay_minutes: float, backlog: int) -> None:
        telemetry = self._telemetry
        if delay_minutes > 0.0:
            hist = self._delay
            if hist is None:
                hist = self._delay = telemetry.histogram(f"queue_delay_ms.{self._name}")
            hist.record(delay_minutes * MINUTES_TO_MS)
        gauge = telemetry._depth_gauges.get(dst)
        if gauge is None:
            gauge = telemetry._depth_gauges[dst] = f"queue_depth.{dst}"
        telemetry.gauges[gauge] = float(backlog)


class EagerTelemetry:
    SCHEMA_VERSION = Telemetry.SCHEMA_VERSION

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, LogHistogram] = {}
        self.spans = SpanRecorder()
        self.request_latencies = TimeSeries("request_latency_ms")
        self._instruments: Dict[str, EagerInstruments] = {}
        self._depth_gauges: Dict[int, str] = {}

    def count(self, name: str, delta: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def histogram(self, name: str) -> LogHistogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = LogHistogram()
            self.histograms[name] = hist
        return hist

    def instruments(self, category: str) -> EagerInstruments:
        if category not in self._instruments:
            self._instruments[category] = EagerInstruments(self, category)
        return self._instruments[category]

    def observe_request(self, now: float, latency_ms: float) -> None:
        self.request_latencies.append(now, latency_ms)
        self.histogram("latency_ms.request").record(latency_ms)


def eager_attempt(
    oracle: EagerTelemetry,
    category: str,
    dst: int,
    num_bytes: int,
    wire: Optional[float],
    queue: Optional[Tuple[Optional[float], int]],
) -> None:
    """What the attempt body told the eager instruments about one attempt.

    ``wire`` is the wire latency (``None``: lost); ``queue`` what the service
    model answered, or ``None`` when no service model is attached.
    """
    instruments = oracle.instruments(category)
    latency = wire
    if queue is not None and latency is not None:
        delay, backlog = queue
        if delay is None:
            latency = None
            instruments.record_rejection()
        else:
            if delay > 0.0:
                latency += delay
            instruments.record_queueing(dst, delay, backlog)
    instruments.record(num_bytes, latency)


# ----------------------------------------------------------------------
# Scripted middleware: the fabric is real, the fates are dictated
# ----------------------------------------------------------------------
class ScriptedFaults:
    """Stands in for the fault injector: the next attempt's wire fate."""

    def __init__(self, transport: Transport) -> None:
        self.transport = transport
        self.plan = FaultPlan()  # no retry ladder: one attempt per send
        self.wire: Optional[float] = 0.0

    def deliver(self, src, dst, num_bytes, category) -> Optional[float]:
        self.transport.send(src, dst, num_bytes, category)
        return self.wire


class _NoRetry:
    retry = None


class ScriptedService:
    """Stands in for the overload controller: the next admission's answer."""

    config = _NoRetry()

    def __init__(self) -> None:
        self.answer: Tuple[Optional[float], int] = (0.0, 0)

    def admit_wire(self, dst, category, num_bytes) -> Tuple[Optional[float], int]:
        return self.answer


#: A step of a script; see :func:`run_script`.
Step = Tuple


def run_script(
    script: Sequence[Step],
    fold_every: Optional[int] = None,
    telemetry_cls: type = Telemetry,
) -> Tuple[List[str], List[str]]:
    """Drive ``script`` through the fabric + journal and through the oracle.

    Returns the two lists of exports taken at every ``read`` step and at the
    end: ``(journal side, oracle side)``.
    """
    transport = Transport()
    fabric = MessageFabric(transport)
    faults = ScriptedFaults(transport)
    fabric.attach_faults(faults)
    service = ScriptedService()
    telemetry = telemetry_cls()
    if fold_every is not None:
        telemetry.FOLD_EVERY = fold_every
    oracle = EagerTelemetry()
    fabric.telemetry = telemetry
    attached = True
    served = False
    clock = 0.0
    ours: List[str] = []
    theirs: List[str] = []
    for step in script:
        kind = step[0]
        if kind == "attempt":
            _, category, dst, num_bytes, wire, queue = step
            faults.wire = wire
            service.answer = queue
            fabric.send(0, dst, num_bytes, category)
            if attached:
                eager_attempt(
                    oracle, category.value, dst, num_bytes, wire,
                    queue if served else None,
                )
        elif kind == "method":  # the method form of the same appends
            _, category, dst, num_bytes, wire, queue = step
            instruments = telemetry.instruments(category.value)
            latency = wire
            if latency is not None:
                delay, backlog = queue
                if delay is None:
                    latency = None
                    instruments.record_rejection()
                else:
                    if delay > 0.0:
                        latency += delay
                    instruments.record_queueing(dst, delay, backlog)
            telemetry.record_attempt(category.value, num_bytes, latency)
            eager_attempt(oracle, category.value, dst, num_bytes, wire, queue)
        elif kind == "count":
            telemetry.count(step[1], step[2])
            oracle.count(step[1], step[2])
        elif kind == "gauge":
            telemetry.gauge(step[1], step[2])
            oracle.gauge(step[1], step[2])
        elif kind == "root":
            _, counter, latency_ms = step
            clock += 0.25
            telemetry.observe_root(counter, clock, latency_ms)
            oracle.count(counter)
            if latency_ms is not None:
                oracle.observe_request(clock, latency_ms)
        elif kind == "observe":  # the stand-alone request hook
            clock += 0.25
            telemetry.observe_request(clock, step[1])
            oracle.observe_request(clock, step[1])
        elif kind == "touch":  # fetch-or-create, then record on the handle
            telemetry.histogram(step[1]).record(step[2])
            oracle.histogram(step[1]).record(step[2])
        elif kind == "read":
            accessor = step[1]
            if accessor == "counters":
                assert telemetry.counters == oracle.counters
            elif accessor == "gauges":
                assert telemetry.gauges == oracle.gauges
            elif accessor == "histograms":
                assert sorted(telemetry.histograms) == sorted(oracle.histograms)
            ours.append(dump_json(telemetry))
            theirs.append(dump_json(oracle))
        elif kind == "toggle_telemetry":
            attached = not attached
            fabric.telemetry = telemetry if attached else None
        elif kind == "toggle_service":
            served = not served
            if served:
                fabric.attach_service(service)
            else:
                fabric.detach_service()
        else:  # pragma: no cover - a typo in a script
            raise AssertionError(kind)
    ours.append(dump_json(telemetry))
    theirs.append(dump_json(oracle))
    assert {name: _bits(hist.total) for name, hist in telemetry.histograms.items()} == {
        name: _bits(hist.total) for name, hist in oracle.histograms.items()
    }
    assert (
        telemetry.request_latencies.items() == oracle.request_latencies.items()
    )
    return ours, theirs


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


C, P, U = CATEGORIES

#: Fixed scripts, each aimed at one rule of the fold.
SCENARIOS: Dict[str, List[Step]] = {
    "delivered_lost_and_rejected": [
        ("toggle_service",),
        ("attempt", C, 1, 256, 0.001, (0.0, 0)),
        ("attempt", C, 2, 256, None, (0.0, 0)),
        ("attempt", P, 1, 4096, 0.002, (None, 0)),
        ("attempt", P, 3, 8192, 0.004, (0.0005, 2)),
        ("attempt", C, 1, 256, 0.003, (0.002, 1)),
        ("read", "counters"),
        ("attempt", P, 3, 100, None, (0.0, 0)),
    ],
    # The only traffic of a category is lost: no latency histogram for it.
    "lost_only_category": [
        ("attempt", U, 4, 700, None, (0.0, 0)),
        ("attempt", U, 5, 900, None, (0.0, 0)),
        ("attempt", C, 1, 256, 0.0, (0.0, 0)),
    ],
    # One destination's backlog is written by two categories in turn; the
    # gauge is the last write in *arrival* order, whatever the category.
    "backlog_last_write_wins_across_categories": [
        ("toggle_service",),
        ("attempt", U, 7, 512, 0.001, (0.003, 5)),
        ("attempt", C, 7, 256, 0.001, (0.001, 3)),
        ("read", "gauges"),
        ("attempt", C, 7, 256, 0.001, (0.001, 2)),
        ("attempt", U, 7, 512, 0.001, (0.003, 9)),
        ("attempt", P, 8, 512, 0.001, (0.0, 0)),
    ],
    # An explicit gauge write lands after the backlog journalled before it.
    "explicit_gauge_after_journalled_backlog": [
        ("toggle_service",),
        ("attempt", C, 1, 256, 0.001, (0.001, 3)),
        ("gauge", "queue_depth.1", 9.0),
        ("read", "gauges"),
        ("gauge", "queue_depth.1", 4.0),
        ("attempt", C, 1, 256, 0.001, (0.001, 6)),
    ],
    # A histogram handle fetched mid-stream records after what was
    # journalled: (1 + 1) + 1e16 is not 1e16 + 1 + 1 in floating point.
    "handle_fetched_mid_stream": [
        ("attempt", C, 1, 256, 1.0 / MINUTES_TO_MS, (0.0, 0)),
        ("attempt", C, 1, 256, 1.0 / MINUTES_TO_MS, (0.0, 0)),
        ("touch", "latency_ms.control", 1e16),
        ("attempt", C, 1, 256, 0.3, (0.0, 0)),
        ("touch", "bytes.never_sent", 12),
    ],
    # Sums are accumulated left to right, rounding after every addition:
    # 1e16 + 1 + 1 is 1e16 that way and 1e16 + 2 when summed exactly.
    "sums_round_after_every_addition": [
        ("attempt", P, 1, 256, 1e16 / MINUTES_TO_MS, (0.0, 0)),
        ("attempt", P, 1, 256, 1.0 / MINUTES_TO_MS, (0.0, 0)),
        ("attempt", P, 1, 256, 1.0 / MINUTES_TO_MS, (0.0, 0)),
        ("root", "requests.cloud_hit", 1e16),
        ("root", "requests.cloud_hit", 1.0),
        ("root", "requests.cloud_hit", 1.0),
    ],
    "roots_tick_the_fold_bound": [
        ("toggle_service",),
        ("attempt", C, 1, 256, 0.001, (0.001, 1)),
        ("root", "requests.cloud_hit", 61.5),
        ("attempt", P, 2, 9000, 0.002, (0.0, 0)),
        ("root", "requests.rejected", None),
        ("root", "updates.handled", None),
        ("observe", 0.125),
        ("attempt", P, 2, 9000, None, (0.0, 0)),
        ("root", "requests.origin_fetch", 180.25),
        ("count", "requests.origin_fetch", 2),
    ],
    "detached_attempts_are_nobodys": [
        ("attempt", C, 1, 256, 0.001, (0.0, 0)),
        ("toggle_telemetry",),
        ("attempt", C, 1, 256, 0.005, (0.0, 0)),
        ("read", "histograms"),
        ("toggle_service",),
        ("toggle_telemetry",),
        ("attempt", C, 1, 256, 0.002, (0.004, 2)),
        ("method", P, 3, 640, 0.002, (0.004, 2)),
        ("method", P, 3, 640, 0.002, (None, 0)),
        ("method", U, 3, 640, None, (0.0, 0)),
    ],
}


@pytest.mark.parametrize("fold_every", [None, 1, 3])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenarios_export_byte_equal(name, fold_every):
    ours, theirs = run_script(SCENARIOS[name], fold_every)
    assert ours == theirs


def test_each_method_form_folds_on_its_own():
    """``record_queueing`` without a ``record`` (nothing in the fabric does
    that, the API allows it) still reaches its histogram and gauge."""
    telemetry, oracle = Telemetry(), EagerTelemetry()
    for registry in (telemetry, oracle):
        registry.instruments("control").record_queueing(2, 0.004, 3)
    assert dump_json(telemetry) == dump_json(oracle)
    assert telemetry.histograms["queue_delay_ms.control"].count == 1


def test_the_journal_is_bounded_by_operation_roots():
    telemetry = Telemetry()
    journal = telemetry.instruments("control")
    for index in range(3 * Telemetry.FOLD_EVERY):
        journal.record(256, 0.001)
        journal.record_queueing(index % 5, 0.002, 1)
        telemetry.observe_root("requests.cloud_hit", float(index), 1.0)
        assert len(journal.sizes) < Telemetry.FOLD_EVERY
        assert len(telemetry.backlogs) <= 5
    assert telemetry.counters["fabric.attempts.control"] == 3 * Telemetry.FOLD_EVERY
    assert journal.sizes == [] and journal.latencies == [] and journal.delays == []


# ----------------------------------------------------------------------
# The property: any interleaving
# ----------------------------------------------------------------------
_latency = st.one_of(
    st.none(),
    st.sampled_from([0.0, 1e-9, 1e-3 / MINUTES_TO_MS, 0.001, 0.25]),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
_queue = st.tuples(
    st.one_of(
        st.none(),
        st.sampled_from([0.0, 0.002]),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    st.integers(min_value=0, max_value=12),
)
_attempt = st.tuples(
    st.sampled_from(["attempt", "attempt", "attempt", "method"]),
    st.sampled_from(CATEGORIES),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=200_000),
    _latency,
    _queue,
)
_step = st.one_of(
    _attempt,
    _attempt,
    _attempt,
    st.tuples(
        st.just("count"),
        st.sampled_from(["requests.local_hit", "fabric.attempts.control", "x"]),
        st.integers(min_value=1, max_value=3),
    ),
    st.tuples(
        st.just("gauge"),
        st.sampled_from(["queue_depth.0", "queue_depth.3", "docs"]),
        st.floats(min_value=-5.0, max_value=50.0, allow_nan=False),
    ),
    st.tuples(
        st.just("root"),
        st.sampled_from(["requests.cloud_hit", "requests.rejected", "updates.handled"]),
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=9e4, allow_nan=False)),
    ),
    st.tuples(st.just("observe"), st.floats(min_value=0.0, max_value=9e4, allow_nan=False)),
    st.tuples(
        st.just("touch"),
        st.sampled_from(["latency_ms.control", "bytes.peer_transfer", "queue_delay_ms.control"]),
        st.floats(min_value=-1.0, max_value=1e8, allow_nan=False),
    ),
    st.tuples(st.just("read"), st.sampled_from(["counters", "gauges", "histograms", "json"])),
    st.tuples(st.just("toggle_telemetry")),
    st.tuples(st.just("toggle_service")),
)


@settings(max_examples=150, deadline=None)
@given(
    script=st.lists(_step, max_size=60),
    fold_every=st.sampled_from([1, 2, 7, Telemetry.FOLD_EVERY]),
)
def test_any_interleaving_exports_byte_equal(script, fold_every):
    ours, theirs = run_script(script, fold_every)
    assert ours == theirs


# ----------------------------------------------------------------------
# record_many == N x record
# ----------------------------------------------------------------------
def _state(hist: LogHistogram):
    return (hist.counts, hist.count, _bits(hist.total), hist.min, hist.max)


_EDGES = LogHistogram().bounds
SPECIAL_VALUES = [
    float("nan"), -0.0, 0.0, -3.5, float("-inf"), float("inf"),
    0, 7, 256, 10**9,  # ints
    _EDGES[1], _EDGES[2], _EDGES[-1],  # exact bucket edges
    math.nextafter(_EDGES[5], 0.0), math.nextafter(_EDGES[5], math.inf),
    1e-9, 9.99e-4,  # underflow
    1e7 + 1.0, 1e12,  # overflow
    0.1, 0.2, 0.3, 1e-3, 123.456,
]


@pytest.mark.parametrize("prior", [[], [0.5], [1e9, 1e-9, 3.0]])
def test_record_many_on_the_special_values(prior):
    one_by_one, batched = LogHistogram(), LogHistogram()
    for value in prior:
        one_by_one.record(value)
        batched.record(value)
    for value in SPECIAL_VALUES:
        one_by_one.record(value)
    batched.record_many(SPECIAL_VALUES)
    assert _state(batched) == _state(one_by_one)
    assert batched.to_dict() == one_by_one.to_dict()


def test_record_many_of_nothing_changes_nothing():
    hist = LogHistogram()
    hist.record_many([])
    assert _state(hist) == _state(LogHistogram())
    assert hist.to_dict()["min"] is None


@settings(max_examples=300, deadline=None)
@given(
    prior=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=5),
    values=st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.floats(min_value=1e-4, max_value=1e8),
            st.integers(min_value=-10, max_value=10**7),
            st.sampled_from(_EDGES),
        ),
        max_size=80,
    ),
    split=st.integers(min_value=0, max_value=80),
)
def test_record_many_equals_one_record_per_value(prior, values, split):
    one_by_one, batched = LogHistogram(), LogHistogram()
    for value in prior:
        one_by_one.record(value)
        batched.record(value)
    for value in values:
        one_by_one.record(value)
    batched.record_many(values[:split])  # two folds == one fold == no fold
    batched.record_many(iter(values[split:]))
    assert _state(batched) == _state(one_by_one)


# ----------------------------------------------------------------------
# A registry with a pending journal survives pickling
# ----------------------------------------------------------------------
def test_pickled_registry_keeps_its_pending_journal():
    telemetry = Telemetry()
    fabric = MessageFabric(Transport())
    fabric.telemetry = telemetry
    fabric.send(0, 1, 256, TrafficCategory.CONTROL)
    journal = telemetry.instruments("control")
    journal.record_queueing(1, 0.002, 3)
    telemetry.observe_root("requests.cloud_hit", 1.0, 42.0)
    assert journal.sizes and telemetry.backlogs  # still pending

    clone = pickle.loads(pickle.dumps(telemetry))
    assert clone.instruments("control").sizes == journal.sizes
    # The clone's handles write into the clone's own lists and map.
    copied = clone.instruments("control")
    assert copied.note_size.__self__ is copied.sizes
    assert copied.backlogs is clone.backlogs
    copied.record(512, None)
    journal.record(512, None)
    assert dump_json(clone) == dump_json(telemetry)
    assert clone.counters["fabric.lost.control"] == 1


# ----------------------------------------------------------------------
# Removed seams: each mutant registry must tear the net
# ----------------------------------------------------------------------
def mutant_telemetry(*replacements: Tuple[str, str], histogram: Optional[type] = None) -> type:
    """``Telemetry`` from the registry module recompiled with source
    fragments replaced (and, optionally, another histogram class)."""
    source = inspect.getsource(registry_module)
    for fragment, replacement in replacements:
        assert source.count(fragment) == 1, fragment
        source = source.replace(fragment, replacement)
    namespace = {"__name__": "repro.observe.registry_mutant"}
    exec(compile(source, "<mutant registry>", "exec"), namespace)
    if histogram is not None:
        namespace["LogHistogram"] = histogram
    return namespace["Telemetry"]


def mutant_histogram(fragment: str, replacement: str) -> type:
    source = inspect.getsource(histogram_module)
    assert source.count(fragment) == 1, fragment
    namespace = {"__name__": "repro.observe.histogram_mutant"}
    exec(compile(source.replace(fragment, replacement), "<mutant histogram>", "exec"), namespace)
    return namespace["LogHistogram"]


_LEFT_TO_RIGHT = "        for value in clean:\n            total += value\n"

MUTANTS = {
    "lost_not_counted_at_fold": lambda: mutant_telemetry(
        ("if len(latencies) < len(sizes):", "if False:"),
    ),
    "backlog_journalled_per_category": lambda: mutant_telemetry(
        ("self.backlogs = telemetry.backlogs", "self.backlogs = {}"),
        (
            "        backlogs = self.backlogs\n        if backlogs:",
            "        backlogs = {}\n"
            "        for instruments in self._instruments.values():\n"
            "            backlogs.update(instruments.backlogs)\n"
            "            instruments.backlogs.clear()\n"
            "        if backlogs:",
        ),
    ),
    "fold_skipped_on_gauge": lambda: mutant_telemetry(
        ("self.gauges[name] = float(value)", "self._gauges[name] = float(value)"),
    ),
    "fold_skipped_on_histogram": lambda: mutant_telemetry(
        ("return _histogram(self.histograms, name)", "return _histogram(self._histograms, name)"),
    ),
    "histogram_created_for_an_empty_journal": lambda: mutant_telemetry(
        ("            if values:\n", "            if True:\n"),
    ),
    "total_via_fsum": lambda: mutant_telemetry(
        histogram=mutant_histogram(
            _LEFT_TO_RIGHT, "        total = math.fsum([total] + clean)\n"
        ),
    ),
}


def _torn(telemetry_cls: type) -> List[str]:
    torn = []
    for name, script in sorted(SCENARIOS.items()):
        try:
            ours, theirs = run_script(script, telemetry_cls=telemetry_cls)
        except AssertionError:
            torn.append(name)
        else:
            if ours != theirs:
                torn.append(name)
    return torn


class TestRemovedSeams:
    def test_unmutated_recompile_passes(self):
        """The recompile itself changes nothing (the mutants do)."""
        assert _torn(mutant_telemetry()) == []
        same = mutant_histogram(_LEFT_TO_RIGHT, _LEFT_TO_RIGHT)
        assert _torn(mutant_telemetry(histogram=same)) == []

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant_tears_the_net(self, name):
        assert _torn(MUTANTS[name]()), f"no scenario noticed the {name} mutant"

    @pytest.mark.skipif(
        sys.version_info < (3, 12),
        reason="sum() over floats is compensated from CPython 3.12 on",
    )
    def test_total_via_builtin_sum_tears_the_net(self):
        compensated = mutant_histogram(_LEFT_TO_RIGHT, "        total = sum(clean, total)\n")
        assert _torn(mutant_telemetry(histogram=compensated))

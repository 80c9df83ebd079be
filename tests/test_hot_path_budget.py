"""A seed-exact budget for the fixed cost of one operation.

Wall-clock on a shared host moves by tens of percent between two runs of
the same commit; the number of Python frames one operation enters does not
move at all. This test replays 2 000 records of a ``figure-sim``-shaped run
(the ``run_experiment`` pipeline: 20 caches, 5 rings, dynamic hashing,
utility placement with all four components, 5 % disk) on a warmed cloud and
counts, with :class:`tests.hot_path_counter.HotPathCounter`, every ``call``
event whose code lives under ``src/repro``. The ceiling sits about 10 %
above what the code reaches, far below what it cost when every record was
an ``Event`` on the heap and every miss built a frozen context (81.6 frames
per operation on this script), so a change that quietly puts a frame or two
back on every operation fails here, on any host, with the most-called
functions named in the message.

A second window (the same cloud at half the request rate) is replayed with
the planes of the ``planes-on`` benchmark workload attached one after
another — a fault plan (5 % loss, the default retry ladder), the overload
model (queues of 10, 120 ms + 5 ms/KiB), a ``Telemetry`` registry, a
``FlightRecorder`` — and each plane's increment is held under its own
ceiling: what an observer costs when attached is a number too. The same
counter counts the opcodes those runs execute under ``src/repro``, which
see the work inside a frame that a frame count cannot. With the planes on,
an operation makes several wire attempts, so the per-attempt rules are
pinned as well: no ``LogHistogram.record`` frame per attempt or per holder
walk (the registry and the profile journal and fold), no span bookkeeping
once the span recorder is saturated, and the attached registry's
footprint per served request.
"""
from __future__ import annotations

import gc
import random
import sys
import tracemalloc
from collections import Counter
from typing import Iterable, Iterator, Optional

import pytest

from repro.core.cloud import CacheCloud
from repro.core.config import (
    WEIGHTS_ALL_ON,
    AssignmentScheme,
    CloudConfig,
    PlacementScheme,
)
from repro.core.node import CacheNode
from repro.core.overload import OverloadConfig
from repro.experiments.runner import run_experiment
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.observe.flight import FlightRecorder
from repro.observe.histogram import LogHistogram
from repro.observe.profile import WorkProfile
from repro.observe.registry import RoleWatch, Telemetry
from repro.observe.spans import SpanRecorder
from repro.simulation.events import Event
from repro.simulation.rng import derive_seed
from repro.workload.documents import build_corpus
from repro.workload.sydney import SydneyConfig, SydneyTraceGenerator
from repro.workload.trace import RequestRecord
from tests.hot_path_counter import HotPathCounter

SEED = 11
WARM_RECORDS = 6_000
COUNTED_RECORDS = 2_000
#: Python frames under ``src/repro`` per operation: measured 55.8 over 2 164
#: operations (2 000 requests, 164 updates); the ceiling leaves ~10 %. It
#: was 61.7 while each rate read went through a per-document estimator
#: object's ``rate`` → ``_decay_to``, 59.1 while ``stamp_of`` was a
#: method frame, 57.6 while an update entered ``apply_update`` →
#: ``refresh_version`` per holder (few holders per update here; on the
#: ``update-storm`` shape, ~30 per update, that was 46.2 → 28.5 frames per
#: operation), and 57.1 while an admit built a copy object and an eviction
#: entered its ``residence_time``.
FRAMES_PER_OPERATION_CEILING = 61.0
#: The planes window runs at half the request rate over twice the time:
#: queues build and shed without saturating (3 % of lookups shed, 0.3 % of
#: requests rejected), as in the benchmark's segment; at the full rate a
#: fifth of the lookups is shed and the overload model makes an operation
#: *cheaper*. 53.7 frames per operation with nothing attached.
PLANES_PEAK_RATE, PLANES_MINUTES = 60.0, 16.0
#: With all four planes attached: measured 76.3 over 2 340 operations (it
#: was 134.3 when every wire attempt walked the registry's histograms and
#: the queue's call chain, and every dropped span kept the stack
#: bookkeeping; 81.9 while a role seam paid ``begin_span`` and ``charge``
#: as two frames; 80.3 while ``stamp_of`` was a method frame; 78.7 while a
#: resident copy was an object; 77.4 while every holder walk entered
#: ``LogHistogram.record`` and every root ``FlightRecorder.advance``). The
#: roots' move into ``cloud.watch`` left it as it was: its ``request``
#: frame replaced ``begin_span``'s.
PLANES_ON_CEILING = 84.0
#: Frames per operation each plane may add when attached after the ones
#: before it — measured +9.4, +5.3, +5.2, +2.6 (it was +16.7, +17.8,
#: +34.7, +5.9, then +9.4, +5.3, +4.7, +4.3). Telemetry's rose by the one
#: ``TimeSeries.append`` a served request enters now that the request
#: latency has one append body instead of an inlined copy in
#: ``observe_root`` (+0.85), less the counter bumps ``mark`` makes in place
#: and the queue rejections the fabric journals (−0.3); the flight
#: recorder's fell by the ``LogHistogram.record`` per holder walk and the
#: ``advance`` per root it no longer enters.
PLANE_INCREMENT_CEILINGS = {
    "fault_plan": 10.5,
    "overload": 5.5,
    "telemetry": 5.8,
    "flight": 2.9,
}
#: Opcodes per operation under ``src/repro`` on the planes window, counted
#: on CPython 3.11 (seed-exact: identical in every run). Nothing attached:
#: 1 611.1; faults + overload: 2 893.6; all four planes: 3 430.3. Before
#: the observers became journals folded in C the observers' increment over
#: faults + overload was 891.2 (all four planes 3 785.0): a Python loop per
#: folded value (+235.3), a ``LogHistogram.record`` per holder walk
#: (+71.8), and the flight recorder's running window sums per wire attempt.
#: Other interpreters execute other instructions for the same code, so the
#: two fixed shapes are held at their 3.11 counts only on 3.11; the
#: observers' share is held on every version, as a fraction of what faults
#: + overload cost on the same interpreter (0.185 on 3.11; 0.308 before).
PLANES_OPCODE_CEILINGS = {
    "nothing": 1_611.1,
    "faults+overload": 2_893.8,
    "all planes": 3_500.0,
}
OPCODES_MEASURED_ON = (3, 11)
#: The observers' opcodes per operation over faults + overload: ≤ 610 on
#: 3.11, and at most this fraction of faults + overload's on any version.
OBSERVER_OPCODE_INCREMENT_CEILING = 610.0
OBSERVER_OPCODE_SHARE_CEILING = 0.21
#: What the attached registry holds per served request once its span list
#: is let go: the raw latency series' two unboxed columns (16 B a request,
#: plus the arrays' growth slack) and the histograms' fixed buckets:
#: measured 22.5 B over 7 979 requests. It read 70.3 B while the series
#: was two lists of boxed floats.
TELEMETRY_BYTES_PER_REQUEST_CEILING = 24.0


def counted(
    requests: Iterable[RequestRecord], counter: HotPathCounter, cloud: CacheCloud, span: dict
) -> Iterator[RequestRecord]:
    """Pass requests through; profile from the warm mark for a fixed count.

    The feeder pulls the next record only after processing the previous
    one, so switching the hook between two ``yield``\\ s brackets whole
    operations (updates that fall between the marks included).
    """
    for index, record in enumerate(requests):
        if index == WARM_RECORDS:
            span["start"] = cloud.requests_handled + cloud.updates_handled
            counter.start()
        elif index == WARM_RECORDS + COUNTED_RECORDS:
            counter.stop()
            span["end"] = cloud.requests_handled + cloud.updates_handled
            return
        yield record


def counted_run(
    peak_rate: float = 120.0,
    minutes: float = 8.0,
    profile: bool = False,
    counter: Optional[HotPathCounter] = None,
    **planes,
):
    """Replay the window with ``planes`` attached (``run_experiment``
    keywords) and a work profile if ``profile``, counted by ``counter``
    (frames only if none); returns ``(counter, operations, cloud)``."""
    corpus = build_corpus(1_000, random.Random(derive_seed(SEED, "corpus")))
    trace = SydneyTraceGenerator(
        SydneyConfig(
            num_documents=1_000,
            num_caches=20,
            peak_request_rate_per_cache=peak_rate,
            base_update_rate=195.0,
            duration_minutes=minutes,
            diurnal_period_minutes=minutes,
            drift_pool=500,
            seed=derive_seed(SEED, "trace"),
        )
    ).build_trace()
    assert len(trace.requests) > WARM_RECORDS + COUNTED_RECORDS
    config = CloudConfig(
        num_caches=20,
        num_rings=5,
        cycle_length=20.0,
        assignment=AssignmentScheme.DYNAMIC,
        placement=PlacementScheme.UTILITY,
        utility_weights=WEIGHTS_ALL_ON,
        capacity_bytes=int(corpus.total_bytes * 0.05),
        seed=SEED,
    )
    cloud = CacheCloud(config, corpus)
    if profile:
        cloud.attach_profile(WorkProfile())
    counter = counter or HotPathCounter()
    span: dict = {}
    try:
        run_experiment(
            config,
            corpus,
            counted(trace.requests, counter, cloud, span),
            trace.updates,
            duration=minutes,
            warmup=1.0,
            cloud=cloud,
            **planes,
        )
    finally:
        if "start" in span and "end" not in span:  # the run raised mid-window
            counter.stop()
    operations = span["end"] - span["start"]
    assert operations >= COUNTED_RECORDS  # the requests, plus interleaved updates
    return counter, operations, cloud


def test_frames_per_operation_within_budget():
    counter, operations, cloud = counted_run()
    frames = counter.frames
    per_operation = frames / operations
    assert per_operation <= FRAMES_PER_OPERATION_CEILING, (
        f"{per_operation:.1f} frames per operation over {operations} operations "
        f"(ceiling {FRAMES_PER_OPERATION_CEILING}); most called: {counter.top()}"
    )
    # Feeding a record allocates no Event: only scheduled work (cycles,
    # the warm-up reset) ever does, and none of it falls in the window.
    assert counter.of(Event.__init__) == 0
    # The window really was the miss-heavy steady state, not a quiet corner.
    stats = cloud.aggregate_stats()
    assert stats.origin_fetches + stats.cloud_hits > 0.5 * stats.requests


def test_an_update_enters_no_frame_per_holder():
    """On an ``update-storm``-shaped cloud (50 caches, unlimited disk, ad hoc
    placement) an update whose document 40 caches hold enters exactly as
    many frames as one whose document 4 hold: the holders' copies are
    refreshed in one call, a version slot each (it was two frames a holder,
    ``apply_update`` → ``refresh_version``)."""
    corpus = build_corpus(2_000, random.Random(derive_seed(SEED, "corpus")))
    config = CloudConfig(
        num_caches=50,
        num_rings=5,
        assignment=AssignmentScheme.DYNAMIC,
        placement=PlacementScheme.AD_HOC,
        seed=SEED,
    )
    cloud = CacheCloud(config, corpus)
    frames = {}
    for doc_id, holders in ((11, 4), (12, 40)):
        beacon = cloud.beacon_for_doc(doc_id)
        requesters = [beacon] + [c for c in range(50) if c != beacon][: holders - 1]
        for index, cache_id in enumerate(requesters):
            cloud.handle_request(cache_id, doc_id, index / 100.0)
        # The first update leaves the entry stamped, as in the steady state.
        assert cloud.handle_update(doc_id, 1.0) == holders
        with HotPathCounter() as counter:
            refreshed = cloud.handle_update(doc_id, 2.0)
        assert refreshed == holders
        frames[holders] = counter.frames
    assert frames[4] == frames[40], f"frames per update by holder count: {frames}"


#: The ``update-storm`` benchmark shape, driven as its ``DirectDrive`` does:
#: 50 caches, 5 rings, 2 000 documents, ad hoc placement, unlimited disk,
#: a uniform cache and a squared-uniform document per request, one
#: squared-uniform update per two requests, seed 11, 60 000 requests of
#: warm-up. Measured 27.7 frames per operation over the 5 000 counted
#: requests (7 500 operations); 28.0 while the beacon's fan-out was a
#: method frame of its own. The ceiling leaves ~10 %.
STORM_WARM_REQUESTS, STORM_COUNTED_REQUESTS = 60_000, 5_000
STORM_FRAMES_PER_OPERATION_CEILING = 31.0


def test_update_storm_frames_per_operation_within_budget():
    documents, caches = 2_000, 50
    corpus = build_corpus(documents, random.Random(derive_seed(SEED, "corpus")))
    config = CloudConfig(
        num_caches=caches,
        num_rings=5,
        assignment=AssignmentScheme.DYNAMIC,
        placement=PlacementScheme.AD_HOC,
        seed=SEED,
    )
    cloud = CacheCloud(config, corpus)
    rng = random.Random(derive_seed(SEED, "requests"))

    def feed(start: int, count: int) -> None:
        for i in range(start, start + count):
            now = i / 1000.0
            cloud.handle_request(
                rng.randrange(caches), int(rng.random() ** 2 * documents), now
            )
            if i % 2 == 1:
                cloud.handle_update(int(rng.random() ** 2 * documents), now)

    feed(0, STORM_WARM_REQUESTS)
    start = cloud.requests_handled + cloud.updates_handled
    with HotPathCounter() as counter:
        feed(STORM_WARM_REQUESTS, STORM_COUNTED_REQUESTS)
    operations = cloud.requests_handled + cloud.updates_handled - start
    assert operations == STORM_COUNTED_REQUESTS * 3 // 2
    per_operation = counter.frames / operations
    assert per_operation <= STORM_FRAMES_PER_OPERATION_CEILING, (
        f"{per_operation:.1f} frames per operation over {operations} operations "
        f"(ceiling {STORM_FRAMES_PER_OPERATION_CEILING}); most called: {counter.top()}"
    )


#: The frames of an operation root, whoever runs it.
ROOTS = (
    CacheCloud.handle_request,
    CacheCloud.handle_update,
    CacheCloud._serve_request,
    CacheCloud.deliver_update,
    RoleWatch._request,
    RoleWatch._update,
)


def test_a_profile_only_watch_adds_no_frame_at_the_roots():
    bare, operations, _ = counted_run()
    profiled, profiled_operations, cloud = counted_run(profile=True)
    assert cloud.watch is not None and cloud.fabric._fast_path
    assert profiled_operations == operations
    assert [profiled.of(root) for root in ROOTS] == [bare.of(root) for root in ROOTS]
    assert profiled.of(RoleWatch._request) == profiled.of(RoleWatch._update) == 0


def _planes(directory) -> dict:
    """The ``planes-on`` planes by name; stateful ones built afresh per call."""
    retry = RetryPolicy()
    return {
        "fault_plan": lambda: FaultPlan(
            seed=derive_seed(SEED, "faults"), loss_rate=0.05, retry=retry
        ),
        "overload": lambda: OverloadConfig(
            queue_capacity=10, service_ms=120.0, service_ms_per_kb=5.0, retry=retry
        ),
        "telemetry": Telemetry,
        "flight": lambda: FlightRecorder(str(directory / "flight.jsonl"), window=2.0),
    }


@pytest.fixture(scope="module")
def planes_window(tmp_path_factory):
    """The planes window replayed with nothing attached, then with each
    plane added in turn, frames and opcodes counted: ``[(attached planes,
    counter, operations, cloud)]``."""
    planes = _planes(tmp_path_factory.mktemp("planes"))
    runs = []
    attached: list = []
    for name in [None, *PLANE_INCREMENT_CEILINGS]:
        if name is not None:
            attached = [*attached, name]
        counter, operations, cloud = counted_run(
            PLANES_PEAK_RATE,
            PLANES_MINUTES,
            counter=HotPathCounter(opcodes=True),
            **{plane: planes[plane]() for plane in attached},
        )
        runs.append((attached, counter, operations, cloud))
    return runs


def test_each_plane_adds_a_bounded_number_of_frames(planes_window):
    _, counter, operations, _ = planes_window[0]
    before = counter.frames / operations
    for attached, counter, operations, cloud in planes_window[1:]:
        name, ceiling = attached[-1], PLANE_INCREMENT_CEILINGS[attached[-1]]
        per_operation = counter.frames / operations
        assert per_operation - before <= ceiling, (
            f"{name} adds {per_operation - before:.1f} frames per operation "
            f"(ceiling {ceiling}); most called: {counter.top()}"
        )
        before = per_operation
    assert before <= PLANES_ON_CEILING, (
        f"{before:.1f} frames per operation with every plane attached "
        f"(ceiling {PLANES_ON_CEILING}); most called: {counter.top()}"
    )
    # The window saw what the planes exist for: retries, queueing, drops.
    fabric = cloud.fabric.stats
    assert fabric.dispatches > 3 * operations
    assert fabric.retries > 0 and fabric.rejections > 0
    telemetry = cloud.telemetry
    assert telemetry.spans.saturated and telemetry.spans.dropped > COUNTED_RECORDS
    # Per wire attempt and per holder walk the observers only append: the
    # histograms are filled by the folds (a few ``record_many`` calls per
    # ``FOLD_EVERY`` operations), never one ``record`` per value...
    assert counter.of(WorkProfile.record_walk) > operations / 2
    assert counter.of(LogHistogram.record) == 0
    assert 0 < counter.of(LogHistogram.record_many) < 0.05 * operations
    # ...and a span begun past saturation touches no stack.
    assert counter.of(SpanRecorder.open) == 0 and counter.of(SpanRecorder.close) == 0
    assert telemetry.counters["fabric.attempts.control"] > operations


def test_the_planes_window_stays_under_its_opcode_ceilings(planes_window):
    per_operation = {}
    for attached, counter, operations, _ in planes_window:
        per_operation[len(attached)] = round(counter.opcodes / operations, 1)
    shapes = {
        "nothing": per_operation[0],
        "faults+overload": per_operation[2],
        "all planes": per_operation[4],
    }
    observers = shapes["all planes"] - shapes["faults+overload"]
    if sys.version_info[:2] == OPCODES_MEASURED_ON:
        for shape, ceiling in PLANES_OPCODE_CEILINGS.items():
            assert shapes[shape] <= ceiling, (
                f"{shape}: {shapes[shape]:.1f} opcodes per operation (ceiling {ceiling})"
            )
        assert observers <= OBSERVER_OPCODE_INCREMENT_CEILING, (
            f"telemetry + flight add {observers:.1f} opcodes per operation "
            f"(ceiling {OBSERVER_OPCODE_INCREMENT_CEILING})"
        )
    share = observers / shapes["faults+overload"]
    assert share <= OBSERVER_OPCODE_SHARE_CEILING, (
        f"telemetry + flight add {share:.3f} of what faults + overload execute "
        f"({observers:.1f} opcodes per operation; ceiling {OBSERVER_OPCODE_SHARE_CEILING})"
    )
    # Opcodes only grow with what is attached.
    assert shapes["nothing"] < shapes["faults+overload"] < shapes["all planes"]


def test_the_attached_registry_holds_a_few_bytes_per_served_request(tmp_path):
    """Everything the attached ``Telemetry`` holds after the planes window,
    its capped span list let go, measured by ``tracemalloc`` as the memory
    freed when the registry's state is dropped."""
    planes = _planes(tmp_path)
    telemetry = Telemetry()
    tracemalloc.start()
    try:
        counted_run(
            PLANES_PEAK_RATE,
            PLANES_MINUTES,
            **{name: make() for name, make in planes.items() if name != "telemetry"},
            telemetry=telemetry,
        )
        served = len(telemetry.request_latencies)
        telemetry.fold()
        telemetry.spans.clear()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        state = dict(vars(telemetry))
        vars(telemetry).clear()
        del state
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert served > WARM_RECORDS
    assert held / served <= TELEMETRY_BYTES_PER_REQUEST_CEILING, (
        f"the registry holds {held / served:.1f} B per served request over "
        f"{served} requests (ceiling {TELEMETRY_BYTES_PER_REQUEST_CEILING})"
    )


#: Line events one store decision may execute inside
#: ``CacheNode._placement_inputs``. Its holder reads cost
#: min(p, h) steps, where h is the decision's live holders and p the
#: position of the first of them in the cloud's residence order (about
#: caches / (h + 1)). So a decision takes few steps whether its entry is
#: long (the order soon meets a holder) or short (the holders soon run
#: out), and the two shapes below hold both ends. Measured there (utility
#: placement, each warmed with 20 000 requests and counted over the next
#: 2 000, an update every 50):
#:
#: * ``long entries`` — the ``cloud250-knee`` shape (250 caches, 500
#:   documents, 25 % disk): 1 556 decisions, all stamped, 44.6 live
#:   holders each. 331.9 lines while a decision walked every listed
#:   holder; 49.2 now (6.3 steps; the order meets a holder first in 94 %
#:   of decisions). A scan of the order alone read 41.0.
#: * ``short entries`` — a ``zoo`` ``scale``-shaped cloud (1 000 caches,
#:   20 000 documents, 1 % disk): 1 940 decisions, 73 % stamped, 20.0 live
#:   holders on average but 2 at the median and none in 27 %. 159.6 lines
#:   with the walk; 41.0 now (5.7 steps; the holders run out first in
#:   86 % of decisions). A scan of the order alone read 428.9 — 278
#:   probes on average.
STORE_DECISION_LINES_CEILING = 60.0
#: (caches, rings, documents, disk fraction, request skew) by shape.
STORE_DECISION_SHAPES = {
    "long entries": (250, 10, 500, 0.25, 2),
    "short entries": (1_000, 10, 20_000, 0.01, 3),
}


@pytest.mark.parametrize("shape", sorted(STORE_DECISION_SHAPES))
def test_a_store_decision_does_not_walk_the_holders(shape):
    caches, rings, documents, disk, skew = STORE_DECISION_SHAPES[shape]
    corpus = build_corpus(documents, random.Random(derive_seed(SEED, "corpus")))
    config = CloudConfig(
        num_caches=caches,
        num_rings=rings,
        assignment=AssignmentScheme.DYNAMIC,
        placement=PlacementScheme.UTILITY,
        capacity_bytes=max(1, int(corpus.total_bytes * disk)),
        seed=SEED,
    )
    cloud = CacheCloud(config, corpus)
    rng = random.Random(derive_seed(SEED, "requests"))

    def feed(start: int, count: int) -> None:
        for i in range(start, start + count):
            now = i / 1000.0
            cloud.handle_request(
                rng.randrange(caches), int(rng.random() ** skew * documents), now
            )
            if i % 50 == 49:
                cloud.handle_update((7 * i) % documents, now)

    feed(0, 20_000)
    target = CacheNode._placement_inputs.__code__
    events = Counter()

    def lines(frame, event, arg):
        events[event] += 1
        return lines

    def calls(frame, event, arg):
        if frame.f_code is not target:
            return None
        events["decision"] += 1
        return lines

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        feed(20_000, 2_000)
    finally:
        sys.settrace(previous)
    decisions = events["decision"]
    assert decisions > 1_000
    per_decision = events["line"] / decisions
    assert per_decision <= STORE_DECISION_LINES_CEILING, (
        f"{shape}: {per_decision:.1f} lines per store decision over {decisions} "
        f"decisions (ceiling {STORE_DECISION_LINES_CEILING})"
    )

"""A seed-exact budget for the fixed cost of one operation.

Wall-clock on a shared host moves by tens of percent between two runs of
the same commit; the number of Python frames one operation enters does not
move at all. This test replays 2 000 records of a ``figure-sim``-shaped run
(the ``run_experiment`` pipeline: 20 caches, 5 rings, dynamic hashing,
utility placement with all four components, 5 % disk) on a warmed cloud and
counts, with ``sys.setprofile``, every ``call`` event whose code lives under
``src/repro``. The ceiling sits about 10 % above what the code reaches, far
below what it cost when every record was an ``Event`` on the heap and every
miss built a frozen context (81.6 frames per operation on this script), so a
change that quietly puts a frame or two back on every operation fails here,
on any host, with the most-called functions named in the message.

A second window (the same cloud at half the request rate) is replayed with
the planes of the ``planes-on`` benchmark workload attached one after another — a fault plan (5 % loss, the
default retry ladder), the overload model (queues of 10, 120 ms + 5 ms/KiB),
a ``Telemetry`` registry, a ``FlightRecorder`` — and each plane's increment
is held under its own ceiling: what an observer costs when attached is a
number too. With the planes on, an operation makes several wire attempts,
so the per-attempt rules are pinned as well: no ``LogHistogram.record``
frame per attempt (the registry journals and folds), no span bookkeeping
once the span recorder is saturated.
"""

from __future__ import annotations

import os
import random
import sys
from collections import Counter
from typing import Iterable, Iterator

import repro
from repro.core.cloud import CacheCloud
from repro.core.config import (
    WEIGHTS_ALL_ON,
    AssignmentScheme,
    CloudConfig,
    PlacementScheme,
)
from repro.core.overload import OverloadConfig
from repro.experiments.runner import run_experiment
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.observe.flight import FlightRecorder
from repro.observe.histogram import LogHistogram
from repro.observe.profile import WorkProfile
from repro.observe.registry import Telemetry
from repro.observe.spans import SpanRecorder
from repro.simulation.events import Event
from repro.simulation.rng import derive_seed
from repro.workload.documents import build_corpus
from repro.workload.sydney import SydneyConfig, SydneyTraceGenerator
from repro.workload.trace import RequestRecord

SEED = 11
WARM_RECORDS = 6_000
COUNTED_RECORDS = 2_000
#: Python frames under ``src/repro`` per operation: measured 59.1 over 2 164
#: operations (2 000 requests, 164 updates); the ceiling leaves ~10 %. It
#: was 61.7 while each rate read went through a per-document estimator
#: object's ``rate`` → ``_decay_to``.
FRAMES_PER_OPERATION_CEILING = 65.0
#: The planes window runs at half the request rate over twice the time:
#: queues build and shed without saturating (3 % of lookups shed, 0.3 % of
#: requests rejected), as in the benchmark's segment; at the full rate a
#: fifth of the lookups is shed and the overload model makes an operation
#: *cheaper*. 56.8 frames per operation with nothing attached.
PLANES_PEAK_RATE, PLANES_MINUTES = 60.0, 16.0
#: With all four planes attached: measured 81.9 over 2 340 operations (it
#: was 134.3 when every wire attempt walked the registry's histograms and
#: the queue's call chain, and every dropped span kept the stack
#: bookkeeping).
PLANES_ON_CEILING = 90.0
#: Frames per operation each plane may add when attached after the ones
#: before it — measured +9.4, +5.1, +4.7, +5.9 (it was +16.7, +17.8,
#: +34.7, +5.9).
PLANE_INCREMENT_CEILINGS = {
    "fault_plan": 10.5,
    "overload": 5.5,
    "telemetry": 5.5,
    "flight": 6.5,
}

SRC_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


class FrameCounter:
    """``sys.setprofile`` hook: ``call`` events per code object under src/repro."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()

    def __call__(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(SRC_ROOT):
                self.calls[code] += 1

    def of(self, function) -> int:
        return self.calls[function.__code__]

    def top(self, count: int = 12) -> str:
        return ", ".join(
            f"{code.co_name}={n}" for code, n in self.calls.most_common(count)
        )


def counted(
    requests: Iterable[RequestRecord], counter: FrameCounter, cloud: CacheCloud, span: dict
) -> Iterator[RequestRecord]:
    """Pass requests through; profile from the warm mark for a fixed count.

    The feeder pulls the next record only after processing the previous
    one, so switching the hook between two ``yield``\\ s brackets whole
    operations (updates that fall between the marks included).
    """
    for index, record in enumerate(requests):
        if index == WARM_RECORDS:
            span["start"] = cloud.requests_handled + cloud.updates_handled
            sys.setprofile(counter)
        elif index == WARM_RECORDS + COUNTED_RECORDS:
            sys.setprofile(None)
            span["end"] = cloud.requests_handled + cloud.updates_handled
            return
        yield record


def counted_run(peak_rate: float = 120.0, minutes: float = 8.0, **planes):
    """Replay the window with ``planes`` attached (``run_experiment``
    keywords); returns ``(counter, operations, cloud)``."""
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
    counter = FrameCounter()
    span: dict = {}
    previous = sys.getprofile()
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
        sys.setprofile(previous)
    operations = span["end"] - span["start"]
    assert operations >= COUNTED_RECORDS  # the requests, plus interleaved updates
    return counter, operations, cloud


def test_frames_per_operation_within_budget():
    counter, operations, cloud = counted_run()
    frames = sum(counter.calls.values())
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


def test_each_plane_adds_a_bounded_number_of_frames(tmp_path):
    retry = RetryPolicy()
    planes = {  # stateful ones are built afresh for every run
        "fault_plan": lambda: FaultPlan(
            seed=derive_seed(SEED, "faults"), loss_rate=0.05, retry=retry
        ),
        "overload": lambda: OverloadConfig(
            queue_capacity=10, service_ms=120.0, service_ms_per_kb=5.0, retry=retry
        ),
        "telemetry": Telemetry,
        "flight": lambda: FlightRecorder(str(tmp_path / "flight.jsonl"), window=2.0),
    }
    counter, operations, _ = counted_run(PLANES_PEAK_RATE, PLANES_MINUTES)
    before = sum(counter.calls.values()) / operations
    attached = []
    for name, ceiling in PLANE_INCREMENT_CEILINGS.items():
        attached.append(name)
        counter, operations, cloud = counted_run(
            PLANES_PEAK_RATE,
            PLANES_MINUTES,
            **{plane: planes[plane]() for plane in attached},
        )
        per_operation = sum(counter.calls.values()) / operations
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
    # Per wire attempt the registry only appends: its histograms are filled
    # by the fold (a few ``record_many`` calls per ``FOLD_EVERY`` operations;
    # the one ``record`` left is the work profile's, per answered lookup)...
    assert counter.of(LogHistogram.record) == counter.of(WorkProfile.record_walk)
    assert 0 < counter.of(LogHistogram.record_many) < 0.05 * operations
    # ...and a span begun past saturation touches no stack.
    assert counter.of(SpanRecorder.open) == 0 and counter.of(SpanRecorder.close) == 0
    assert telemetry.counters["fabric.attempts.control"] > operations

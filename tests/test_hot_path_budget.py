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
from repro.experiments.runner import run_experiment
from repro.simulation.events import Event
from repro.simulation.rng import derive_seed
from repro.workload.documents import build_corpus
from repro.workload.sydney import SydneyConfig, SydneyTraceGenerator
from repro.workload.trace import RequestRecord

SEED = 11
WARM_RECORDS = 6_000
COUNTED_RECORDS = 2_000
#: Python frames under ``src/repro`` per operation: measured 61.7 over 2 164
#: operations (2 000 requests, 164 updates); the ceiling leaves ~10 %.
FRAMES_PER_OPERATION_CEILING = 68.0

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


def test_frames_per_operation_within_budget():
    corpus = build_corpus(1_000, random.Random(derive_seed(SEED, "corpus")))
    trace = SydneyTraceGenerator(
        SydneyConfig(
            num_documents=1_000,
            num_caches=20,
            peak_request_rate_per_cache=120.0,
            base_update_rate=195.0,
            duration_minutes=8.0,
            diurnal_period_minutes=8.0,
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
            duration=8.0,
            warmup=1.0,
            cloud=cloud,
        )
    finally:
        sys.setprofile(previous)
    operations = span["end"] - span["start"]
    assert operations >= COUNTED_RECORDS  # the requests, plus interleaved updates
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

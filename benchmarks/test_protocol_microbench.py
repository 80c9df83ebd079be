"""Protocol-plane microbenchmark — requests/sec through ``handle_request``.

Unlike the figure benches (scientific reproductions), this is a pure
throughput probe of the hot path: a fixed-seed request/update mix driven
straight into one cloud, no simulator in the loop. Each run also writes the
schema-versioned ``BENCH_protocol.json`` at the repository root; the
committed copy of that file is the perf-trajectory baseline CI guards
against.

Two rows are measured on the same cloud and workload: the dispatch fast
path (nothing attached — the 174.6k req/s guard) and ``all_planes`` (fault
injector with retries, overload controller, telemetry registry and flight
recorder attached at once — the fabric's general attempt path with every
handle of its attach-time plan bound). A third row, ``update_fanout``,
measures the update path alone: updates/s and holder legs/s with every
cache of a 32-cache cloud holding every document (a steady ~31-leg
fan-out), again with nothing attached (one ``send_fanout`` transaction per
update) and with all planes attached (leg by leg). CI holds every row to
the same 10 % floor.

The measurement is best-of-``TRIALS``: every trial rebuilds the cloud and
replays the identical seeded workload, so each timed segment does exactly
the same work and the minimum elapsed time is the least-noise estimate of
the hot path's cost. No absolute throughput threshold is asserted here (CI
machines vary); the assertions pin the *work done* — same seed, same
outcome mix, same dispatch count across trials — so the archived number is
always measuring the same workload.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
import time
from pathlib import Path

from benchmarks.conftest import archive
from repro.core.cloud import CacheCloud
from repro.core.config import AssignmentScheme, CloudConfig, PlacementScheme
from repro.core.overload import OverloadConfig
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.network.bandwidth import TrafficCategory
from repro.observe.flight import FlightRecorder
from repro.observe.registry import Telemetry
from repro.workload.documents import build_corpus

#: Fixed workload shape; bump only with a note in the archived artifact.
NUM_DOCS = 500
NUM_REQUESTS = 20_000
WARMUP_REQUESTS = 2_000
SEED = 42
NUM_CACHES = 10
NUM_RINGS = 5

#: Independent cold-start measurements; the best (minimum elapsed) one is
#: archived. Three suffices: trials are deterministic replicas, so extra
#: trials only sample machine noise, not workload variance.
TRIALS = 3

#: The committed perf-trajectory baseline (repository root).
ROOT_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_protocol.json"

#: Schema of the root artifact. Bump when fields change meaning so the CI
#: guard never silently compares incompatible documents.
ROOT_SCHEMA_VERSION = 4

#: The ``update_fanout`` row: every cache holds every document, so each
#: update fans out to all caches but the document's beacon point.
FANOUT_CACHES = 32
FANOUT_DOCS = 50
FANOUT_UPDATES = 4_000


def _workload(num_events: int, num_caches: int, start: int = 0):
    """A deterministic request stream with an update every 20th event."""
    rng = random.Random(SEED + start)
    events = []
    for i in range(num_events):
        cache_id = rng.randrange(num_caches)
        # Mild skew: squaring the uniform draw favours low doc ids, so the
        # mix exercises local hits, cloud hits, and origin fetches.
        doc_id = int(rng.random() ** 2 * NUM_DOCS) % NUM_DOCS
        events.append((cache_id, doc_id, float(start + i)))
    return events


def _build_cloud(
    num_caches: int = NUM_CACHES, num_docs: int = NUM_DOCS
) -> CacheCloud:
    corpus = build_corpus(num_docs, random.Random(7))
    config = CloudConfig(
        num_caches=num_caches,
        num_rings=NUM_RINGS,
        intra_gen=1000,
        assignment=AssignmentScheme.DYNAMIC,
        placement=PlacementScheme.AD_HOC,
        seed=SEED,
    )
    return CacheCloud(config, corpus)


#: What the ``all_planes`` row attaches (recorded in the artifact).
ALL_PLANES = (
    "FaultPlan(loss 0.05, RetryPolicy()), OverloadConfig(capacity 10, 120 ms, "
    "5 ms/KiB, retry), Telemetry, FlightRecorder(100-min windows)"
)


def _attach_all_planes(cloud: CacheCloud, scratch: str) -> None:
    """Everything that takes the fabric off its fast path, at once."""
    retry = RetryPolicy()
    cloud.attach_telemetry(Telemetry())
    cloud.attach_overload(
        OverloadConfig(
            queue_capacity=10, service_ms=120.0, service_ms_per_kb=5.0, retry=retry
        )
    )
    cloud.attach_flight(
        FlightRecorder(os.path.join(scratch, "flight.jsonl"), window=100.0)
    )
    cloud.attach_faults(
        FaultInjector(
            FaultPlan(seed=SEED, loss_rate=0.05, retry=retry), cloud.transport
        )
    )


def _run_trial(scratch: str | None = None) -> tuple[float, CacheCloud]:
    """One cold-start measurement: fresh cloud, warmup, timed segment.

    With a ``scratch`` directory every plane is attached before the warm-up.
    """
    cloud = _build_cloud()
    if scratch is not None:
        _attach_all_planes(cloud, scratch)
    for cache_id, doc_id, now in _workload(WARMUP_REQUESTS, NUM_CACHES):
        cloud.handle_request(cache_id, doc_id, now)
    timed = _workload(NUM_REQUESTS, NUM_CACHES, start=WARMUP_REQUESTS)
    handle_request = cloud.handle_request
    handle_update = cloud.handle_update
    start = time.perf_counter()
    for i, (cache_id, doc_id, now) in enumerate(timed):
        handle_request(cache_id, doc_id, now)
        if i % 20 == 19:
            handle_update((3 * i) % NUM_DOCS, now)
    elapsed = time.perf_counter() - start
    if cloud.flight is not None:
        cloud.flight.finish(timed[-1][2])  # closes the artifact
    return elapsed, cloud


def _run_fanout_trial(scratch: str | None = None) -> tuple[float, CacheCloud]:
    """One cold-start measurement of the update path at a full holder set.

    The planes are attached after the warm-up, so both rows start from the
    same full holder sets. Updates are a simulated minute apart: the service
    queues drain between bursts and every leg is sent (and, under the 5 %
    loss, some retried) rather than deferred.
    """
    cloud = _build_cloud(FANOUT_CACHES, FANOUT_DOCS)
    for doc_id in range(FANOUT_DOCS):
        for cache_id in range(FANOUT_CACHES):
            cloud.handle_request(cache_id, doc_id, 0.0)
    if scratch is not None:
        _attach_all_planes(cloud, scratch)
    handle_update = cloud.handle_update
    start = time.perf_counter()
    for i in range(FANOUT_UPDATES):
        handle_update(i % FANOUT_DOCS, float(1 + i))
    elapsed = time.perf_counter() - start
    if cloud.flight is not None:
        cloud.flight.finish(float(FANOUT_UPDATES))
    return elapsed, cloud


def _fanout_work_done(cloud: CacheCloud) -> dict:
    """Seed-exact pins of one fan-out trial."""
    return {
        "refreshed_total": cloud.aggregate_stats().updates_applied,
        "fanout_legs": cloud.transport.meter.messages_for(
            TrafficCategory.UPDATE_FANOUT
        ),
        "fabric_dispatches": cloud.fabric.stats.dispatches,
        "fabric_retries": cloud.fabric.stats.retries,
    }


def _fanout_row(trials: list[tuple[float, CacheCloud]]) -> dict:
    """The least-noise trial as an artifact row (trials did identical work)."""
    elapsed, cloud = min(trials, key=lambda t: t[0])
    work = _fanout_work_done(cloud)
    for _, other in trials:
        assert _fanout_work_done(other) == work
    return {
        "elapsed_seconds_best": elapsed,
        "updates_per_second": FANOUT_UPDATES / elapsed,
        "legs_per_second": work["fanout_legs"] / elapsed,
        **work,
    }


def _work_done(cloud: CacheCloud) -> dict:
    """The seed-exact work pins of one trial (what CI compares for equality)."""
    stats = cloud.aggregate_stats()
    return {
        "fabric_dispatches": cloud.fabric.stats.dispatches,
        "outcome_mix": {
            "local_hits": stats.local_hits,
            "cloud_hits": stats.cloud_hits,
            "origin_fetches": stats.origin_fetches,
        },
    }


def _best(trials: list[tuple[float, CacheCloud]]) -> tuple[float, CacheCloud]:
    """Least-noise trial, after checking every trial did identical work.

    Trials are deterministic replicas of one workload: were they not, the
    minimum-elapsed pick would be comparing different computations.
    """
    best = min(trials, key=lambda t: t[0])
    for _, cloud in trials:
        assert _work_done(cloud) == _work_done(best[1])
    return best


def test_protocol_microbench(benchmark):
    def measure():
        fast = [_run_trial() for _ in range(TRIALS)]
        with tempfile.TemporaryDirectory(prefix="bench-protocol-") as scratch:
            planes = [_run_trial(scratch) for _ in range(TRIALS)]
        fanout = [_run_fanout_trial() for _ in range(TRIALS)]
        with tempfile.TemporaryDirectory(prefix="bench-protocol-") as scratch:
            fanout_planes = [_run_fanout_trial(scratch) for _ in range(TRIALS)]
        return fast, planes, fanout, fanout_planes

    fast_trials, planes_trials, fanout_trials, fanout_planes_trials = (
        benchmark.pedantic(measure, rounds=1, iterations=1)
    )
    fanout_row = _fanout_row(fanout_trials)
    fanout_planes_row = _fanout_row(fanout_planes_trials)
    elapsed, cloud = _best(fast_trials)
    planes_elapsed, planes_cloud = _best(planes_trials)
    rps = NUM_REQUESTS / elapsed
    planes_rps = NUM_REQUESTS / planes_elapsed
    work = _work_done(cloud)
    outcome_mix = work["outcome_mix"]
    planes_fabric = planes_cloud.fabric.stats

    payload = {
        "seed": SEED,
        "num_docs": NUM_DOCS,
        "warmup_requests": WARMUP_REQUESTS,
        "timed_requests": NUM_REQUESTS,
        "trials": TRIALS,
        "elapsed_seconds": elapsed,
        "requests_per_second": rps,
        "all_planes_requests_per_second": planes_rps,
        "fanout_updates_per_second": fanout_row["updates_per_second"],
        "all_planes_fanout_updates_per_second": fanout_planes_row[
            "updates_per_second"
        ],
        **work,
    }
    archive(payload, "BENCH_protocol")

    # The root artifact is the committed baseline of the perf trajectory:
    # seed-pinned, schema-versioned, stable key order for reviewable diffs.
    root_doc = {
        "schema_version": ROOT_SCHEMA_VERSION,
        "benchmark": "protocol_microbench",
        "workload": {
            "seed": SEED,
            "num_docs": NUM_DOCS,
            "num_caches": NUM_CACHES,
            "num_rings": NUM_RINGS,
            "warmup_requests": WARMUP_REQUESTS,
            "timed_requests": NUM_REQUESTS,
            "assignment": "dynamic",
            "placement": "ad_hoc",
        },
        "trials": TRIALS,
        "elapsed_seconds_best": elapsed,
        "requests_per_second": rps,
        **work,
        "all_planes": {
            "attached": ALL_PLANES,
            "elapsed_seconds_best": planes_elapsed,
            "requests_per_second": planes_rps,
            "fabric_retries": planes_fabric.retries,
            "fabric_rejections": planes_fabric.rejections,
            **_work_done(planes_cloud),
        },
        "update_fanout": {
            "workload": {
                "num_caches": FANOUT_CACHES,
                "num_docs": FANOUT_DOCS,
                "updates": FANOUT_UPDATES,
            },
            **fanout_row,
            "all_planes": fanout_planes_row,
        },
    }
    ROOT_ARTIFACT.write_text(
        json.dumps(root_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    benchmark.extra_info["requests_per_second"] = rps
    benchmark.extra_info["all_planes_requests_per_second"] = planes_rps
    benchmark.extra_info.update(outcome_mix)

    # Work-done pins: the timed segment really exercised every path.
    assert rps > 0.0 and planes_rps > 0.0
    assert cloud.requests_handled == WARMUP_REQUESTS + NUM_REQUESTS
    assert all(count > 0 for count in outcome_mix.values())
    # A perfect network accrues no retries/timeouts through the fabric ...
    assert cloud.fabric.stats.retries == 0 and cloud.fabric.stats.timeouts == 0
    assert cloud.fabric._fast_path
    # ... and the all-planes row really ran the general path under loss.
    assert not planes_cloud.fabric._fast_path
    assert planes_fabric.retries > 0
    assert planes_cloud.telemetry.counters["fabric.attempts.control"] > 0
    # The fan-out row held its ~31-leg burst on both paths: every holder
    # refreshed when nothing is attached, nearly all of them under loss.
    legs = FANOUT_UPDATES * (FANOUT_CACHES - 1)
    assert fanout_row["fanout_legs"] == legs
    assert fanout_row["refreshed_total"] == FANOUT_UPDATES * FANOUT_CACHES
    assert fanout_row["fabric_retries"] == 0
    assert fanout_planes_row["fabric_retries"] > 0
    assert fanout_planes_row["refreshed_total"] > 0.95 * fanout_row["refreshed_total"]

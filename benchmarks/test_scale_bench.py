"""Federation scale benchmark — ten million streamed requests, 1000 nodes.

The strategy-plane PR's scale proof: a four-cloud federation of 1000 edge
caches (250 per cloud, shared origin) driven straight through
``EdgeCacheNetwork.handle_request`` with a *generated-on-the-fly* request
stream — no trace list, no simulator — so peak memory is bounded by cloud
state while the request count runs to ten million. Each run writes the
schema-versioned ``BENCH_scale.json`` at the repository root; the committed
copy is the baseline CI's wall-clock regression guard compares against.

Schema v2 (the flight-recorder PR) replaced the single aggregate
``requests_per_second`` with a *windowed* ``rps_series``: wall-clock
throughput measured every ``WINDOW_REQUESTS`` requests. A cold start — the
first windows are slower while caches fill and holder sets grow — used to
be averaged invisibly into the one number; the series makes the warm-up
knee explicit and lets the CI guard compare *steady-state* throughput
(the last-quarter window mean) instead of a cold-start-diluted aggregate.

One trial only: at this size a single replay is minutes of work and the
relative noise of a cold start is small. The assertions pin the work done
(request count, outcome mix populated, zero fabric retries) so the archived
numbers always measure the same workload.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

from benchmarks.conftest import archive
from repro.core.config import AssignmentScheme, CloudConfig, PlacementScheme
from repro.core.edgenetwork import EdgeCacheNetwork
from repro.edgecache.stats import CacheStats
from repro.workload.documents import build_corpus

#: Fixed federation shape; bump only with a note in the archived artifact.
NUM_CLOUDS = 4
CACHES_PER_CLOUD = 250
NUM_NODES = NUM_CLOUDS * CACHES_PER_CLOUD
NUM_DOCS = 100_000
#: The headline request count. ``REPRO_SCALE_REQUESTS`` shrinks the run for
#: smoke jobs; the root artifact is only (re)written by full-size runs, so
#: the committed baseline always describes the ten-million-request shape.
FULL_REQUESTS = 10_000_000
NUM_REQUESTS = int(os.environ.get("REPRO_SCALE_REQUESTS", FULL_REQUESTS))
#: One origin update interleaved per this many requests (200k updates).
UPDATE_EVERY = 50
SEED = 1_000_003
#: Per-cache disk budget as a fraction of the corpus bytes — small enough
#: that eviction and admission policy stay active for the whole run.
DISK_FRACTION = 0.01

#: Wall-clock throughput is sampled every this many requests; the full run
#: yields a 100-point series, the CI smoke run (200k requests) two points.
WINDOW_REQUESTS = 100_000

#: The committed perf-trajectory baseline (repository root).
ROOT_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_scale.json"

#: Schema of the root artifact. Bump when fields change meaning so the CI
#: guard never silently compares incompatible documents. v2: windowed
#: ``rps_series`` + ``steady_state_rps`` replace ``requests_per_second``.
ROOT_SCHEMA_VERSION = 2


def steady_state_rps(series):
    """Mean of the last quarter of the windowed series (>= one window).

    The early windows measure cache warm-up; the guard and the headline
    number both want the throughput the federation settles into.
    """
    if not series:
        raise ValueError("empty rps series")
    tail = series[-max(1, len(series) // 4):]
    return sum(tail) / len(tail)


def _request_stream(rng: random.Random):
    """Lazy (node, doc, now) stream — ten million events, O(1) resident.

    Mild skew (squared uniform draw) keeps hot documents resident and the
    tail churning through the capacity-limited caches, so the stream
    exercises local hits, intra-cloud hits, origin fetches, and eviction.
    """
    for i in range(NUM_REQUESTS):
        node = rng.randrange(NUM_NODES)
        doc_id = int(rng.random() ** 2 * NUM_DOCS) % NUM_DOCS
        yield i, node, doc_id, float(i) / 1000.0


def _build_network() -> EdgeCacheNetwork:
    corpus = build_corpus(NUM_DOCS, random.Random(SEED))
    base_config = CloudConfig(
        num_caches=CACHES_PER_CLOUD,
        num_rings=10,
        intra_gen=1000,
        assignment=AssignmentScheme.DYNAMIC,
        placement=PlacementScheme.UTILITY,
        capacity_bytes=max(1, int(corpus.total_bytes * DISK_FRACTION)),
        seed=SEED,
    )
    memberships = [
        range(c * CACHES_PER_CLOUD, (c + 1) * CACHES_PER_CLOUD)
        for c in range(NUM_CLOUDS)
    ]
    return EdgeCacheNetwork(memberships, base_config, corpus)


def test_scale_federation(benchmark):
    network = _build_network()

    def measure():
        handle_request = network.handle_request
        handle_update = network.handle_update
        rng = random.Random(SEED + 1)
        marks = []
        start = time.perf_counter()
        window_start = start
        for i, node, doc_id, now in _request_stream(rng):
            handle_request(node, doc_id, now)
            if i % UPDATE_EVERY == UPDATE_EVERY - 1:
                handle_update((7 * i) % NUM_DOCS, now)
            if i % WINDOW_REQUESTS == WINDOW_REQUESTS - 1:
                mark = time.perf_counter()
                marks.append(mark - window_start)
                window_start = mark
        return time.perf_counter() - start, marks

    elapsed, window_seconds = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    rps = NUM_REQUESTS / elapsed
    # One throughput point per *complete* window; a trailing remainder
    # (request count not divisible by the window) still counts toward
    # ``elapsed`` but would make a noisy, short last point.
    rps_series = [WINDOW_REQUESTS / dt for dt in window_seconds]
    steady_rps = steady_state_rps(rps_series) if rps_series else rps

    stats = CacheStats()
    for cloud in network.clouds:
        stats.merge(cloud.aggregate_stats())
    outcome_mix = {
        "local_hits": stats.local_hits,
        "cloud_hits": stats.cloud_hits,
        "origin_fetches": stats.origin_fetches,
    }

    payload = {
        "seed": SEED,
        "num_clouds": NUM_CLOUDS,
        "num_nodes": NUM_NODES,
        "num_docs": NUM_DOCS,
        "requests": NUM_REQUESTS,
        "update_every": UPDATE_EVERY,
        "elapsed_seconds": elapsed,
        "requests_per_second": rps,
        "window_requests": WINDOW_REQUESTS,
        "rps_series": rps_series,
        "steady_state_rps": steady_rps,
        "outcome_mix": outcome_mix,
    }
    archive(payload, "BENCH_scale")

    full_run = NUM_REQUESTS == FULL_REQUESTS
    root_doc = {
        "schema_version": ROOT_SCHEMA_VERSION,
        "benchmark": "scale_federation",
        "workload": {
            "seed": SEED,
            "num_clouds": NUM_CLOUDS,
            "caches_per_cloud": CACHES_PER_CLOUD,
            "num_docs": NUM_DOCS,
            "requests": NUM_REQUESTS,
            "update_every": UPDATE_EVERY,
            "disk_fraction": DISK_FRACTION,
            "assignment": "dynamic",
            "placement": "utility",
        },
        "elapsed_seconds": elapsed,
        "window_requests": WINDOW_REQUESTS,
        "rps_series": rps_series,
        "steady_state_rps": steady_rps,
        "outcome_mix": outcome_mix,
        "updates_handled": network.updates_handled,
    }
    if full_run:
        ROOT_ARTIFACT.write_text(
            json.dumps(root_doc, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    benchmark.extra_info["requests_per_second"] = rps
    benchmark.extra_info["steady_state_rps"] = steady_rps
    benchmark.extra_info.update(outcome_mix)

    # Work-done pins: the run really pushed ten million requests through
    # the federation and every outcome class occurred.
    assert network.requests_handled == NUM_REQUESTS
    assert len(rps_series) == NUM_REQUESTS // WINDOW_REQUESTS
    assert network.updates_handled == NUM_REQUESTS // UPDATE_EVERY
    assert stats.requests == NUM_REQUESTS
    assert stats.local_hits > 0
    assert stats.cloud_hits > 0
    assert stats.origin_fetches > 0
    # A perfect network accrues no retries/timeouts in any member cloud.
    assert all(c.fabric.stats.retries == 0 and c.fabric.stats.timeouts == 0 for c in network.clouds)

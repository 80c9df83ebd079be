"""Streaming workload path: lazy trace generation, value-identical and O(window).

The spec-driven run path (``run_spec``) is out-of-core: it replaces the
materialized :class:`~repro.workload.trace.Trace` with lazy
``requests()`` / ``updates()`` iterators merged on the fly. These tests pin
its two contracts:

* **value identity** — the streamed records are exactly what
  ``build_trace()`` would list out, record for record, for both generator
  families, and a streamed experiment fingerprints identically to the
  same spec run from ``materialize()``'s lists; and
* **bounded memory** — replaying a 100 000-request trace through the
  iterator path keeps peak resident trace state O(window) (merge
  lookahead + distinct-doc tally), not O(requests); the same body at a
  million requests runs in ``benchmarks/test_million_request.py``.
"""

from __future__ import annotations

import tracemalloc

from repro.experiments.parallel import (
    ExperimentSpec,
    WorkloadSpec,
    run_spec,
)
from repro.experiments.reporting import fingerprint
from repro.core.config import AssignmentScheme, CloudConfig, PlacementScheme
from repro.workload.generator import SyntheticTraceGenerator, WorkloadConfig
from repro.workload.sydney import SydneyConfig, SydneyTraceGenerator
from repro.workload.trace import RequestStreamStats, merge_streams
from tests.conftest import run_materialized


def _zipf_config(**overrides) -> WorkloadConfig:
    base = dict(
        num_documents=80,
        num_caches=4,
        request_rate_per_cache=40.0,
        update_rate=15.0,
        duration_minutes=8.0,
        seed=11,
    )
    base.update(overrides)
    return WorkloadConfig(**base)


def _zipf_spec() -> ExperimentSpec:
    workload = WorkloadSpec(
        generator_config=_zipf_config(),
        corpus_documents=80,
        corpus_seed=11,
    )
    config = CloudConfig(
        num_caches=4,
        num_rings=2,
        intra_gen=100,
        cycle_length=5.0,
        assignment=AssignmentScheme.DYNAMIC,
        placement=PlacementScheme.UTILITY,
        seed=11,
    )
    return ExperimentSpec(
        key="zipf", config=config, workload=workload, duration=8.0, warmup=0.0
    )


class TestStreamValueIdentity:
    def test_synthetic_streams_equal_built_trace(self):
        config = _zipf_config()
        trace = SyntheticTraceGenerator(config).build_trace()
        fresh = SyntheticTraceGenerator(config)
        assert list(fresh.requests()) == trace.requests
        assert list(fresh.updates()) == trace.updates

    def test_sydney_streams_equal_built_trace(self):
        config = SydneyConfig(num_caches=4, duration_minutes=5.0, seed=9)
        trace = SydneyTraceGenerator(config).build_trace()
        fresh = SydneyTraceGenerator(config)
        assert list(fresh.requests()) == trace.requests
        assert list(fresh.updates()) == trace.updates

    def test_build_generator_matches_config_type(self):
        zipf = WorkloadSpec(
            generator_config=_zipf_config(), corpus_documents=80, corpus_seed=1
        )
        sydney = WorkloadSpec(
            generator_config=SydneyConfig(num_caches=4, duration_minutes=1.0),
            corpus_documents=80,
            corpus_seed=1,
        )
        assert isinstance(zipf.build_generator(), SyntheticTraceGenerator)
        assert isinstance(sydney.build_generator(), SydneyTraceGenerator)

    def test_request_stream_stats_passthrough(self):
        config = _zipf_config()
        trace = SyntheticTraceGenerator(config).build_trace()
        counter = RequestStreamStats(SyntheticTraceGenerator(config).requests())
        assert list(counter) == trace.requests
        assert counter.records == len(trace.requests)
        assert counter.unique_docs == len(trace.request_counts_by_doc())


class TestStreamingRunPath:
    def test_streaming_experiment_fingerprints_like_materialized(self):
        streamed = run_spec(_zipf_spec())
        materialized = run_materialized(_zipf_spec())
        assert streamed.stats == materialized.stats
        assert streamed.unique_request_docs == materialized.unique_request_docs
        assert fingerprint(streamed) == fingerprint(materialized)


#: Peak resident bound for the streaming replay. A materialized
#: million-record trace is ~100+ MB of RequestRecord objects; the iterator
#: path's window (heapq lookahead + distinct-doc set + generator state)
#: stays comfortably under this.
MEMORY_BUDGET_BYTES = 16 * 1024 * 1024


def replay_out_of_core(duration: float) -> None:
    """Drain ``duration`` minutes of 50 caches x 200 req/min, peak-traced.

    ``duration=100`` is the one-million-request replay
    (``benchmarks/test_million_request.py``).
    """
    offered = 50 * 200.0 * duration
    config = _zipf_config(
        num_documents=2_000,
        num_caches=50,
        request_rate_per_cache=200.0,
        update_rate=50.0,
        duration_minutes=duration,
    )
    generator = SyntheticTraceGenerator(config)
    counter = RequestStreamStats(generator.requests())
    stream = merge_streams(counter, generator.updates())

    tracemalloc.start()
    tracemalloc.reset_peak()
    drained = 0
    last_time = -1.0
    for record in stream:
        drained += 1
        assert record.time >= last_time  # merged in global time order
        last_time = record.time
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert counter.records > 0.9 * offered  # Poisson noise around the offered load
    assert drained > counter.records  # updates were interleaved too
    assert counter.unique_docs <= config.num_documents
    assert peak < MEMORY_BUDGET_BYTES, (
        f"streaming replay peaked at {peak / 2**20:.1f} MiB; "
        f"trace state is not O(window)"
    )


class TestStreamingMemoryGuard:
    def test_hundred_thousand_request_replay_is_out_of_core(self):
        replay_out_of_core(duration=10.0)

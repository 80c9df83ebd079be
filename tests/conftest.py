"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.cloud import CacheCloud
from repro.core.config import AssignmentScheme, CloudConfig, PlacementScheme
from repro.workload.documents import build_corpus


@pytest.fixture
def rng():
    """A deterministic RNG for tests."""
    return random.Random(1234)


@pytest.fixture
def small_corpus():
    """50 documents with fixed 1 KiB size for predictable byte accounting."""
    return build_corpus(50, fixed_size=1024)


@pytest.fixture
def corpus_200():
    """200 documents with varied sizes."""
    return build_corpus(200, random.Random(7))


def make_cloud(
    corpus,
    num_caches=4,
    num_rings=2,
    assignment=AssignmentScheme.DYNAMIC,
    placement=PlacementScheme.AD_HOC,
    **overrides,
):
    """Build a small cloud (test helper)."""
    config = CloudConfig(
        num_caches=num_caches,
        num_rings=num_rings,
        assignment=assignment,
        placement=placement,
        intra_gen=overrides.pop("intra_gen", 100),
        cycle_length=overrides.pop("cycle_length", 10.0),
        **overrides,
    )
    return CacheCloud(config, corpus)


def wire(cloud, action):
    """What ``action()`` sent on ``cloud``'s wire, one tuple per attempt.

    Attaches the fabric's dispatch log for the call and returns its rows as
    ``(src, dst, num_bytes, category)`` in dispatch order.
    """
    log = cloud.fabric.capture_dispatches()
    action()
    cloud.fabric.stop_dispatch_capture()
    return [(r.src, r.dst, r.num_bytes, r.category) for r in log]


@pytest.fixture
def cloud_factory(small_corpus):
    """Factory fixture: build clouds over the small corpus."""

    def factory(**kwargs):
        return make_cloud(small_corpus, **kwargs)

    return factory


@pytest.fixture(scope="session")
def smoke():
    """``smoke(name)``: the registry entry's tiny-scale outcome, run once.

    The experiment tests read one shared serial run per entry instead of
    re-running it per module; treat the outcome as read-only.
    """
    from repro.experiments import registry

    outcomes = {}

    def outcome(name):
        if name not in outcomes:
            outcomes[name] = registry.run(name, registry.SMOKE_SCALE, jobs=1)
        return outcomes[name]

    return outcome


def run_materialized(spec):
    """Run ``spec`` from its fully materialized trace: the streaming reference.

    Spec-driven runs stream their workload (``run_spec``); this is the
    value-identity oracle — the same spec, every plane of it, fed from
    ``materialize()``'s lists through
    :func:`~repro.experiments.runner.run_experiment`.
    """
    from repro.experiments.runner import run_experiment
    from repro.strategies.spec import build_strategy

    corpus, trace = spec.workload.materialize()
    result = run_experiment(
        spec.config,
        corpus,
        trace.requests,
        trace.updates,
        duration=spec.duration,
        warmup=spec.warmup,
        fault_plan=spec.fault_plan,
        churn=spec.churn,
        anti_entropy=spec.anti_entropy,
        audit=spec.audit,
        overload=spec.overload,
        elastic=spec.elastic,
        strategy=(
            build_strategy(spec.strategy, spec.config) if spec.strategy else None
        ),
        flight=spec.flight.build() if spec.flight else None,
    )
    result.unique_request_docs = len(trace.request_counts_by_doc())
    return result.detached()

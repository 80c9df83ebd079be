"""Layer probes: one small fixed job per layer, timed in isolation.

The workloads say how fast the whole simulator is on realistic traffic;
the probes say how fast each layer is *by itself*, so a regression can
name its layer even when the workloads blur it. Every probe runs a fixed
amount of work (asserted), takes a fraction of a second, and reports
``probe.*`` per-layer metrics in the traced stage. They draw on a fixed
seed of their own: the numbers compare commits, not inputs.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from typing import Callable, Dict, Optional

from repro.core.cloud import CacheCloud
from repro.core.config import WEIGHTS_ALL_ON, CloudConfig
from repro.core.directory import LookupDirectory
from repro.core.fabric import MessageFabric
from repro.core.overload import OverloadConfig, OverloadController
from repro.edgecache.replacement import make_policy
from repro.edgecache.storage import CacheStorage
from repro.experiments.runner import run_experiment
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.network.bandwidth import TrafficCategory
from repro.network.transport import Transport
from repro.observe.flight import FlightRecorder
from repro.observe.profile import WorkProfile
from repro.observe.registry import Telemetry
from repro.simulation.engine import Simulator
from repro.workload.documents import build_corpus
from repro.workload.sydney import SydneyConfig, SydneyTraceGenerator

from .spec import OUT_DIR

PROBE_SEED = 20050606


def _expect(condition: bool, what: str) -> None:
    """A probe that did not do its stated work measured something else."""
    if not condition:
        raise RuntimeError(f"probe work count off: {what}")


def _per_second(work: int, job: Callable[[], None]) -> float:
    start = time.perf_counter()
    job()
    return work / (time.perf_counter() - start)


def simulation_events(events: int = 60_000) -> float:
    """Schedule and dispatch no-op events."""
    simulator = Simulator()

    def job() -> None:
        for i in range(events):
            simulator.schedule_at(i * 0.001, _noop)
        simulator.run_until(events * 0.001)

    rate = _per_second(events, job)
    _expect(simulator.dispatched_events == events, "events dispatched")
    return rate


def _noop() -> None:
    return None


def edgecache_admit_evict(policy: str, admits: int = 30_000, resident: int = 200) -> float:
    """Admit into a full, capacity-bound store: every admit evicts one."""
    size = 1000
    storage = CacheStorage(capacity_bytes=resident * size, policy=make_policy(policy))

    def job() -> None:
        for doc_id in range(admits):
            storage.admit(doc_id, size, 1, float(doc_id))
            if doc_id % 3 == 0:
                storage.access(doc_id, float(doc_id))

    rate = _per_second(admits, job)
    _expect(
        storage.evictions == admits - resident and len(storage) == resident,
        f"{policy} evictions",
    )
    return rate


def directory_add_remove(docs: int = 4_000, holders: int = 8) -> float:
    """Register then unregister ``holders`` caches for each of ``docs``."""
    directory = LookupDirectory()

    def job() -> None:
        for doc_id in range(docs):
            for cache_id in range(holders):
                directory.add_holder(doc_id, doc_id % 1000, cache_id)
        _expect(len(directory) == docs, "directory entries after adds")
        for doc_id in range(docs):
            for cache_id in range(holders):
                directory.remove_holder(doc_id, cache_id)

    rate = _per_second(2 * docs * holders, job)
    _expect(len(directory) == 0, "directory entries after removes")
    return rate


def directory_holders(set_size: int, reads: int = 40_000) -> float:
    """Read one document's holder set (a copy) of ``set_size`` caches."""
    directory = LookupDirectory()
    for cache_id in range(set_size):
        directory.add_holder(7, 7, cache_id)
    seen = 0

    def job() -> None:
        nonlocal seen
        for _ in range(reads):
            seen += len(directory.holders(7))

    rate = _per_second(reads, job)
    _expect(seen == reads * set_size, "holders read")
    return rate


def fabric_dispatch(middleware: str, rounds: int = 12_000) -> float:
    """One lookup RPC, one document leg, one control message per round.

    ``middleware`` attaches exactly one of the things that take the fabric
    off its fast path (or none, for ``fast``).
    """
    transport = Transport()
    fabric = MessageFabric(transport)
    controller: Optional[OverloadController] = None
    if middleware == "faults":
        plan = FaultPlan(seed=PROBE_SEED, loss_rate=0.05, retry=RetryPolicy())
        fabric.attach_faults(FaultInjector(plan, transport))
    elif middleware == "service":
        controller = OverloadController(OverloadConfig(queue_capacity=10, service_ms=1.0))
        fabric.attach_service(controller)
    elif middleware == "telemetry":
        fabric.telemetry = Telemetry()
    elif middleware != "fast":
        raise ValueError(middleware)

    def job() -> None:
        for i in range(rounds):
            src, dst = i % 20, (i * 7 + 3) % 20
            if controller is not None:
                controller.advance(i * 0.01)
            fabric.request_response(src, dst, 1)
            fabric.send_document(dst, src, 4096, TrafficCategory.PEER_TRANSFER, reliable=True)
            fabric.send_control(src, dst, reliable=False)

    rate = _per_second(4 * rounds, job)
    # Four wire attempts per round, plus retransmissions under loss.
    if middleware == "faults":
        _expect(fabric.stats.dispatches > 4 * rounds, "dispatches under loss")
    else:
        _expect(fabric.stats.dispatches == 4 * rounds, f"{middleware} dispatches")
    return rate


def _figure_slice(attach: str, scratch: str) -> float:
    """CPU seconds of a short figure-sim-shaped run with one observer."""
    corpus = build_corpus(1000, random.Random(PROBE_SEED))
    trace = SydneyTraceGenerator(
        SydneyConfig(
            num_documents=1000,
            num_caches=10,
            peak_request_rate_per_cache=120.0,
            duration_minutes=20.0,
            diurnal_period_minutes=20.0,
            drift_pool=500,
            seed=PROBE_SEED,
        )
    ).build_trace()
    config = CloudConfig(
        num_caches=10,
        num_rings=5,
        cycle_length=10.0,
        utility_weights=WEIGHTS_ALL_ON,
        capacity_bytes=int(corpus.total_bytes * 0.05),
        seed=PROBE_SEED,
    )
    cloud = CacheCloud(config, corpus)
    flight = None
    if attach == "flight":
        flight = FlightRecorder(os.path.join(scratch, "probe.jsonl"), window=2.0)
    elif attach == "profile":
        cloud.attach_profile(WorkProfile())
    start = time.process_time()
    result = run_experiment(
        config, corpus, trace.requests, trace.updates, 20.0, warmup=5.0,
        cloud=cloud, flight=flight,
    )
    elapsed = time.process_time() - start
    _expect(result.requests == len(trace.requests), "slice requests fed")
    return elapsed


def observe_overheads() -> Dict[str, float]:
    """Attached ÷ detached CPU time of the same short simulated run."""
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR)
    try:
        detached = _figure_slice("none", scratch)
        return {
            "probe.observe.flight_overhead_ratio": _figure_slice("flight", scratch) / detached,
            "probe.observe.profile_overhead_ratio": _figure_slice("profile", scratch) / detached,
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_all() -> Dict[str, float]:
    """Every probe metric."""
    metrics = {"probe.simulation.events_per_s": simulation_events()}
    for policy in ("lru", "fifo", "lfu", "gdsf"):
        metrics[f"probe.edgecache.admit_evict_per_s.{policy}"] = edgecache_admit_evict(policy)
    metrics["probe.directory.add_remove_per_s"] = directory_add_remove()
    for size in (1, 50, 250):
        metrics[f"probe.directory.holders_per_s.{size}"] = directory_holders(size)
    for middleware in ("fast", "faults", "service", "telemetry"):
        metrics[f"probe.fabric.dispatch_per_s.{middleware}"] = fabric_dispatch(middleware)
    metrics.update(observe_overheads())
    return metrics

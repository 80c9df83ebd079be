"""repro — Cache Clouds: cooperative caching of dynamic documents in edge networks.

A full reproduction of Ramaswamy, Liu & Iyengar, *"Cache Clouds: Cooperative
Caching of Dynamic Documents in Edge Networks"*, ICDCS 2005, as a
production-quality Python library:

* the cache-cloud cooperation layer — beacon points, beacon rings with
  dynamic sub-range determination, static/consistent-hashing baselines,
  utility-based document placement (:mod:`repro.core`);
* the substrates it runs on — a discrete-event simulation kernel
  (:mod:`repro.simulation`), edge-cache nodes with pluggable replacement
  policies (:mod:`repro.edgecache`), a network/topology/origin model
  (:mod:`repro.network`), and workload/trace generation
  (:mod:`repro.workload`);
* the evaluation harness reproducing every figure of the paper's §4
  (:mod:`repro.experiments`, driven by ``benchmarks/``).

Quickstart::

    from repro import CacheCloud, CloudConfig, build_corpus

    corpus = build_corpus(1000)
    cloud = CacheCloud(CloudConfig(num_caches=10, num_rings=5), corpus)
    result = cloud.handle_request(cache_id=3, doc_id=42, now=0.0)
    print(result.outcome)  # RequestOutcome.ORIGIN_FETCH on a cold cache

See ``examples/`` for complete scenarios and DESIGN.md for the system map.
"""

from repro.audit.antientropy import AntiEntropyProcess
from repro.audit.invariants import AuditReport, InvariantAuditor, ViolationKind
from repro.baselines.leases import CooperativeLeaseCloud, LeaseConfig
from repro.baselines.ttl import TTLCloud, TTLConfig
from repro.core.cloud import CacheCloud, RequestOutcome, RequestResult
from repro.core.config import (
    AssignmentScheme,
    CloudConfig,
    PlacementScheme,
    UtilityWeights,
)
from repro.core.consistent import ConsistentHashAssigner
from repro.core.edgenetwork import EdgeCacheNetwork
from repro.core.elastic import ElasticConfig, ElasticController, ElasticStats
from repro.core.hashing import DynamicHashAssigner, StaticHashAssigner
from repro.core.overload import (
    ZERO_COST_OVERLOAD,
    NodeQueue,
    OverloadConfig,
    OverloadController,
    OverloadStats,
)
from repro.core.ring import BeaconRing
from repro.core.utility import UtilityComputer
from repro.edgecache.cache import EdgeCache
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.faults.churn import ChurnEvent, ChurnSchedule, ChurnSpec
from repro.faults.injector import FaultInjector
from repro.faults.plan import NO_FAULTS, FaultPlan, RetryPolicy
from repro.network.origin import OriginServer
from repro.network.topology import EuclideanTopology
from repro.network.transport import Transport
from repro.simulation.engine import Simulator
from repro.workload.documents import Corpus, build_corpus
from repro.workload.generator import SyntheticTraceGenerator, WorkloadConfig
from repro.workload.sydney import SydneyConfig, SydneyTraceGenerator
from repro.workload.trace import RequestRecord, Trace, UpdateRecord

__version__ = "1.0.0"

__all__ = [
    "AntiEntropyProcess",
    "AssignmentScheme",
    "AuditReport",
    "InvariantAuditor",
    "ViolationKind",
    "BeaconRing",
    "CacheCloud",
    "ChurnEvent",
    "ChurnSchedule",
    "ChurnSpec",
    "CloudConfig",
    "FaultInjector",
    "FaultPlan",
    "NO_FAULTS",
    "RetryPolicy",
    "ConsistentHashAssigner",
    "CooperativeLeaseCloud",
    "Corpus",
    "DynamicHashAssigner",
    "EdgeCacheNetwork",
    "EdgeCache",
    "ElasticConfig",
    "ElasticController",
    "ElasticStats",
    "EuclideanTopology",
    "ExperimentResult",
    "NodeQueue",
    "OriginServer",
    "OverloadConfig",
    "OverloadController",
    "OverloadStats",
    "ZERO_COST_OVERLOAD",
    "PlacementScheme",
    "RequestOutcome",
    "RequestRecord",
    "RequestResult",
    "Simulator",
    "StaticHashAssigner",
    "LeaseConfig",
    "SydneyConfig",
    "SydneyTraceGenerator",
    "SyntheticTraceGenerator",
    "TTLCloud",
    "TTLConfig",
    "Trace",
    "Transport",
    "UpdateRecord",
    "UtilityComputer",
    "UtilityWeights",
    "WorkloadConfig",
    "build_corpus",
    "run_experiment",
    "__version__",
]

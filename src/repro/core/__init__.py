"""The paper's primary contribution: the cache-cloud cooperation layer.

Modules:

* :mod:`~repro.core.config` — cloud configuration (schemes, weights, sizes).
* :mod:`~repro.core.hashing` — URL hashing, ring/IrH mapping, the static
  hashing baseline, and the assigner interface.
* :mod:`~repro.core.consistent` — consistent-hashing baseline (paper §2.1).
* :mod:`~repro.core.ring` — beacon rings and the dynamic sub-range
  determination algorithm (paper §2.3, Figure 2).
* :mod:`~repro.core.beacon` — per-beacon-point state: lookup directory and
  load counters.
* :mod:`~repro.core.directory` — the lookup directory data structure.
* :mod:`~repro.core.utility` — the four-component utility function (paper §3.1).
* :mod:`~repro.core.placement` — ad hoc / beacon-point / utility placement.
* :mod:`~repro.core.failure` — lazy directory replication and beacon failover.
* :mod:`~repro.core.fabric` — the single message-dispatch seam (accounting,
  fault middleware, the dispatch log of every wire attempt).
* :mod:`~repro.core.node` / :mod:`~repro.core.roles` — the protocol roles:
  requester-side cache node, beacon point, origin facade.
* :mod:`~repro.core.cloud` — the composition root tying it together.
"""

from repro.core.adaptive import FeedbackWeightAdapter
from repro.core.beacon import BeaconState
from repro.core.cloud import CacheCloud, RequestOutcome, RequestResult
from repro.core.fabric import Delivery, DispatchRecord, FabricStats, MessageFabric
from repro.core.node import CacheNode
from repro.core.roles import BeaconRole, OriginRole
from repro.core.config import (
    AssignmentScheme,
    CloudConfig,
    PlacementScheme,
    UtilityWeights,
)
from repro.core.consistent import ConsistentHashAssigner
from repro.core.directory import LookupDirectory
from repro.core.edgenetwork import EdgeCacheNetwork
from repro.core.hashing import (
    DynamicHashAssigner,
    StaticHashAssigner,
    irh_value,
    ring_index,
    url_hash,
)
from repro.core.placement import (
    AdHocPlacement,
    BeaconPlacement,
    ExpirationAgePlacement,
    PlacementContext,
    PlacementPolicy,
    UtilityPlacement,
    make_placement,
)
from repro.core.ring import BeaconRing, RebalanceResult
from repro.core.utility import UtilityComponents, UtilityComputer

__all__ = [
    "AdHocPlacement",
    "AssignmentScheme",
    "BeaconPlacement",
    "BeaconRing",
    "BeaconRole",
    "BeaconState",
    "CacheCloud",
    "CacheNode",
    "CloudConfig",
    "Delivery",
    "DispatchRecord",
    "FabricStats",
    "MessageFabric",
    "OriginRole",
    "RequestOutcome",
    "RequestResult",
    "ConsistentHashAssigner",
    "DynamicHashAssigner",
    "EdgeCacheNetwork",
    "ExpirationAgePlacement",
    "FeedbackWeightAdapter",
    "LookupDirectory",
    "PlacementContext",
    "PlacementPolicy",
    "PlacementScheme",
    "RebalanceResult",
    "StaticHashAssigner",
    "UtilityComponents",
    "UtilityComputer",
    "UtilityPlacement",
    "UtilityWeights",
    "irh_value",
    "make_placement",
    "ring_index",
    "url_hash",
]

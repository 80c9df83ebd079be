"""Extension experiments beyond the paper's figures.

* :func:`consistency_mode_comparison` — push-based cache clouds vs the TTL
  and cooperative-lease baselines of :mod:`repro.baselines`: traffic,
  staleness, origin load (the quantitative version of the paper's §5
  positioning).
* :func:`multi_cloud_update_savings` — server-side update messages as the
  edge network grows: one message per *cloud* (cooperative) vs one per
  *holder* (isolated caches), across cloud counts.
* :func:`adaptive_weights_comparison` — fixed utility weights vs the
  feedback adapter (the paper's stated future work) on a workload whose
  update intensity shifts mid-run.
* :func:`failure_resilience_value` — what the lazy directory replication
  buys: post-failure service quality with and without the buddy replica.
* :func:`client_latency_comparison` — mean client latency per placement
  scheme on a metro topology with a far-away origin.
* :func:`capability_proportionality` — does beacon load track machine
  capability under each assignment scheme?

Row-shaped results are :class:`~repro.experiments.sweeps.SweepTable`; each
experiment's ``*_claims`` function states what it is expected to show.
"""

from __future__ import annotations

import random
from dataclasses import replace
from itertools import chain
from typing import Dict, List, Optional, Tuple

from repro.baselines.leases import CooperativeLeaseCloud, LeaseConfig
from repro.baselines.ttl import TTLCloud, TTLConfig
from repro.core.adaptive import FeedbackWeightAdapter
from repro.core.cloud import CacheCloud
from repro.core.config import AssignmentScheme, PlacementScheme
from repro.core.edgenetwork import EdgeCacheNetwork
from repro.edgecache.stats import CacheStats
from repro.experiments.figures import SMALL_SCALE
from repro.experiments.sweeps import (
    Scale,
    SweepTable,
    drive,
    loadbalance_cloud,
    paper_cloud,
    run_points,
    sydney_workload,
    warmed_spec,
    zipf_workload,
)
from repro.faults.churn import FAIL, ChurnEvent, ChurnSchedule
from repro.network.origin import ORIGIN_NODE_ID, OriginServer
from repro.network.topology import EuclideanTopology
from repro.network.transport import Transport
from repro.workload.documents import Corpus
from repro.workload.trace import Trace, UpdateRecord


# ----------------------------------------------------------------------
# Consistency-mode comparison
# ----------------------------------------------------------------------
def _sydney(scale: Scale) -> Tuple[Corpus, Trace]:
    """The Sydney-like corpus + trace at the scale's observed update rate."""
    return sydney_workload(
        scale, base_update_rate=scale.observed_update_rate
    ).materialize()


#: The TTL baseline's uniform time-to-live, and the leases' duration.
TTL_MINUTES = 15.0
LEASE_MINUTES = 30.0


def consistency_mode_comparison(scale: Scale = SMALL_SCALE) -> SweepTable:
    """Push vs TTL vs cooperative leases on the same Sydney-like trace."""
    corpus, trace = _sydney(scale)
    cloud = CacheCloud(paper_cloud(scale), corpus)
    drive(cloud, trace, cloud.run_cycle, scale.cycle_length)
    ttl = TTLCloud(
        TTLConfig(num_caches=scale.num_caches, ttl_minutes=TTL_MINUTES), corpus
    )
    drive(ttl, trace)
    leases = CooperativeLeaseCloud(
        LeaseConfig(
            num_caches=scale.num_caches, lease_duration_minutes=LEASE_MINUTES
        ),
        corpus,
    )
    drive(leases, trace)
    arms = (
        # Push keeps registered copies fresh by construction.
        ("push (cache cloud)", cloud, 0.0),
        (f"TTL ({TTL_MINUTES:g} min)", ttl, 100.0 * ttl.staleness_rate),
        (f"leases ({LEASE_MINUTES:g} min)", leases, 100.0 * leases.staleness_rate),
    )
    return SweepTable(
        header=(
            "Extension", "consistency modes: push (cache cloud) vs TTL vs leases"
        ),
        columns=(
            "mode",
            "MB/unit",
            "stale hit rate (%)",
            "origin msgs/update",
            "cloud hit rate (%)",
        ),
        rows=[
            (
                mode,
                system.transport.meter.megabytes_per_unit_time(scale.duration_minutes),
                stale_percent,
                # One per update under push, none under TTL (the origin never
                # pushes), one invalidation per update under a live lease.
                system.origin.update_messages_sent / max(1, system.updates_handled),
                100.0 * system.aggregate_stats().cloud_hit_rate,
            )
            for mode, system, stale_percent in arms
        ],
    )


def consistency_claims(table: SweepTable) -> Dict[str, bool]:
    """The paper's §5 positioning, quantified."""
    push, ttl, leases = table.records()
    return {
        "push_never_serves_stale": push["stale hit rate (%)"] == 0.0,
        "ttl_serves_stale": ttl["stale hit rate (%)"] > 1.0,
        "leases_fresher_than_ttl": (
            leases["stale hit rate (%)"] < ttl["stale hit rate (%)"]
        ),
        # Push pays for freshness in bandwidth (bodies travel on updates)...
        "push_pays_in_bandwidth": push["MB/unit"] > ttl["MB/unit"],
        # ...with exactly one origin message per update.
        "one_origin_message_per_update": abs(push["origin msgs/update"] - 1.0) < 0.05,
    }


# ----------------------------------------------------------------------
# Multi-cloud update savings
# ----------------------------------------------------------------------
def multi_cloud_update_savings(
    scale: Scale = SMALL_SCALE,
    cloud_counts: Tuple[int, ...] = (1, 2, 4),
    caches_per_cloud: int = 8,
) -> SweepTable:
    """Server update messages: one-per-cloud vs one-per-holder."""
    result = SweepTable(
        header=("Extension", "multi-cloud edge network: server update messages"),
        columns=(
            "clouds", "coop msgs", "per-holder msgs", "saving (%)", "hit rate (%)"
        ),
        precision=1,
    )
    for num_clouds in cloud_counts:
        num_caches = num_clouds * caches_per_cloud
        rng = random.Random(scale.seed)
        topology = EuclideanTopology.random(
            num_caches,
            rng,
            extent=1000.0,
            num_clusters=num_clouds,
            cluster_spread=5.0,
        )
        landmarks = []
        for i, pos in enumerate([(0, 0), (1000, 0), (0, 1000), (1000, 1000)]):
            node = 100_000 + i
            topology.add_node(node, pos)
            landmarks.append(node)
        # Half the figures' run at half their rate, over every cloud's caches.
        workload = sydney_workload(
            replace(
                scale,
                num_caches=num_caches,
                request_rate_per_cache=scale.request_rate_per_cache / 2,
                duration_minutes=scale.duration_minutes / 2,
            ),
            base_update_rate=scale.observed_update_rate,
            num_epochs=2,
        )
        corpus = workload.build_corpus()
        base_config = paper_cloud(
            scale,
            num_caches=caches_per_cloud,
            num_rings=max(1, caches_per_cloud // 2),
            placement=PlacementScheme.AD_HOC,
        )
        network = EdgeCacheNetwork.from_topology(
            topology,
            list(range(num_caches)),
            landmarks,
            num_clouds,
            base_config,
            corpus,
            rng=rng,
        )
        per_holder = 0
        for record in workload.build_trace().merged():
            if isinstance(record, UpdateRecord):
                # What a non-cooperative origin would pay: one message per
                # cache currently holding the document, network-wide.
                per_holder += network.holders_network_wide(record.doc_id)
                network.handle_update(record.doc_id, record.time)
            else:
                network.handle_request(record.cache_id, record.doc_id, record.time)
        stats = network.stats()
        cooperative = stats.server_update_messages
        result.rows.append(
            (
                num_clouds,
                cooperative,
                per_holder,
                100.0 * (1.0 - cooperative / per_holder) if per_holder else 0.0,
                100.0 * stats.cloud_hit_rate,
            )
        )
    return result


def multi_cloud_claims(table: SweepTable) -> Dict[str, bool]:
    """One update message per cloud beats one per holding cache."""
    cooperative = table.column("coop msgs")
    return {
        "cooperation_saves_most_update_messages": all(
            saving > 40.0 for saving in table.column("saving (%)")
        ),
        "messages_grow_with_clouds": cooperative == sorted(cooperative),
    }


# ----------------------------------------------------------------------
# Adaptive weights
# ----------------------------------------------------------------------
def adaptive_weights_comparison(scale: Scale = SMALL_SCALE) -> SweepTable:
    """Fixed vs adaptive weights on a workload whose update rate jumps.

    The trace's first half is read-mostly (a fifth of the scale's observed
    update rate); at half-time the rate jumps to eight times it (a
    breaking-news regime). Fixed weights keep replicating as before; the
    adapter shifts weight toward CMC and cuts fan-out traffic. One row per
    arm; ``extras`` holds the adapted arm's ``final_weights`` and its number
    of adaptation ``steps``.
    """
    quiet = scale.observed_update_rate * 0.2
    burst = scale.observed_update_rate * 8.0
    corpus = sydney_workload(scale).build_corpus()
    half = scale.duration_minutes / 2.0

    def make_half(rate: float, offset: float, seed: int) -> Trace:
        trace = sydney_workload(
            replace(scale, duration_minutes=half, seed=seed),
            base_update_rate=rate,
            num_epochs=2,
        ).build_trace()
        return Trace(
            requests=((r.time + offset, r.cache_id, r.doc_id) for r in trace.requests),
            updates=((u.time + offset, u.doc_id) for u in trace.updates),
        )

    quiet_half = make_half(quiet, 0.0, scale.seed)
    burst_half = make_half(burst, half, scale.seed + 1)
    trace = Trace(
        requests=chain(quiet_half.requests, burst_half.requests),
        updates=chain(quiet_half.updates, burst_half.updates),
    )

    def run(adaptive: bool):
        cloud = CacheCloud(paper_cloud(scale), corpus)
        adapter = (
            FeedbackWeightAdapter(cloud.strategy.policy, cloud.transport.meter)
            if adaptive
            else None
        )

        def hook(now: float) -> None:
            cloud.run_cycle(now)
            if adapter is not None:
                adapter.adapt(now)

        drive(cloud, trace, hook, scale.cycle_length)
        mb = cloud.transport.meter.megabytes_per_unit_time(scale.duration_minutes)
        return cloud, adapter, mb

    _, _, fixed_mb = run(adaptive=False)
    cloud, adapter, adaptive_mb = run(adaptive=True)
    final_weights = cloud.strategy.policy.computer.weights.as_dict()
    steps = len(adapter.history)
    saving = (fixed_mb - adaptive_mb) / fixed_mb * 100.0 if fixed_mb else 0.0
    return SweepTable(
        header=("Extension", "feedback weight adaptation (paper's future work)"),
        columns=("weights", "MB/unit"),
        rows=[("fixed", fixed_mb), ("adaptive", adaptive_mb)],
        extras={"final_weights": final_weights, "steps": steps},
        footer=[
            f"adaptive weights vs fixed weights: {saving:+.1f}% traffic saved",
            f"adaptation steps: {steps}",
            "final weights   : "
            + ", ".join(f"{k}={v:.2f}" for k, v in sorted(final_weights.items())),
        ],
    )


def adaptive_weights_claims(table: SweepTable) -> Dict[str, bool]:
    """The controller adapts, stays normalized, and never makes things worse."""
    fixed_mb, adaptive_mb = table.column("MB/unit")
    return {
        "controller_adapted": table.extras["steps"] >= 3,
        "adaptive_not_worse_than_fixed": adaptive_mb <= fixed_mb * 1.05,
        "weights_stay_normalized": (
            abs(sum(table.extras["final_weights"].values()) - 1.0) < 1e-9
        ),
    }


# ----------------------------------------------------------------------
# Failure resilience
# ----------------------------------------------------------------------
def failure_resilience_value(scale: Scale = SMALL_SCALE) -> SweepTable:
    """Measure what the buddy replica buys after a beacon-point crash.

    Two identical clouds are warmed on the first half of a trace; the
    busiest beacon point then crashes — scheduled through a scripted
    :class:`~repro.faults.churn.ChurnSchedule`, so the failure flows
    through the failure manager and its failover/redirect metrics instead
    of bypassing them. One cloud has synced its replicas (the paper's lazy
    replication); the other's replicas are discarded before the crash (a
    strawman without the extension). The second half of the trace measures
    post-failure service quality; requests addressed to the dead cache are
    redirected (and counted) by the churn machinery.
    """
    corpus, trace = _sydney(scale)
    half_time = scale.duration_minutes / 2.0
    first = [r for r in trace.requests if r.time < half_time]
    second = [r for r in trace.requests if r.time >= half_time]
    result = SweepTable(
        header=("Extension", "value of lazy directory replication under failure"),
        columns=(
            "variant",
            "cloud hit rate (%)",
            "origin fetches",
            "directory repairs",
            "failovers",
            "redirected requests",
        ),
    )

    for variant in ("with replica", "without replica"):
        cloud = CacheCloud(
            paper_cloud(
                scale, placement=PlacementScheme.AD_HOC, failure_resilience=True
            ),
            corpus,
        )
        for record in first:
            cloud.handle_request(record.cache_id, record.doc_id, record.time)
        cloud.run_cycle(half_time)  # includes the lazy replica sync
        if variant == "without replica":
            cloud.failure_manager.drop_replicas()
        victim = max(
            cloud.beacons, key=lambda c: len(cloud.beacons[c].directory)
        )
        schedule = ChurnSchedule([ChurnEvent(half_time, victim, FAIL)])

        # Measure the post-failure window only.
        for cache in cloud.caches:
            cache.stats = CacheStats()
        fetches_before = cloud.origin.fetches_served
        repairs_before = cloud.directory_repairs
        for record in second:
            schedule.apply_due(cloud, record.time)
            cloud.handle_request(record.cache_id, record.doc_id, record.time)
        stats = cloud.aggregate_stats()
        result.rows.append(
            (
                variant,
                100.0 * stats.cloud_hit_rate,
                cloud.origin.fetches_served - fetches_before,
                cloud.directory_repairs - repairs_before,
                schedule.stats.failures,
                cloud.requests_redirected,
            )
        )
    return result


def failure_resilience_claims(table: SweepTable) -> Dict[str, bool]:
    """The replica preserves lookup state across the crash."""
    kept, lost = table.record("with replica"), table.record("without replica")
    return {
        "replica_saves_origin_fetches": kept["origin fetches"] < lost["origin fetches"],
        "replica_keeps_hit_rate": (
            kept["cloud hit rate (%)"] >= lost["cloud hit rate (%)"] - 0.2
        ),
    }


# ----------------------------------------------------------------------
# Client latency
# ----------------------------------------------------------------------
def client_latency_comparison(scale: Scale = SMALL_SCALE) -> SweepTable:
    """Mean client-perceived latency per placement scheme.

    A metro-clustered topology puts the caches ~5 ms apart and the origin
    ~140 ms away, so the latency ordering exposes where each scheme's
    requests are actually served: in-cloud (cheap) or at the origin
    (expensive). The paper's conclusion claims utility placement minimizes
    client latency; the isolated-caches baseline shows the cost of no
    cooperation at all.
    """
    corpus, trace = _sydney(scale)
    rng = random.Random(scale.seed)
    topology = EuclideanTopology.random(
        10, rng, extent=100.0, num_clusters=1, cluster_spread=50.0
    )
    topology.add_node(ORIGIN_NODE_ID, (2_000.0, 2_000.0))  # a far-away origin

    result = SweepTable(
        header=("Extension", "client latency by placement scheme (far origin)"),
        columns=("scheme", "mean latency (ms)", "local hit (%)", "cloud hit (%)"),
    )
    schemes = [
        ("ad hoc", PlacementScheme.AD_HOC, True),
        ("utility", PlacementScheme.UTILITY, True),
        ("expiration age", PlacementScheme.EXPIRATION_AGE, True),
        ("beacon", PlacementScheme.BEACON, True),
        ("no cooperation", PlacementScheme.AD_HOC, False),
    ]
    for label, placement, cooperation in schemes:
        cloud = CacheCloud(
            paper_cloud(scale, placement=placement, cooperation=cooperation),
            corpus,
            origin=OriginServer(corpus),
            transport=Transport(topology=topology),
        )
        drive(cloud, trace, cloud.run_cycle, scale.cycle_length)
        stats = cloud.aggregate_stats()
        result.rows.append(
            (
                label,
                stats.mean_latency_ms,
                100.0 * stats.local_hit_rate,
                100.0 * stats.cloud_hit_rate,
            )
        )
    return result


def latency_claims(table: SweepTable) -> Dict[str, bool]:
    """Where each scheme's requests are served, read off the latency."""
    latency = dict(zip(table.column("scheme"), table.column("mean latency (ms)")))
    cooperative = ("ad hoc", "utility", "expiration age", "beacon")
    return {
        "cooperation_halves_latency": all(
            latency[scheme] < latency["no cooperation"] / 2 for scheme in cooperative
        ),
        # Replication-friendly schemes serve closer to the client than the
        # single-copy beacon policy.
        "replicating_schemes_beat_beacon": (
            latency["utility"] < latency["beacon"]
            and latency["ad hoc"] < latency["beacon"]
        ),
        # Utility trades a little latency for its traffic savings, but stays
        # in ad hoc's neighbourhood, far from beacon's.
        "utility_stays_near_adhoc": (
            latency["utility"] < (latency["ad hoc"] + latency["beacon"]) / 2
        ),
    }


# ----------------------------------------------------------------------
# Heterogeneous capabilities
# ----------------------------------------------------------------------
def _imbalance(loads: List[float], capabilities: List[float]) -> float:
    """Mean relative deviation of load-per-unit-capability from its mean."""
    per_capability = [load / cap for load, cap in zip(loads, capabilities)]
    mean = sum(per_capability) / len(per_capability)
    if mean == 0:
        return 0.0
    return sum(abs(v - mean) for v in per_capability) / (len(per_capability) * mean)


#: Machine capability per cache of the heterogeneous cloud: half of it
#: runs on 3x machines.
CAPABILITIES = (3.0,) * 5 + (1.0,) * 5


def capability_proportionality(
    scale: Scale = SMALL_SCALE, jobs: Optional[int] = None
) -> SweepTable:
    """Heterogeneous cloud: does load track capability?

    §2.3 weighs each beacon point's fair share by its capability; static
    hashing is capability-blind. Half the cloud runs on 3x machines
    (:data:`CAPABILITIES`). One row per cache; the capability-normalized
    imbalance of each scheme rides along as ``extras["static_imbalance"]`` /
    ``extras["dynamic_imbalance"]``.
    """
    capabilities = list(CAPABILITIES)
    workload = zipf_workload(scale)
    specs = [
        warmed_spec(
            scheme,
            loadbalance_cloud(scale, scheme, capabilities=capabilities),
            workload,
            scale.duration_minutes,
        )
        for scheme in (AssignmentScheme.STATIC, AssignmentScheme.DYNAMIC)
    ]
    runs, _ = run_points(specs, jobs=jobs, strict=True)
    static, dynamic = (
        [runs[scheme].beacon_loads[cache] for cache in range(10)]
        for scheme in (AssignmentScheme.STATIC, AssignmentScheme.DYNAMIC)
    )
    imbalance = {
        "static_imbalance": _imbalance(static, capabilities),
        "dynamic_imbalance": _imbalance(dynamic, capabilities),
    }
    return SweepTable(
        header=("Extension", "capability-proportional load shares"),
        columns=("cache", "capability", "static load", "dynamic load"),
        rows=list(zip(range(10), capabilities, static, dynamic)),
        extras=imbalance,
        precision=1,
        footer=[
            "load/capability imbalance: "
            f"static={imbalance['static_imbalance']:.3f} "
            f"dynamic={imbalance['dynamic_imbalance']:.3f}"
        ],
    )


def capability_claims(table: SweepTable) -> Dict[str, bool]:
    """Dynamic hashing tracks capability; static hashing is blind to it."""
    caps, loads = table.column("capability"), table.column("dynamic load")
    strong = sum(load for cap, load in zip(caps, loads) if cap == max(caps))
    weak = sum(load for cap, load in zip(caps, loads) if cap == min(caps))
    return {
        "dynamic_respects_capability": (
            table.extras["dynamic_imbalance"] < table.extras["static_imbalance"] * 0.8
        ),
        "strong_machines_carry_more": strong > 1.5 * weak,
    }

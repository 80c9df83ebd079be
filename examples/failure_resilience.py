#!/usr/bin/env python3
"""Failure resilience: beacon-point failover via lazy directory replication.

Exercises the extension the paper sketches in §2.3 ("resilience to failures
of individual beacon points by lazily replicating the lookup information"):

1. Warm a cloud and let a replication cycle run.
2. Crash the beacon point owning the most directory entries.
3. Show that its ring buddy absorbs the sub-range and the (one-cycle-stale)
   replica keeps surviving copies cloud-resolvable.
4. Recover the node and show it rejoins its ring.

Usage::

    python examples/failure_resilience.py
"""

from repro import CloudConfig, build_corpus
from repro.core.cloud import CacheCloud, RequestOutcome
from repro.workload.generator import SyntheticTraceGenerator, WorkloadConfig


def serve_all(cloud, docs, requester_for, now):
    """Request every doc once; returns outcome counts."""
    outcomes = {outcome: 0 for outcome in RequestOutcome}
    for doc in docs:
        requester = requester_for(doc)
        result = cloud.handle_request(requester, doc, now)
        outcomes[result.outcome] += 1
    return outcomes


def main() -> None:
    num_caches = 8
    corpus = build_corpus(600, fixed_size=4096)
    config = CloudConfig(
        num_caches=num_caches,
        num_rings=4,
        cycle_length=10.0,
        failure_resilience=True,
        seed=3,
    )
    cloud = CacheCloud(config, corpus)

    # Warm the cloud with a short trace.
    generator = SyntheticTraceGenerator(
        WorkloadConfig(
            num_documents=len(corpus),
            num_caches=num_caches,
            request_rate_per_cache=50.0,
            update_rate=20.0,
            duration_minutes=20.0,
            seed=3,
        )
    )
    for record in generator.requests():
        cloud.handle_request(record.cache_id, record.doc_id, record.time)
    cloud.run_cycle(20.0)  # runs the lazy replica sync too
    print(f"warmed: {cloud.requests_handled} requests, "
          f"cloud hit rate {cloud.aggregate_stats().cloud_hit_rate:.1%}")

    # Crash the busiest beacon point.
    victim = max(cloud.beacons, key=lambda c: len(cloud.beacons[c].directory))
    entries = len(cloud.beacons[victim].directory)
    buddy = cloud.failure_manager.buddy_of(victim)
    print(f"\ncrashing cache {victim} "
          f"({entries} directory entries; ring buddy = cache {buddy})")
    absorber = cloud.fail_cache(victim, now=21.0)
    print(f"cache {absorber} absorbed the sub-range and installed the replica")

    # Every document must still be servable by the survivors.
    survivors = [c for c in range(num_caches) if c != victim]
    outcomes = serve_all(
        cloud,
        range(len(corpus)),
        lambda doc: survivors[doc % len(survivors)],
        now=22.0,
    )
    print("\npost-failure service outcomes over the whole corpus:")
    for outcome, count in outcomes.items():
        print(f"  {outcome.value:<14} {count}")
    print(f"directory repairs performed while serving: {cloud.directory_repairs}")

    # Recover and verify the node rejoins its ring with a sub-range.
    cloud.recover_cache(victim, now=30.0)
    ring = cloud.failure_manager.ring_of(victim)
    ring_index = cloud.assigner.rings.index(ring)
    arc = ring.arc_of(victim)
    print(f"\ncache {victim} recovered; owns IrH arc "
          f"{arc.spans()} in ring {ring_index}")
    result = cloud.handle_request(victim, 0, now=31.0)
    print(f"first request at recovered node: {result.outcome.value}")


if __name__ == "__main__":
    main()

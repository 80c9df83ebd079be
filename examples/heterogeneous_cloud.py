#!/usr/bin/env python3
"""Heterogeneous cache cloud: capability-proportional load shares.

The sub-range determination algorithm weighs each beacon point's fair share
by its *capability* (paper §2.3): "each beacon point is assigned a positive
real value to indicate its capability". This example builds a cloud where
half the machines are 3x as powerful, replays a skewed workload, and shows
that dynamic hashing converges to capability-proportional loads while
static hashing ignores the hardware entirely.

Usage::

    python examples/heterogeneous_cloud.py
"""

from repro import AssignmentScheme, build_corpus, run_experiment
from repro.experiments.figures import SMALL_SCALE
from repro.experiments.sweeps import loadbalance_cloud
from repro.metrics.report import Table
from repro.workload.generator import SyntheticTraceGenerator, WorkloadConfig


def main() -> None:
    num_caches = 10
    duration = 120.0
    # Caches 0-4 are 3x-capability machines, caches 5-9 baseline boxes.
    capabilities = [3.0] * 5 + [1.0] * 5
    corpus = build_corpus(2_000)
    generator = SyntheticTraceGenerator(
        WorkloadConfig(
            num_documents=len(corpus),
            num_caches=num_caches,
            request_rate_per_cache=60.0,
            update_rate=40.0,
            alpha_requests=0.9,
            duration_minutes=duration,
            seed=5,
        )
    )
    trace = generator.build_trace()

    results = {}
    for scheme in (AssignmentScheme.STATIC, AssignmentScheme.DYNAMIC):
        # The load-balance figures' cloud (10 caches, 5 rings, 15-minute cycles).
        config = loadbalance_cloud(SMALL_SCALE, scheme, capabilities=capabilities)
        results[scheme] = run_experiment(
            config, corpus, trace.requests, trace.updates, duration=duration
        )

    total_capability = sum(capabilities)
    table = Table(
        ["cache", "capability", "fair share", "static load", "dynamic load"],
        precision=1,
    )
    static_loads = results[AssignmentScheme.STATIC].beacon_loads
    dynamic_loads = results[AssignmentScheme.DYNAMIC].beacon_loads
    total_load = sum(dynamic_loads.values())
    for cache_id in range(num_caches):
        fair = capabilities[cache_id] / total_capability * total_load
        table.add_row(
            cache_id,
            capabilities[cache_id],
            fair,
            static_loads[cache_id],
            dynamic_loads[cache_id],
        )
    print(table.render())

    def weighted_imbalance(loads):
        """Mean relative deviation of per-capability load from fair share."""
        per_cap_loads = [
            loads[c] / capabilities[c] for c in range(num_caches)
        ]
        mean = sum(per_cap_loads) / len(per_cap_loads)
        return sum(abs(v - mean) for v in per_cap_loads) / (len(per_cap_loads) * mean)

    print(
        f"\nload-per-unit-capability imbalance: "
        f"static={weighted_imbalance(static_loads):.3f} "
        f"dynamic={weighted_imbalance(dynamic_loads):.3f}"
    )
    print("Dynamic hashing shifts sub-ranges until each beacon point's load")
    print("is proportional to its capability; static hashing cannot.")


if __name__ == "__main__":
    main()

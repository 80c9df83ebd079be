#!/usr/bin/env python3
"""Placement-scheme shoot-out: ad hoc vs beacon-point vs utility.

Reproduces the core of the paper's §4.2 on one workload: the same
Sydney-like trace is replayed through three identically configured clouds
that differ only in placement scheme, and the resulting replication level,
hit rates and network traffic are compared side by side.

Usage::

    python examples/placement_comparison.py [update_rate_per_minute]
"""

import sys

from repro import PlacementScheme, build_corpus, run_experiment
from repro.experiments.figures import SMALL_SCALE
from repro.experiments.sweeps import paper_cloud
from repro.metrics.report import Table
from repro.workload.sydney import SydneyConfig, SydneyTraceGenerator


def main() -> None:
    update_rate = float(sys.argv[1]) if len(sys.argv) > 1 else 50.0
    duration = 90.0
    corpus = build_corpus(2_000)

    trace = SydneyTraceGenerator(
        SydneyConfig(
            num_documents=len(corpus),
            num_caches=10,
            peak_request_rate_per_cache=80.0,
            base_update_rate=update_rate,
            duration_minutes=duration,
            diurnal_period_minutes=duration,
            num_epochs=3,
            drift_pool=200,
            seed=7,
        )
    ).build_trace()
    unique_docs = len(trace.request_counts_by_doc())
    print(
        f"Sydney-like trace: {len(trace.requests)} requests over "
        f"{unique_docs} documents, {len(trace.updates)} updates "
        f"({update_rate:g}/min)\n"
    )

    table = Table(
        [
            "placement",
            "docs/cache (%)",
            "local hit (%)",
            "cloud hit (%)",
            "MB/min",
        ],
        precision=1,
    )
    for scheme in (
        PlacementScheme.AD_HOC,
        PlacementScheme.UTILITY,
        PlacementScheme.BEACON,
    ):
        # The paper's cloud, as Figures 7-8 run it; only the placement varies.
        config = paper_cloud(SMALL_SCALE, placement=scheme)
        result = run_experiment(
            config, corpus, trace.requests, trace.updates, duration=duration
        )
        resident = sum(len(c.storage) for c in result.cloud.caches) / 10.0
        table.add_row(
            scheme.value,
            100.0 * resident / unique_docs,
            100.0 * result.stats.local_hit_rate,
            100.0 * result.stats.cloud_hit_rate,
            result.network_mb_per_unit,
        )
    print(table.render())
    print(
        "\nExpected shape (paper §4.2): ad hoc replicates everywhere and "
        "pays for it in update traffic;\nbeacon placement keeps one copy and "
        "pays constant transfer traffic;\nutility placement adapts replication "
        "to the update rate and generates the least traffic."
    )


if __name__ == "__main__":
    main()

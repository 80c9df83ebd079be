#!/usr/bin/env python3
"""Flash crowd: watch dynamic hashing rebalance beacon load live.

The Sydney-like generator injects flash crowds — sudden multiplicative
bursts of requests for a single page — and rotates the hot set across
epochs. This example replays such a trace through a static-hashing cloud
and a dynamic-hashing cloud *simultaneously*, sampling the per-beacon load
imbalance every cycle, so you can watch the sub-range determination react
to each burst while static hashing stays pinned.

Usage::

    python examples/flash_crowd.py
"""

from repro import AssignmentScheme, CacheCloud, Simulator, build_corpus
from repro.experiments.figures import SMALL_SCALE
from repro.experiments.runner import TraceFeeder
from repro.experiments.sweeps import loadbalance_cloud
from repro.metrics.loadbalance import coefficient_of_variation
from repro.metrics.report import Table
from repro.simulation.events import EventPriority
from repro.workload.sydney import SydneyConfig, SydneyTraceGenerator


def main() -> None:
    duration = 120.0
    sample_every = 10.0
    corpus = build_corpus(1_500)
    trace = SydneyTraceGenerator(
        SydneyConfig(
            num_documents=len(corpus),
            num_caches=10,
            peak_request_rate_per_cache=80.0,
            base_update_rate=30.0,
            duration_minutes=duration,
            diurnal_period_minutes=duration,
            num_epochs=4,
            drift_pool=150,
            num_flash_crowds=3,
            flash_multiplier=12.0,
            seed=11,
        )
    ).build_trace()

    def build(assignment):
        # The load-balance figures' cloud, re-balancing at every sample.
        config = loadbalance_cloud(SMALL_SCALE, assignment, cycle_length=sample_every)
        return CacheCloud(config, corpus)

    clouds = {
        "static": build(AssignmentScheme.STATIC),
        "dynamic": build(AssignmentScheme.DYNAMIC),
    }

    # One simulator per cloud (a simulator draws from one trace stream);
    # both replay the same trace and sample at the same instants.
    series = {}
    for name, cloud in clouds.items():
        sim = Simulator()
        window_start = {}
        column = series[name] = []

        def sample(cloud=cloud, sim=sim, column=column, window_start=window_start):
            loads = cloud.beacon_loads()
            deltas = [loads[c] - window_start.get(c, 0.0) for c in loads]
            window_start.clear()
            window_start.update(loads)
            column.append(
                (sim.now, coefficient_of_variation(deltas) if any(deltas) else 0.0)
            )

        cloud.attach_cycles(sim)
        TraceFeeder(sim, cloud, trace.merged()).start()
        t = sample_every
        while t <= duration:
            sim.schedule_at(t, sample, priority=EventPriority.METRICS)
            t += sample_every
        sim.run_until(duration)
    samples = [
        [time, cov_static, cov_dynamic]
        for (time, cov_static), (_, cov_dynamic) in zip(
            series["static"], series["dynamic"]
        )
    ]

    print("Per-window beacon-load imbalance (coefficient of variation):\n")
    table = Table(["t (min)", "static CoV", "dynamic CoV"], precision=3)
    for row in samples:
        table.add_row(*row)
    print(table.render())
    tail = samples[len(samples) // 2 :]
    mean_static = sum(r[1] for r in tail) / len(tail)
    mean_dynamic = sum(r[2] for r in tail) / len(tail)
    print(
        f"\nsteady-state mean CoV: static={mean_static:.3f} "
        f"dynamic={mean_dynamic:.3f}"
    )
    print("Dynamic hashing re-draws sub-ranges each cycle, so bursts show up")
    print("as one-cycle spikes that decay; static hashing cannot adapt.")


if __name__ == "__main__":
    main()

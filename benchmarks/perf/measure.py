"""One workload, one process: the untraced pass and the traced pass.

:func:`end_to_end` is what ``--trace 0`` runs — tracing off, every
end-to-end metric of the contract, the host-timed ones as the median over
:data:`SLICES` independent (set-up, timed segment) slices.
:func:`per_layer` is ``--trace 1`` — an untraced reference run to the
pinned checkpoint, then the same run with
:class:`~benchmarks.perf.trace.Tracer` installed, then the layer probes.
Both return a :class:`Result` whose ``line`` is the JSON object the driver
reads and whose ``detail`` carries what the report and the smoke test need.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from . import probes
from .spec import OUT_DIR, load_spec
from .state import (
    audit_summary,
    conservation_errors,
    fingerprint,
    life_delta,
    same,
    sim_metrics,
    state_of,
)
from .trace import MAX_SPANS, Tracer
from .workloads import WORKLOADS, Outcome, Segment, pinned_requests

#: An untraced run is cut into this many slices, each with its own set-up
#: and its own timed segment of ``seconds / SLICES``. Every metric timed by
#: the host is the median of the slices' values, so one slice that falls
#: into a slow spell of the host does not set the run's value.
SLICES = 3


@dataclass
class Result:
    """Outcome of one pass over one workload."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    units: Dict[str, str]
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def line(self) -> str:
        """The contract's last line of standard output."""
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": self.units[name]}
                    for name, value in self.metrics.items()
                },
            }
        )


def _checks(outcome: Outcome, fault_free: bool) -> Tuple[List[str], Dict[str, int], int]:
    """Conservation + audit on a finished run: (errors, audit, failed ops)."""
    segment = outcome.segment
    end = state_of(outcome.cloud, outcome.simulator)
    errors = conservation_errors(
        segment.start_state, end, outcome.window_base, segment.fed
    )
    grown = life_delta(segment.start_state, end)
    handled = grown["requests_handled"] + grown["updates_handled"]
    audit = audit_summary(outcome.cloud)
    if fault_free and audit["violations"]:
        errors.append(f"invariant audit found {audit['violations']} violations")
    return errors, audit, abs(segment.fed - handled)


def _rate(blocks: List[Tuple[float, float, int]], clock: int = 0) -> float:
    """Operations of ``blocks`` over their summed wall (0) or CPU (1) seconds."""
    return sum(block[2] for block in blocks) / sum(block[clock] for block in blocks)


def end_to_end(name: str, seed: int, seconds: float, scale: str = "full") -> Result:
    """Tracing off: ``SLICES`` times (set up, time ``seconds / SLICES``), check."""
    spec = load_spec()
    workload = WORKLOADS[name]
    pinned = pinned_requests(workload, seconds, scale)
    setup_times: List[float] = []
    wall_rates: List[float] = []
    cpu_rates: List[float] = []
    prints: List[str] = []
    errors: List[str] = []
    attempted = failed = 0
    for _ in range(SLICES):
        segment = Segment(seconds / SLICES, pinned, workload.block)
        outcome = workload.run(seed, segment, scale)
        slice_errors, audit, slice_failed = _checks(outcome, workload.fault_free)
        errors.extend(slice_errors)
        failed += slice_failed
        setup_times.append(outcome.setup_s)
        # The whole timed segment: every operation over every second of it,
        # stalls (cycles, collector pauses, eviction bursts) included.
        wall_rates.append(_rate(segment.blocks))
        cpu_rates.append(_rate(segment.blocks, clock=1))
        attempted += sum(ops for _, _, ops in segment.blocks)
        prints.append(fingerprint(segment.start_state, segment.pinned_state))
        sim = sim_metrics(segment.pinned_state)
        # Drop the finished cloud (a web of reference cycles) before the
        # next slice builds its own, so peak memory is one cloud's.
        del outcome, segment
        gc.collect()
    drift = same(prints)
    if drift is not None:
        errors.append(f"same-seed slices disagree on the fingerprint: {drift}")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": statistics.median(wall_rates),
        "ops_per_cpu_s": statistics.median(cpu_rates),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update({key: sim[key] for key in sim if key in spec.units(False)})
    detail = {
        "sim_fingerprint": prints[0],
        "errors": errors,
        "audit": audit,
        "pinned_requests": pinned,
        "slice_setup_s": setup_times,
        "slice_ops_per_s": wall_rates,
        "slice_ops_per_cpu_s": cpu_rates,
        "sim_beacon_load_cov": sim["sim_beacon_load_cov"],
    }
    return Result(
        correct=not errors,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        units=spec.units(False),
        detail=detail,
    )


class _GcWatch:
    """Collector activity between a segment's start and its pinned checkpoint.

    Counts full collections and sums collector pauses via ``gc.callbacks``.
    """

    def __init__(self, segment: Segment) -> None:
        self.segment = segment
        self.gen2 = 0
        self.pause_s = 0.0
        self._t0 = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if not self.segment.started or self.segment.pinned_blocks:
            return
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._t0
            if info["generation"] == 2:
                self.gen2 += 1

    def __enter__(self) -> "_GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def per_layer(name: str, seed: int, seconds: float, scale: str = "full") -> Result:
    """Tracing on: reference run, traced run, probes; both stop at the pin."""
    spec = load_spec()
    workload = WORKLOADS[name]
    pinned = pinned_requests(workload, seconds, scale)

    ref_segment = Segment(0.0, pinned, workload.block)
    with _GcWatch(ref_segment) as gc_watch:
        reference = workload.run(seed, ref_segment, scale)
    ref_print = fingerprint(
        reference.segment.start_state, reference.segment.pinned_state
    )
    ref_blocks = reference.segment.blocks
    ref_pinned_s = reference.segment.pinned_s
    del reference
    gc.collect()

    tracer = Tracer()
    tracer.install()
    try:
        segment = Segment(0.0, pinned, workload.block, tracer=tracer)
        outcome = workload.run(seed, segment, scale, traced=True)
    finally:
        tracer.uninstall()

    errors, audit, failed = _checks(outcome, workload.fault_free)
    traced_print = fingerprint(segment.start_state, segment.pinned_state)
    if traced_print != ref_print:
        errors.append(
            f"traced fingerprint {traced_print} != untraced {ref_print}"
        )
    metrics = layer_metrics(tracer, outcome, audit)
    quarter = max(1, len(ref_blocks) // 4)
    metrics.update(
        {
            "host.trace_overhead_ratio": segment.pinned_s / ref_pinned_s,
            "host.gc_gen2_collections": gc_watch.gen2,
            "host.gc_pause_s": gc_watch.pause_s,
            "host.first_quarter_ops_per_s": _rate(ref_blocks[:quarter]),
            "host.last_quarter_ops_per_s": _rate(ref_blocks[-quarter:]),
        }
    )
    metrics.update(probes.run_all())

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{name}.json"
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, **tracer.dump()}, fh)

    units = spec.units(True)
    missing = sorted(set(units) ^ set(metrics))
    if missing:
        errors.append(f"per-layer metrics out of step with BENCHMARK.json: {missing}")
    detail = {
        "sim_fingerprint": traced_print,
        "errors": errors,
        "audit": audit,
        "pinned_requests": pinned,
        "spans_written": min(len(tracer.spans), MAX_SPANS),
        "request_samples": len(tracer.durations["CacheCloud.handle_request"]),
        "update_samples": len(tracer.durations["CacheCloud.handle_update"]),
        "layer_share": tracer.shares(),
    }
    return Result(
        correct=not errors,
        attempted=sum(ops for _, _, ops in segment.blocks),
        failed=failed,
        metrics={key: float(metrics[key]) for key in units if key in metrics},
        units=units,
        detail=detail,
    )


def layer_metrics(tracer: Tracer, outcome: Outcome, audit: Dict[str, int]) -> Dict[str, float]:
    """The per-layer metrics of the traced segment (see README for arrows)."""
    segment = outcome.segment
    cloud = outcome.cloud
    pinned = segment.pinned_state
    window = pinned["window"]
    grown = life_delta(segment.start_state, pinned)
    ops = grown["requests_handled"] + grown["updates_handled"]
    profile = cloud.profile
    units = profile.units if profile is not None else {}
    counts = profile.counts if profile is not None else {}
    build_s = tracer.layer_self_s("workload", setup=True)
    self_s = tracer.layer_self_s
    calls = tracer.calls_of
    # Work-profile counters cover the cloud's life; the segment's share is
    # the growth since the start snapshot, kept by the segment itself.
    walked, walks = _profile_growth(segment, "holder_verify", units, counts)
    legs, pushes = _profile_growth(segment, "fanout_leg", units, counts)
    placed, _ = _profile_growth(segment, "placement", units, counts)
    decisions = window["stores"] + window["placement_rejects"]
    propagate_calls = calls("BeaconRole.propagate_update")
    return {
        "workload.records": outcome.trace_records,
        "workload.build_s": build_s,
        "workload.records_per_s": outcome.trace_records / build_s if build_s else 0.0,
        "simulation.events": grown["events"],
        "simulation.self_s": self_s("simulation"),
        "simulation.events_per_op": grown["events"] / ops,
        "runner.self_s": self_s("experiments.runner"),
        "runner.records_fed": calls("TraceFeeder._process"),
        "cloud.handle_request_calls": calls("CacheCloud.handle_request"),
        "cloud.handle_update_calls": calls("CacheCloud.handle_update"),
        "cloud.self_s": self_s("core.cloud"),
        "cloud.local_hit_share": window["local_hits"] / window["requests"],
        "cloud.request_p50_us": tracer.percentile_us("CacheCloud.handle_request", 0.50),
        "cloud.request_p99_us": tracer.percentile_us("CacheCloud.handle_request", 0.99),
        "cloud.update_p50_us": tracer.percentile_us("CacheCloud.handle_update", 0.50),
        "cloud.update_p99_us": tracer.percentile_us("CacheCloud.handle_update", 0.99),
        "node.serve_miss_calls": calls("CacheNode.serve_miss"),
        "node.self_s": self_s("core.node"),
        "node.placement_context_self_s": tracer.self_of("CacheNode.placement_context"),
        "node.placement_units": placed,
        "node.store_ratio": window["stores"] / decisions if decisions else 0.0,
        "roles.answer_lookup_calls": calls("BeaconRole.answer_lookup"),
        "roles.answer_lookup_self_s": tracer.self_of("BeaconRole.answer_lookup"),
        "roles.holder_verify_units": walked,
        "roles.walk_mean": walked / walks if walks else 0.0,
        "roles.directory_repairs": grown["directory_repairs"],
        "roles.propagate_update_calls": propagate_calls,
        "roles.propagate_update_self_s": tracer.self_of("BeaconRole.propagate_update"),
        "roles.fanout_leg_units": legs,
        "roles.fanout_mean": pushes / propagate_calls if propagate_calls else 0.0,
        "directory.calls": tracer.layer_calls("core.directory"),
        "directory.self_s": self_s("core.directory"),
        "directory.entries_end": sum(len(b.directory) for b in cloud.beacons.values()),
        "directory.entries_migrated": window["entries_migrated"],
        "fabric.dispatches": grown["dispatches"],
        "fabric.dispatches_per_op": grown["dispatches"] / ops,
        "fabric.self_s": self_s("core.fabric"),
        "fabric.retries": grown["retries"],
        "fabric.timeouts": grown["timeouts"],
        "fabric.forced_deliveries": grown["forced_deliveries"],
        "transport.bytes_total": sum(window["bytes_by_category"].values()),
        "transport.self_s": self_s("network.transport"),
        "edgecache.admits": calls("CacheStorage.admit"),
        "edgecache.evictions": grown["evictions"],
        "edgecache.apply_update_calls": calls("EdgeCache.apply_update"),
        # One estimate per live holder plus one for the requester: exactly
        # the placement units (the estimate itself is too small to wrap).
        "edgecache.expected_residence_calls": placed,
        "edgecache.self_s": self_s("edgecache"),
        "strategies.self_s": self_s("strategies"),
        "strategies.on_retrieval_calls": sum(
            c for c, n in zip(tracer.calls, tracer.names) if n.endswith(".on_retrieval")
        ),
        "ring.cycles": grown["cycles_run"],
        "ring.self_s": self_s("core.ring"),
        "ring.rebalances_changed": tracer.rebalances_changed,
        "faults.messages_dropped": grown["messages_dropped"],
        "faults.self_s": self_s("faults"),
        "overload.requests_rejected": window["requests_rejected"],
        "overload.lookups_shed": window["lookups_shed"],
        "overload.messages_rejected": window["messages_rejected"],
        "overload.self_s": self_s("core.overload"),
        "observe.self_s": self_s("observe"),
        "observe.profile_self_s": self_s("observe.profile"),
        "observe.flight_windows": outcome.flight_windows,
        "audit.violations": audit["violations"],
        "audit.hard": audit["hard"],
        "sim.beacon_load_cov": sim_metrics(pinned)["sim_beacon_load_cov"],
        "host.traced_s": tracer.traced_s,
        "host.unattributed_share": tracer.shares()["unattributed"],
    }


def _profile_growth(segment: Segment, phase: str, units, counts) -> Tuple[int, int]:
    """(units, runs) a work-profile phase grew by over the pinned segment."""
    if not units:
        return 0, 0
    base_counts, base_units = segment.profile_base
    return units[phase] - base_units[phase], counts[phase] - base_counts[phase]

"""Simulated-state snapshots, the fingerprint, and the output checks.

A speed-up of the simulator must leave every simulated statistic where it
was. :func:`state_of` reads those statistics from a cloud at one instant;
the benchmark takes it at the *pinned checkpoint* — a fixed number of
requests into the timed segment — so the numbers depend on the seed alone,
never on how far the host got before the clock ran out.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional

from repro.audit.invariants import InvariantAuditor
from repro.metrics.loadbalance import load_balance_stats

State = Dict[str, Dict[str, Any]]


def state_of(cloud, simulator=None) -> State:
    """Simulated statistics of ``cloud`` right now.

    ``window`` holds counters the experiment runner zeroes at the end of
    its warm-up (the direct-drive workloads never zero them, so there they
    cover the cloud's whole life); ``life`` holds counters nothing resets.
    """
    stats = cloud.aggregate_stats()
    overload = cloud.overload
    faults = cloud.faults
    fabric = cloud.fabric.stats
    window = {
        "requests": stats.requests,
        "local_hits": stats.local_hits,
        "cloud_hits": stats.cloud_hits,
        "origin_fetches": stats.origin_fetches,
        "stores": stats.stores,
        "placement_rejects": stats.placement_rejects,
        "updates_applied": stats.updates_applied,
        "requests_rejected": overload.stats.requests_rejected if overload else 0,
        "lookups_shed": overload.stats.lookups_shed if overload else 0,
        "messages_rejected": overload.stats.messages_rejected if overload else 0,
        "entries_migrated": sum(
            b.directory_entries_migrated for b in cloud.beacons.values()
        ),
        "bytes_by_category": cloud.transport.meter.breakdown(),
        "beacon_loads": [cloud.beacons[i].total_load for i in sorted(cloud.beacons)],
    }
    life = {
        "requests_handled": cloud.requests_handled,
        "updates_handled": cloud.updates_handled,
        "dispatches": fabric.dispatches,
        "retries": fabric.retries,
        "timeouts": fabric.timeouts,
        "forced_deliveries": fabric.forced_deliveries,
        "directory_repairs": cloud.directory_repairs,
        "evictions": sum(cache.storage.evictions for cache in cloud.caches),
        "cycles_run": cloud.cycles_run,
        "messages_dropped": faults.stats.dropped if faults else 0,
        "events": simulator.dispatched_events if simulator else 0,
        "sim_now": simulator.now if simulator else 0.0,
    }
    return {"window": window, "life": life}


def life_delta(start: State, end: State) -> Dict[str, int]:
    """Growth of the never-reset counters between two snapshots."""
    return {key: end["life"][key] - start["life"][key] for key in end["life"]}


def fingerprint(start: Optional[State], pinned: State) -> str:
    """sha256 prefix over everything the simulation decided up to ``pinned``.

    With a ``start`` snapshot the never-reset counters enter as growth since
    then; with ``None`` they enter as they stand.
    """
    life = pinned["life"] if start is None else life_delta(start, pinned)
    payload = {"window": pinned["window"], "life": life}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def sim_metrics(pinned: State) -> Dict[str, float]:
    """The simulated end-to-end statistics at the pinned checkpoint."""
    window = pinned["window"]
    served = window["requests"]
    balance = load_balance_stats(window["beacon_loads"])
    total_bytes = sum(window["bytes_by_category"].values())
    return {
        "sim_origin_share": window["origin_fetches"] / served,
        "sim_bytes_per_request": total_bytes / served,
        "sim_beacon_peak_to_mean": balance.peak_to_mean,
        "sim_served_share": served / (served + window["requests_rejected"]),
        "sim_beacon_load_cov": balance.cov,
    }


def conservation_errors(
    start: State, end: State, window_base: int, ops_fed: int
) -> List[str]:
    """Counter identities that must hold over ``start`` .. ``end``.

    ``window_base`` is ``requests_handled`` at the instant the window
    counters were last zeroed (0 when they never were); ``ops_fed`` is how
    many requests and updates the benchmark itself handed to the cloud in
    the interval.
    """
    errors: List[str] = []
    window = end["window"]
    in_window = end["life"]["requests_handled"] - window_base
    outcomes = (
        window["local_hits"]
        + window["cloud_hits"]
        + window["origin_fetches"]
        + window["requests_rejected"]
    )
    if outcomes != in_window:
        errors.append(
            f"outcome mix sums to {outcomes}, but {in_window} requests "
            "reached the cloud since its counters were zeroed"
        )
    if window["requests"] + window["requests_rejected"] != in_window:
        errors.append(
            f"served {window['requests']} + rejected "
            f"{window['requests_rejected']} != {in_window} requests handled"
        )
    grown = life_delta(start, end)
    handled = grown["requests_handled"] + grown["updates_handled"]
    if handled != ops_fed:
        errors.append(f"fed {ops_fed} operations, cloud handled {handled}")
    return errors


def audit_summary(cloud) -> Dict[str, int]:
    """Invariant-auditor verdict on the cloud's final state."""
    report = InvariantAuditor().audit(cloud)
    return {
        "violations": len(report.violations),
        "hard": report.hard_violations,
        "copies_checked": report.resident_copies_checked,
    }


def same(values: List[Any]) -> Optional[str]:
    """``None`` when every value equals the first, else a description."""
    for index, value in enumerate(values[1:], start=1):
        if value != values[0]:
            return f"run 0 gave {values[0]!r}, run {index} gave {value!r}"
    return None

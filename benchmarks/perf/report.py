"""``run``: every workload in fresh child processes, one report.

Repetitions run one after another (the host has two cores; a second
benchmark process beside the first would be measured noise), each in its
own interpreter so peak memory and allocator state start clean. The report
is printed in the CONFIGURATION -> RESULTS block layout of the icarus
simulator's result files and written as JSON for ``compare``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from .spec import COMPARE_BOUNDS, OUT_DIR, ROOT, SEED_EXACT_PREFIX, Spec, load_spec
from .state import same
from .workloads import WORKLOADS

RUN_SCRIPT = Path(__file__).resolve().parent / "run.py"


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def envelope(args) -> Dict[str, Any]:
    """Where and how this report was produced."""
    load = os.getloadavg()
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(load),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "seed": args.seed,
        "scale": args.scale,
        "reps": args.reps,
        "seconds": args.seconds,
    }


def _child(workload: str, args, trace: int) -> Dict[str, Any]:
    """Run one workload in a child interpreter; parse its last two lines."""
    command = [
        sys.executable, str(RUN_SCRIPT),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--scale", args.scale,
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("detail: "):
        raise RuntimeError(
            f"{workload}: child exited {done.returncode} without a result\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len("detail: "):])
    result["exit_code"] = done.returncode
    return result


def _summarize(spec: Spec, reps: List[Dict[str, Any]]) -> Dict[str, Any]:
    results = {}
    for metric in spec.end_to_end:
        values = [rep["metrics"][metric.name]["value"] for rep in reps]
        results[metric.name] = {
            "unit": metric.unit,
            "better": metric.better,
            "bound": COMPARE_BOUNDS[metric.name],
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "values": values,
        }
    return results


def run_all(args) -> int:
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec.run_seconds)
    names = list(spec.workloads)
    env = envelope(args)
    if env["loadavg_at_start"][0] > 1.0:
        print(
            f"WARNING: 1-min load average is {env['loadavg_at_start'][0]:.2f}; "
            "host-time metrics will be noisy",
            file=sys.stderr,
        )
    report: Dict[str, Any] = {"envelope": env, "workloads": {}}
    failures: List[str] = []
    for index, name in enumerate(names, start=1):
        reps = [_child(name, args, trace=0) for _ in range(args.reps)]
        entry: Dict[str, Any] = {
            "why": spec.workloads[name],
            "configuration": WORKLOADS[name].configuration(args.scale),
            "results": _summarize(spec, reps),
            "sim_fingerprint": reps[0]["detail"]["sim_fingerprint"],
            "attempted": [rep["attempted"] for rep in reps],
            "failed": [rep["failed"] for rep in reps],
            "audit": reps[0]["detail"]["audit"],
            "errors": [e for rep in reps for e in rep["detail"]["errors"]],
        }
        drift = same([rep["detail"]["sim_fingerprint"] for rep in reps])
        if drift is not None:
            entry["errors"].append(f"sim_fingerprint differs between reps: {drift}")
        for metric_name, summary in entry["results"].items():
            if metric_name.startswith(SEED_EXACT_PREFIX) and summary["min"] != summary["max"]:
                entry["errors"].append(f"{metric_name} differs between same-seed reps")
        traced = _child(name, args, trace=1)
        entry["per_layer"] = traced["metrics"]
        entry["layer_share"] = traced["detail"]["layer_share"]
        entry["traced_samples"] = {
            key: traced["detail"][key]
            for key in ("request_samples", "update_samples", "spans_written")
        }
        entry["errors"].extend(traced["detail"]["errors"])
        if traced["detail"]["sim_fingerprint"] != entry["sim_fingerprint"]:
            entry["errors"].append("traced and untraced passes disagree on the fingerprint")
        report["workloads"][name] = entry
        failures.extend(f"{name}: {error}" for error in entry["errors"])
        print(render(index, len(names), name, entry, env))
    path = Path(args.out) if args.out else OUT_DIR / "report.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"report written to {path}")
    for failure in failures:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


def _pairs(mapping: Dict[str, Any]) -> str:
    return ", ".join(f"{key}: {value}" for key, value in mapping.items())


def render(index: int, total: int, name: str, entry: Dict[str, Any], env: Dict[str, Any]) -> str:
    """One workload as an icarus-style CONFIGURATION -> RESULTS block."""
    run = {key: env[key] for key in ("seed", "seconds", "scale", "reps")}
    host = {key: env[key] for key in ("git_commit", "python", "nproc", "loadavg_at_start")}
    lines = [
        f"EXPERIMENT {index}/{total}: {name}",
        "  CONFIGURATION:",
        f"   * workload -> name: {name}, {_pairs(entry['configuration'])}",
        f"   * run -> {_pairs(run)}",
        f"   * host -> {_pairs(host)}",
        f"   * why -> {entry['why']}",
        "  RESULTS:",
    ]
    for metric, summary in entry["results"].items():
        lines += [
            f"    {metric.upper()}",
            f"     * MEDIAN: {summary['median']:.6g} {summary['unit']} "
            f"(min {summary['min']:.6g}, max {summary['max']:.6g}, "
            f"n={len(summary['values'])}; {summary['better']} is better, "
            f"compare lets it worsen by {summary['bound']:.1%})",
            f"     * VALUES: {summary['values']}",
        ]
    lines += [
        "    OPERATIONS",
        f"     * ATTEMPTED: {entry['attempted']}",
        f"     * FAILED: {entry['failed']}",
        "    SIM_FINGERPRINT",
        f"     * VALUE: {entry['sim_fingerprint']}",
        "    CHECKS",
        f"     * AUDIT: {_pairs(entry['audit'])}",
        f"     * ERRORS: {entry['errors'] or 'none'}",
    ]
    lines.append("    LAYER_SHARE (self time / traced segment)")
    for layer, share in sorted(entry["layer_share"].items(), key=lambda kv: -kv[1]):
        if share:
            lines.append(f"     * {layer}: {share:.1%}")
    lines.append(f"    PER_LAYER (traced pass; samples: {_pairs(entry['traced_samples'])})")
    for metric, value in entry["per_layer"].items():
        lines.append(f"     * {metric}: {value['value']:.6g} {value['unit']}")
    return "\n".join(lines) + "\n"

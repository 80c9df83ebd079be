"""``compare A.json B.json``: the same-seed bounds, metric by workload.

A is the baseline (parent), B the candidate (change). For every end-to-end
metric of every workload both reports carry:

* ``OK`` — B's median is not worse than A's by more than the bound;
* ``REGRESSED`` — it is;
* ``UNRESOLVED`` — a side's own repetitions spread wider than the bound and
  the two sides' ranges overlap, so the runs cannot tell. (Spread = max -
  min of a side's repetitions over its median.) If every run of B reads
  better than every run of A the row is ``OK`` however noisy.

The bound is the one report A recorded (``spec.COMPARE_BOUNDS``), a share
of A's median; where that median is 0 the bound is an absolute difference.
Exit code 1 when any row is ``REGRESSED`` or missing from B. Simulated statistics and the
fingerprint are seed-exact; when both reports used one seed, any difference
is listed as ``DRIFT`` beside the verdict.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from .spec import SEED_EXACT_PREFIX


def _scale(summary: Dict[str, Any]) -> float:
    """What differences are a share of: the median, or 1 where that is 0."""
    return abs(summary["median"]) or 1.0


def _spread(summary: Dict[str, Any]) -> float:
    return (summary["max"] - summary["min"]) / _scale(summary)


def verdict(a: Dict[str, Any], b: Dict[str, Any], bound: float, better: str) -> str:
    """Classify one metric of one workload."""
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b["median"] - a["median"]) / _scale(a)
    if better == "lower":
        b_all_better, b_all_worse = b["max"] < a["min"], b["min"] > a["max"]
    else:
        b_all_better, b_all_worse = b["min"] > a["max"], b["max"] < a["min"]
    noisy = max(_spread(a), _spread(b)) > bound
    if not noisy:
        return "REGRESSED" if worsening > bound else "OK"
    if b_all_better:
        return "OK"
    if b_all_worse and worsening > bound:
        return "REGRESSED"
    return "UNRESOLVED"


def compare_reports(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    same_seed = a["envelope"]["seed"] == b["envelope"]["seed"]
    rows: List[str] = []
    counts = {"OK": 0, "REGRESSED": 0, "UNRESOLVED": 0, "MISSING": 0}
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            counts["MISSING"] += 1
            rows.append(f"{name:15s} {'(every metric)':24s} MISSING    from {path_b}")
            continue
        for metric, summary_a in entry_a["results"].items():
            summary_b = entry_b["results"].get(metric)
            if summary_b is None:
                counts["MISSING"] += 1
                rows.append(f"{name:15s} {metric:24s} MISSING    from {path_b}")
                continue
            result = verdict(summary_a, summary_b, summary_a["bound"], summary_a["better"])
            counts[result] += 1
            note = ""
            if same_seed and metric.startswith(SEED_EXACT_PREFIX) and summary_a["values"] != summary_b["values"]:
                note = "  DRIFT (seed-exact metric moved)"
            change = (summary_b["median"] - summary_a["median"]) / _scale(summary_a)
            rows.append(
                f"{name:15s} {metric:24s} {result:10s} "
                f"{summary_a['median']:.6g} -> {summary_b['median']:.6g} {summary_a['unit']} "
                f"({change:+.2%}; bound {summary_a['bound']:.1%}, "
                f"{summary_a['better']} is better){note}"
            )
        if same_seed and entry_a["sim_fingerprint"] != entry_b["sim_fingerprint"]:
            rows.append(
                f"{name:15s} sim_fingerprint          DRIFT      "
                f"{entry_a['sim_fingerprint']} -> {entry_b['sim_fingerprint']}"
            )
    print("\n".join(rows))
    print(", ".join(f"{count} {label}" for label, count in counts.items()))
    return 1 if counts["REGRESSED"] or counts["MISSING"] else 0

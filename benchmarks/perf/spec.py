"""The benchmark contract, read from ``BENCHMARK.json`` at the repo root.

Metric names, units, directions and bounds live in that one file; every
module here (measurement, report, ``compare``, the smoke test) reads them
through :func:`load_spec` so a name can never drift between the contract
and the code that prints it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

#: The checkout root (``benchmarks/perf/spec.py`` -> two levels up).
ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
#: End-to-end metrics with this prefix are simulated statistics: a function
#: of the seed alone, bit-equal between same-seed runs.
SEED_EXACT_PREFIX = "sim_"
#: What ``compare`` lets each end-to-end metric worsen by between two
#: reports of one seed (share of the baseline's median). ``BENCHMARK.json``
#: carries a second, wider set: the benchmark driver measures every run on
#: another seed, so its bounds have to hold the seed-to-seed spread too.
COMPARE_BOUNDS = {
    "setup_s": 0.25,
    "ops_per_s": 0.10,
    "ops_per_cpu_s": 0.07,
    "peak_rss_mib": 0.10,
    "sim_origin_share": 0.02,
    "sim_bytes_per_request": 0.02,
    "sim_beacon_peak_to_mean": 0.02,
    "sim_served_share": 0.002,
}
#: Everything the benchmark writes lands here (git-ignored).
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Metric:
    """One named metric of the contract."""

    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float = 0.0  # end-to-end only: the driver's cross-seed bound


@dataclass(frozen=True)
class Spec:
    """Parsed ``BENCHMARK.json``."""

    run_seconds: int
    workloads: Dict[str, str]  # name -> why
    end_to_end: Tuple[Metric, ...]
    per_layer: Tuple[Metric, ...]

    def units(self, traced: bool) -> Dict[str, str]:
        """``metric name -> unit`` for one pass."""
        metrics = self.per_layer if traced else self.end_to_end
        return {metric.name: metric.unit for metric in metrics}


def load_spec(path: Path = SPEC_PATH) -> Spec:
    """Read and parse the contract file."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return Spec(
        run_seconds=int(raw["run_seconds"]),
        workloads={w["name"]: w["why"] for w in raw["workloads"]},
        end_to_end=tuple(Metric(**m) for m in raw["end_to_end"]),
        per_layer=tuple(Metric(**m) for m in raw["per_layer"]),
    )

"""Experiment harness: drives the simulator and reproduces every figure.

* :mod:`~repro.experiments.runner` — generic trace-driven experiment driver
  returning an :class:`~repro.experiments.runner.ExperimentResult`.
* :mod:`~repro.experiments.parallel` — picklable run recipes
  (``ExperimentSpec``), the one spec-driven run body (``run_live`` /
  ``run_spec``), and ``run_sweep``, which fans independent runs out over
  worker processes with a value-identical serial fallback.
* :mod:`~repro.experiments.sweeps` — the paper's setup as recipes (one
  ``Scale``, ``paper_cloud``, ``zipf_workload`` / ``sydney_workload``) and
  what every sweep shares: the paper's grids, the warm-up rule, the
  failed-point collector (``run_points`` / ``run_table``) and the one
  row-table result type (``SweepTable``).
* :mod:`~repro.experiments.figures`, :mod:`~repro.experiments.ablations`,
  :mod:`~repro.experiments.extensions`, :mod:`~repro.experiments.resilience`,
  :mod:`~repro.experiments.overload`, :mod:`~repro.experiments.elastic`,
  :mod:`~repro.experiments.zoo` — the experiments themselves: each a run
  function plus a ``*_claims`` predicate over its result.
* :mod:`~repro.experiments.registry` — every experiment described once, as
  data; what ``repro exp``, the benchmarks, tier-1 and CI iterate.
  (Imported on demand — ``from repro.experiments import registry`` — since
  it pulls in every experiment module.)
"""

from repro.experiments.parallel import (
    ExperimentSpec,
    FailedRun,
    WorkloadSpec,
    resolve_jobs,
    run_spec,
    run_sweep,
)
from repro.experiments.runner import (
    ExperimentResult,
    TraceFeeder,
    run_experiment,
)
from repro.experiments.sweeps import (
    UPDATE_RATE_SWEEP,
    ZIPF_SWEEP,
    SweepTable,
    run_points,
)

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "FailedRun",
    "SweepTable",
    "TraceFeeder",
    "UPDATE_RATE_SWEEP",
    "WorkloadSpec",
    "ZIPF_SWEEP",
    "resolve_jobs",
    "run_experiment",
    "run_points",
    "run_spec",
    "run_sweep",
]

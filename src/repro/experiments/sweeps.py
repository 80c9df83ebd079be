"""What every sweep shares: grids, the warm-up rule, the collector, the table.

An experiment is *arms × grid under common random numbers → a table → a
few claims*. This module holds the parts of that shape that do not depend
on the experiment:

* the paper's sweep grids (update rates, Zipf parameters, cloud/ring sizes);
* :func:`warmed_spec` — an :class:`ExperimentSpec` under the one warm-up
  rule every steady-state sweep uses; :func:`poisson_churn` — the churn
  timeline the fault sweeps share;
* :func:`run_points` — runs specs through :func:`run_sweep` and partitions
  the slots into results (by spec key) and :class:`FailedRun` records;
* :class:`SweepTable` — the one row-table result type: columns, rows,
  failed points, and whatever else the experiment archives beside them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.config import CloudConfig
from repro.experiments.parallel import (
    ExperimentSpec,
    FailedRun,
    WorkloadSpec,
    run_spec,
    run_sweep,
)
from repro.faults.churn import ChurnSpec
from repro.metrics.report import Table, format_figure_header

#: The paper's document-update-rate sweep (updates per unit time, log-spaced;
#: Figures 7-9). 195 is the trace's observed update rate — the dashed
#: vertical line in the figures.
UPDATE_RATE_SWEEP: Tuple[float, ...] = (10.0, 50.0, 100.0, 195.0, 500.0, 1000.0)

#: The Zipf-parameter sweep of Figure 6 ("ranging from 0 to 0.99").
ZIPF_SWEEP: Tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.99)

#: Cloud sizes of Figure 5.
CLOUD_SIZE_SWEEP: Tuple[int, ...] = (10, 20, 50)

#: Beacon-ring sizes of Figure 5.
RING_SIZE_SWEEP: Tuple[int, ...] = (2, 5, 10)


def rings_for(num_caches: int, ring_size: int) -> int:
    """Number of beacon rings giving ``ring_size`` beacon points per ring.

    Requires divisibility — the paper's configurations (10/20/50 caches with
    rings of 2/5/10) all divide evenly.
    """
    if num_caches % ring_size != 0:
        raise ValueError(
            f"{num_caches} caches cannot form equal rings of {ring_size}"
        )
    return num_caches // ring_size


def warmed_spec(
    key: object,
    config: CloudConfig,
    workload: WorkloadSpec,
    duration: float,
    **planes: Any,
) -> ExperimentSpec:
    """An :class:`ExperimentSpec` under the sweeps' shared warm-up rule.

    Two full cycles of warm-up (at most half the run): the dynamic scheme
    has rebalanced at least twice before measurement starts, and every arm
    gets the identical window (common random numbers). ``planes`` are the
    spec's optional fields (``fault_plan``, ``churn``, ``overload``, ...).
    """
    return ExperimentSpec(
        key=key,
        config=config,
        workload=workload,
        duration=duration,
        warmup=min(2.0 * config.cycle_length, duration / 2.0),
        **planes,
    )


def poisson_churn(
    seed: int, duration: float, cycle_length: float, rate: float
) -> Optional[ChurnSpec]:
    """The fail/recover timeline the fault sweeps share (None when ``rate`` is 0).

    Downtimes of two cycles are long enough to hurt and short enough that
    recovery (and the repair path) is exercised within the run.
    """
    if rate <= 0.0:
        return None
    return ChurnSpec(
        duration_minutes=duration,
        failure_rate_per_minute=rate,
        mean_downtime_minutes=2.0 * cycle_length,
        start_minutes=min(cycle_length, duration / 4.0),
        seed=seed,
    )


def failure_lines(failures: Iterable[FailedRun]) -> List[str]:
    """One ``FAILED <key>: <type>: <message>`` line per failed point."""
    return [
        f"FAILED {failed.key}: {failed.error_type}: {failed.error}"
        for failed in failures
    ]


class SweepFailed(Exception):
    """A sweep whose result needs every point lost one (or more)."""

    def __init__(self, failures: List[FailedRun]) -> None:
        super().__init__("\n".join(failure_lines(failures)))
        self.failures = failures


def run_points(
    specs: Sequence[Any],
    jobs: Optional[int] = None,
    runner: Optional[Callable[[Any], Any]] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    strict: bool = False,
) -> Tuple[Dict[Any, Any], List[FailedRun]]:
    """Run ``specs``; returns ``({spec.key: result}, failures)`` in spec order.

    The one place sweep slots are partitioned: a point that failed both
    attempts lands in ``failures`` instead of the result map. ``strict``
    is for results that cannot be built from a partial grid (a figure's
    static/dynamic pair): any failure raises :class:`SweepFailed` carrying
    the records, so the real error is reported rather than an attribute
    error on the placeholder.
    """
    results: Dict[Any, Any] = {}
    failures: List[FailedRun] = []
    outcomes = run_sweep(
        specs, jobs=jobs, runner=runner or run_spec, checkpoint=checkpoint
    )
    for spec, outcome in zip(specs, outcomes):
        if isinstance(outcome, FailedRun):
            failures.append(outcome)
        else:
            results[spec.key] = outcome
    if strict and failures:
        raise SweepFailed(failures)
    return results, failures


@dataclass
class SweepTable:
    """Rows over a sweep grid, the points that failed, and archived extras.

    ``keys`` names the columns identifying a row (:meth:`row` matches them
    positionally). ``extras`` is archived beside the table — monitor
    series, per-arm records, scale labels — so :meth:`payload` is exactly
    ``{columns, rows, failures}`` plus whatever the experiment put there;
    ``header``/``title``/``precision``/``footer`` only shape :meth:`render`.
    """

    header: Tuple[str, str]
    columns: Tuple[str, ...]
    rows: List[Tuple[Any, ...]] = field(default_factory=list)
    #: Sweep points that failed both attempts (empty on healthy runs).
    failures: List[FailedRun] = field(default_factory=list)
    extras: Dict[str, Any] = field(default_factory=dict)
    keys: Tuple[str, ...] = ()
    precision: int = 2
    title: Optional[str] = None
    footer: List[str] = field(default_factory=list)

    def row(self, *key: Any) -> Tuple[Any, ...]:
        """The row whose key columns equal ``key``."""
        names = self.keys or self.columns[:1]
        indexes = [self.columns.index(name) for name in names]
        for row in self.rows:
            if tuple(row[i] for i in indexes) == key:
                return row
        raise KeyError(key)

    def record(self, *key: Any) -> Dict[str, Any]:
        """The row for ``key`` as a ``{column: value}`` mapping."""
        return dict(zip(self.columns, self.row(*key)))

    def records(self) -> List[Dict[str, Any]]:
        """Every row as a ``{column: value}`` mapping, in table order."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> List[Any]:
        """One column's values across rows."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def payload(self) -> Dict[str, Any]:
        """What archives and fingerprints see."""
        return {
            **self.extras,
            "columns": self.columns,
            "rows": self.rows,
            "failures": self.failures,
        }

    def render(self) -> str:
        table = Table(list(self.columns), precision=self.precision, title=self.title)
        for row in self.rows:
            table.add_row(*row)
        return "\n".join(
            [
                format_figure_header(*self.header),
                table.render(),
                *failure_lines(self.failures),
                *self.footer,
            ]
        )

"""The paper's setup, stated once, and what every sweep shares.

An experiment is *arms × grid under common random numbers → a table → a
few claims*. This module holds the parts of that shape that do not depend
on the experiment:

* the setup of the paper's §4 as recipes — :class:`Scale` (run sizes and
  their presets), :func:`paper_cloud` (the cloud), :func:`zipf_workload` /
  :func:`sydney_workload` (the two datasets). An entry module states only
  what it *overrides*; a recalibration is an edit here and nowhere else;
* the paper's sweep grids (update rates, Zipf parameters, cloud/ring sizes);
* :func:`warmed_spec` — an :class:`ExperimentSpec` under the one warm-up
  rule every steady-state sweep uses; :func:`poisson_churn` — the churn
  timeline the fault sweeps share;
* :func:`run_points` — runs specs through :func:`run_sweep` and partitions
  the slots into results (by spec key) and :class:`FailedRun` records;
  :func:`run_table` — the same, straight into a table of one row per point;
  :func:`drive` — the hand-driven counterpart for systems that are not a
  :class:`~repro.core.cloud.CacheCloud` under the simulator;
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

from repro.core.config import AssignmentScheme, CloudConfig, PlacementScheme
from repro.experiments.parallel import (
    ExperimentSpec,
    FailedRun,
    GeneratorConfig,
    WorkloadSpec,
    run_spec,
    run_sweep,
)
from repro.faults.churn import ChurnSpec
from repro.metrics.report import Table, format_figure_header
from repro.workload.generator import WorkloadConfig
from repro.workload.sydney import SydneyConfig
from repro.workload.trace import Trace, UpdateRecord

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


@dataclass(frozen=True)
class Scale:
    """Run sizes of one experiment; the defaults are the paper's cloud shape."""

    num_documents: int
    request_rate_per_cache: float
    update_rate: float
    duration_minutes: float
    #: Sub-range determination cycle length. The paper uses 1 hour over a
    #: 24-hour trace (≈ 24 cycles); scaled runs shrink the cycle with the
    #: duration so the dynamic scheme gets a comparable number of cycles.
    cycle_length: float = 60.0
    num_caches: int = 10
    num_rings: int = 5
    #: Per-cache disk budget of the limited-disk experiments, as a share of
    #: the corpus bytes — the paper's Figure 9 sets 5 %. A budget below 1.0
    #: is what makes admission policies differ at steady state (with
    #: unlimited disk every scheme converges on "everything is resident").
    disk_fraction: float = 0.05
    #: Multiplier applied to the paper's update-rate sweep in Figures 7-9.
    #: The paper's x-axis (10..1000 updates/unit) sits against an Olympics
    #: site's request volume, which dwarfs it; scaled-down runs shrink the
    #: sweep by the same factor as the request volume so the request:update
    #: ratio — the quantity the placement trade-off actually depends on —
    #: is preserved. Rendered tables report the actual simulated rates.
    update_sweep_scale: float = 1.0
    seed: int = 7

    def __post_init__(self) -> None:
        if min(self.num_documents, self.num_caches, self.duration_minutes) <= 0:
            raise ValueError("scale sizes must be positive")
        if self.disk_fraction <= 0.0:
            raise ValueError("disk_fraction must be positive")

    @property
    def observed_update_rate(self) -> float:
        """The trace's observed update rate (195/unit in the paper), as simulated."""
        return 195.0 * self.update_sweep_scale


def paper_cloud(scale: Scale, **overrides: Any) -> CloudConfig:
    """The paper's cloud at ``scale``; ``overrides`` are what an entry varies.

    The recipe fixes shape, cycle and seed from the scale and leaves the
    rest to :class:`CloudConfig`'s defaults, which *are* the paper's §4
    setup (``IntraGen`` 1000, dynamic hashing, utility placement with DsCC
    off and threshold 0.5, LRU on unlimited disk, no failure resilience).
    """
    fields: Dict[str, Any] = dict(
        num_caches=scale.num_caches,
        num_rings=scale.num_rings,
        cycle_length=scale.cycle_length,
        seed=scale.seed,
    )
    fields.update(overrides)
    return CloudConfig(**fields)


def loadbalance_cloud(
    scale: Scale, assignment: AssignmentScheme, **overrides: Any
) -> CloudConfig:
    """Cloud config for the load-balance experiments (Figures 3-6).

    Beacon-point placement keeps every non-beacon request flowing through
    the beacon (a lookup) at steady state, so beacon load carries the full
    Zipf skew of both components the paper counts ("number of document
    updates and document lookups ... per unit time"). Under ad-hoc placement
    with ample disk the hot documents are resident everywhere and lookups
    degenerate to the near-uniform tail, washing out the skew the experiment
    is about.
    """
    return paper_cloud(
        scale, assignment=assignment, placement=PlacementScheme.BEACON, **overrides
    )


def _workload(
    config: GeneratorConfig, scale: Scale, corpus_seed: Optional[int]
) -> WorkloadSpec:
    """The corpus shares the trace's root seed unless ``corpus_seed`` names its own."""
    return WorkloadSpec(
        generator_config=config,
        corpus_documents=scale.num_documents,
        corpus_seed=scale.seed if corpus_seed is None else corpus_seed,
    )


def zipf_workload(
    scale: Scale, corpus_seed: Optional[int] = None, **overrides: Any
) -> WorkloadSpec:
    """Picklable recipe for the Zipf-0.9 corpus + trace (built in sweep workers).

    ``overrides`` are :class:`WorkloadConfig` fields.
    """
    fields: Dict[str, Any] = dict(
        num_documents=scale.num_documents,
        num_caches=scale.num_caches,
        request_rate_per_cache=scale.request_rate_per_cache,
        update_rate=scale.update_rate,
        duration_minutes=scale.duration_minutes,
        seed=scale.seed,
    )
    fields.update(overrides)
    return _workload(WorkloadConfig(**fields), scale, corpus_seed)


def sydney_workload(
    scale: Scale, corpus_seed: Optional[int] = None, **overrides: Any
) -> WorkloadSpec:
    """Picklable recipe for the Sydney-like corpus + trace.

    One diurnal period over the run, hourly popularity epochs (at least
    two), the top tenth of the ranks drifting between epochs.
    ``overrides`` are :class:`SydneyConfig` fields.
    """
    fields: Dict[str, Any] = dict(
        num_documents=scale.num_documents,
        num_caches=scale.num_caches,
        peak_request_rate_per_cache=scale.request_rate_per_cache,
        base_update_rate=scale.update_rate,
        duration_minutes=scale.duration_minutes,
        diurnal_period_minutes=scale.duration_minutes,
        num_epochs=max(2, int(scale.duration_minutes / 60.0)),
        drift_pool=max(10, scale.num_documents // 10),
        seed=scale.seed,
    )
    fields.update(overrides)
    return _workload(SydneyConfig(**fields), scale, corpus_seed)


def disk_budget(workload: WorkloadSpec, fraction: float) -> int:
    """Per-cache capacity in bytes: ``fraction`` of the workload's corpus.

    The corpus depends only on its seed, so it is built here once to size
    the budget; sweep workers rebuild the identical corpus.
    """
    return max(1, int(workload.build_corpus().total_bytes * fraction))


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


def drive(
    system: Any,
    trace: Trace,
    on_cycle: Optional[Callable[[float], None]] = None,
    cycle_length: float = 0.0,
) -> None:
    """Feed ``trace`` to ``system.handle_request`` / ``handle_update`` in time order.

    The hand-driven loop for systems that only share the cloud's driving
    surface (the consistency baselines) or need a per-cycle hook of their
    own: ``on_cycle(t)`` is called at every multiple ``t`` of
    ``cycle_length`` the trace passes, before the first record at or after
    ``t`` — where the simulator would fire the cloud's cycle event.
    """
    if on_cycle is not None and cycle_length <= 0.0:
        raise ValueError("a cycle hook needs a positive cycle_length")
    next_cycle = cycle_length
    for record in trace.merged():
        while on_cycle is not None and record.time >= next_cycle:
            on_cycle(next_cycle)
            next_cycle += cycle_length
        if isinstance(record, UpdateRecord):
            system.handle_update(record.doc_id, record.time)
        else:
            system.handle_request(record.cache_id, record.doc_id, record.time)


@dataclass
class SweepTable:
    """Rows over a sweep grid, the points that failed, and archived extras.

    ``keys`` names the columns identifying a row (:meth:`row` matches them
    positionally). ``extras`` is archived beside the table — windowed
    flight series, per-arm records, scale labels — so :meth:`payload` is
    exactly ``{columns, rows, failures}`` plus whatever the experiment put
    there; ``header``/``title``/``precision``/``footer`` only shape
    :meth:`render`.
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


def run_table(
    specs: Sequence[Any],
    measure: Callable[[Any], Tuple[Any, ...]],
    jobs: Optional[int] = None,
    runner: Optional[Callable[[Any], Any]] = None,
    extras: Optional[Callable[[Dict[Any, Any]], Dict[str, Any]]] = None,
    **shape: Any,
) -> SweepTable:
    """Run ``specs`` into a table: one ``(*key, *measure(run))`` row per point.

    A point that failed is in the table's ``failures`` instead of its rows.
    ``extras`` maps ``{spec.key: run}`` to what is archived beside the rows;
    ``shape`` is the rest of :class:`SweepTable` (header, columns, keys, ...).
    """
    runs, failures = run_points(specs, jobs=jobs, runner=runner)
    return SweepTable(
        rows=[
            (*(key if isinstance(key, tuple) else (key,)), *measure(run))
            for key, run in runs.items()
        ],
        failures=failures,
        extras=extras(runs) if extras is not None else {},
        **shape,
    )

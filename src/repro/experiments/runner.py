"""Generic trace-driven experiment driver.

Wires a :class:`~repro.core.cloud.CacheCloud` to a request/update stream on
the discrete-event simulator, applies a warm-up window (counters reset so
steady-state statistics aren't polluted by the cold start), and collects the
statistics every figure needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Iterator, Optional

from repro.core.cloud import CacheCloud
from repro.core.config import CloudConfig
from repro.core.elastic import ElasticConfig
from repro.core.overload import OverloadConfig
from repro.edgecache.stats import CacheStats
from repro.faults.churn import ChurnSchedule, ChurnSpec
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.metrics.loadbalance import LoadBalanceStats, load_balance_stats
from repro.network.bandwidth import TrafficMeter
from repro.simulation.engine import Simulator, SourceItem
from repro.simulation.events import EventPriority
from repro.simulation.rng import derive_seed
from repro.workload.documents import Corpus
from repro.workload.trace import (
    RequestRecord,
    TraceRecord,
    UpdateRecord,
    merge_streams,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe.flight import FlightRecorder
    from repro.observe.registry import Telemetry
    from repro.strategies.base import CacheStrategy


class TraceFeeder:
    """Feeds a merged trace stream into a cloud, one record in flight.

    The feeder is the simulator's record source
    (:meth:`~repro.simulation.engine.Simulator.attach_source`): the engine
    holds exactly one waiting record and asks for the next when the current
    one has been processed, so a trace of any length costs one slot — never
    a heap entry, an event object or a closure per record.
    """

    def __init__(
        self,
        simulator: Simulator,
        cloud: CacheCloud,
        stream: Iterable[TraceRecord],
    ) -> None:
        self._sim = simulator
        self._cloud = cloud
        self._iter: Iterator[TraceRecord] = iter(stream)
        self.records_fed = 0

    def start(self) -> None:
        """Arm the first record."""
        self._sim.attach_source(self._pull, self._process)

    def _pull(self) -> Optional[SourceItem]:
        """The next record with its time and same-instant priority class."""
        record = next(self._iter, None)
        if record is None:
            return None
        if isinstance(record, UpdateRecord):
            return (record.time, EventPriority.UPDATE, record)
        return (record.time, EventPriority.REQUEST, record)

    def _process(self, record: TraceRecord, now: float) -> None:
        """Hand one due record to the cloud."""
        self.records_fed += 1
        if isinstance(record, UpdateRecord):
            self._cloud.handle_update(record.doc_id, now)
        else:
            self._cloud.handle_request(record.cache_id, record.doc_id, now)


@dataclass
class ExperimentResult:
    """Everything the figure reproductions report."""

    config: CloudConfig
    duration: float
    warmup: float
    #: Post-warm-up beacon load per unit time, keyed by cache id.
    beacon_loads: Dict[int, float] = field(default_factory=dict)
    load_stats: Optional[LoadBalanceStats] = None
    traffic: Optional[TrafficMeter] = None
    network_mb_per_unit: float = 0.0
    docs_stored_percent: float = 0.0
    stats: CacheStats = field(default_factory=CacheStats)
    requests: int = 0
    updates: int = 0
    cloud: Optional[CacheCloud] = None
    #: Mean resident documents per cache at the end of the run (the Fig. 7
    #: numerator); summarized here so results stay usable without the cloud.
    mean_resident_docs: float = 0.0
    #: Total lookups handled by beacon points in the measurement window.
    beacon_lookups_total: int = 0
    #: Directory entries migrated by sub-range determination cycles.
    directory_entries_migrated: int = 0
    #: Unique documents in the request stream (filled in by spec-driven runs,
    #: which materialize the trace; 0 when driven from raw streams).
    unique_request_docs: int = 0
    #: Flat fault/churn/repair counter summary (all zero on a perfect run).
    resilience: Dict[str, float] = field(default_factory=dict)
    #: End-of-run invariant audit summary (empty unless requested).
    audit: Dict[str, float] = field(default_factory=dict)

    def sorted_loads(self) -> list:
        """Beacon loads in decreasing order (the figures' x-axis order)."""
        return sorted(self.beacon_loads.values(), reverse=True)

    def detached(self) -> "ExperimentResult":
        """A copy without the live cloud object.

        The detached copy is what parallel sweep workers ship back to the
        parent process: every reported metric survives, only the simulation
        state (which is large and never compared) is dropped.
        """
        return replace(self, cloud=None)


def run_experiment(
    config: CloudConfig,
    corpus: Corpus,
    requests: Iterable[RequestRecord],
    updates: Iterable[UpdateRecord],
    duration: float,
    warmup: Optional[float] = None,
    cloud: Optional[CacheCloud] = None,
    fault_plan: Optional[FaultPlan] = None,
    churn: Optional[ChurnSpec] = None,
    anti_entropy=None,
    audit: bool = False,
    telemetry: Optional["Telemetry"] = None,
    overload: Optional[OverloadConfig] = None,
    elastic: Optional[ElasticConfig] = None,
    simulator: Optional[Simulator] = None,
    strategy: Optional["CacheStrategy"] = None,
    flight: Optional["FlightRecorder"] = None,
    on_attached: Optional[Callable[[CacheCloud, Simulator], None]] = None,
) -> ExperimentResult:
    """Run one trace-driven experiment.

    The one place a run's planes are attached: the body's order is part of
    the determinism contract (same-tick events fire in scheduling order).

    Parameters
    ----------
    config:
        Cloud configuration (schemes, sizes, weights).
    corpus:
        Document universe shared by cloud and workload.
    requests / updates:
        Time-sorted record streams (lazy iterators are fine).
    duration:
        Simulated minutes to run.
    warmup:
        Measurement counters reset at this time; defaults to one sub-range
        cycle (so the dynamic scheme has rebalanced at least once, and the
        static scheme gets the identical window).
    cloud:
        Pre-built cloud (for experiments that pre-populate or fail caches);
        built from ``config``/``corpus`` when omitted.
    fault_plan:
        Optional message-fault description; when given, a seeded
        :class:`~repro.faults.injector.FaultInjector` is attached to the
        cloud. The injector seed mixes ``config.seed`` with the plan's own
        seed so sweep points stay independent but reproducible.
    churn:
        Optional churn timeline; events fire as simulation events through
        the cloud's failure manager (requires ``failure_resilience=True``).
    anti_entropy:
        Optional :class:`~repro.audit.antientropy.AntiEntropyConfig`; when
        given, the repair process is attached and (if enabled) scheduled,
        and it sweeps after every applied churn recovery.
    audit:
        Run the invariant auditor at the end of the run and store its flat
        summary in ``result.audit``. The audit is read-only and runs after
        the last simulated event, so it never perturbs reported metrics.
    telemetry:
        Optional :class:`~repro.observe.registry.Telemetry` registry,
        attached to the cloud before the first record is fed. Recording is
        observation-only; the run's protocol behavior is identical with or
        without it.
    overload:
        Optional :class:`~repro.core.overload.OverloadConfig`; when given
        (and the cloud has no controller yet), bounded per-node queues and
        the overload controller are attached before the first record.
    elastic:
        Optional :class:`~repro.core.elastic.ElasticConfig`; when given,
        the elastic sizing controller is attached (requires ``overload``
        and ``failure_resilience=True``) and its periodic watermark check
        is scheduled on the simulator.
    simulator:
        Pre-built simulator; created internally when omitted.
    flight:
        Optional :class:`~repro.observe.flight.FlightRecorder`, attached
        after every plane that can reject the run (so a rejected run writes
        no artifact) and finished — final window flushed, summary appended,
        artifact closed — when the run completes. Off-path like telemetry.
    on_attached:
        Optional ``on_attached(cloud, simulator)``, called with every plane
        attached, before the first record.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if warmup is None:
        warmup = min(config.cycle_length, duration / 2.0)
    if not 0 <= warmup < duration:
        raise ValueError(f"warmup {warmup} must lie in [0, duration)")

    if simulator is None:
        simulator = Simulator()
    if cloud is None:
        cloud = CacheCloud(config, corpus, strategy=strategy)
    elif strategy is not None:
        raise ValueError("pass strategy via the pre-built cloud, not both")
    if overload is not None:
        cloud.attach_overload(overload)
    if telemetry is not None:
        cloud.attach_telemetry(telemetry)
    if elastic is not None:
        cloud.attach_elastic(elastic, simulator)
    if fault_plan is not None:
        cloud.attach_faults(
            FaultInjector(
                fault_plan,
                cloud.transport,
                seed=derive_seed(config.seed, f"faults:{fault_plan.seed}"),
                clock=lambda: simulator.now,
            )
        )
    ae_process = None
    if anti_entropy is not None:
        ae_process = cloud.attach_anti_entropy(anti_entropy, simulator)
        if cloud.elastic is not None:
            # A warm join is a recovery: it gets the same repair sweep.
            cloud.elastic.add_hook(ae_process.on_churn_event)
    schedule: Optional[ChurnSchedule] = None
    if churn is not None:
        schedule = ChurnSchedule.from_spec(churn, config.num_caches)
        if ae_process is not None:
            schedule.add_hook(ae_process.on_churn_event)
        schedule.attach(cloud, simulator)
    if flight is not None:
        cloud.attach_flight(flight)
    cloud.attach_cycles(simulator)
    if on_attached is not None:
        on_attached(cloud, simulator)
    feeder = TraceFeeder(simulator, cloud, merge_streams(requests, updates))
    feeder.start()

    def _reset_counters() -> None:
        cloud.reset_beacon_totals()
        # The meter and the attempt ledger must reset together, or the
        # auditor's conservation check would flag the warm-up skew.
        cloud.transport.reset_accounting()
        if cloud.faults is not None:
            # The injector's byte count is the ledger's twin (the auditor
            # holds it under the ledger); delivery fates stay cumulative.
            cloud.faults.stats.bytes_attempted = 0
        for cache in cloud.caches:
            cache.stats = CacheStats()
        if cloud.overload is not None:
            # Overload statistics describe the measurement window, like
            # every other per-cache counter (queue *state* survives — a
            # backlog built during warm-up is still physically there).
            cloud.overload.stats.reset()

    if warmup > 0:
        simulator.schedule_at(
            warmup, _reset_counters, priority=EventPriority.METRICS, label="warmup-reset"
        )
    simulator.run_until(duration)
    if schedule is not None:
        schedule.finalize(duration)
    if cloud.elastic is not None:
        cloud.elastic.finalize(duration)
    if flight is not None:
        flight.finish(duration)

    span = duration - warmup
    beacon_loads = {
        cache_id: total / span for cache_id, total in cloud.beacon_loads().items()
    }
    meter = cloud.transport.meter
    result = ExperimentResult(
        config=config,
        duration=duration,
        warmup=warmup,
        beacon_loads=beacon_loads,
        load_stats=load_balance_stats(list(beacon_loads.values())),
        traffic=meter,
        network_mb_per_unit=meter.megabytes_per_unit_time(span),
        docs_stored_percent=cloud.docs_stored_fraction() * 100.0,
        stats=cloud.aggregate_stats(),
        requests=cloud.requests_handled,
        updates=cloud.updates_handled,
        cloud=cloud,
        mean_resident_docs=(
            sum(len(c.storage) for c in cloud.caches) / len(cloud.caches)
        ),
        beacon_lookups_total=sum(
            b.total_lookups for b in cloud.beacons.values()
        ),
        directory_entries_migrated=sum(
            b.directory_entries_migrated for b in cloud.beacons.values()
        ),
    )
    result.resilience = cloud.resilience_summary()
    if schedule is not None:
        result.resilience.update(schedule.stats.as_dict())
    if audit:
        from repro.audit.invariants import InvariantAuditor

        result.audit = InvariantAuditor().audit(cloud).summary()
    return result

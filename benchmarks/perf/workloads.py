"""The four benchmark workloads and the timed segment they share.

Every workload is a closed loop in one thread: the next trace record is
issued when the previous one returns. An *operation* is one client request
or one origin update handed to the cloud. A run has two parts:

* **set-up** — corpus, trace, cloud construction and the warm-up
  operations (``setup_s``);
* **timed segment** — from the first post-warm-up request until both the
  *pinned checkpoint* (a fixed request count, where the simulated
  statistics are read) has passed and ``seconds`` of wall-clock have
  elapsed. The segment is cut into blocks of a fixed request count (about
  25 ms each): a block's end is where the clock is read and the stop rule
  applied. The throughput metrics are every block's operations over every
  block's time — the whole segment, nothing discarded.

Shapes (cache counts, rings, placement, disk share, update mix, fault and
overload settings) are constants; ``scale`` shrinks only operation counts.
All randomness derives from the one ``seed`` argument.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.cloud import CacheCloud
from repro.core.config import (
    WEIGHTS_ALL_ON,
    AssignmentScheme,
    CloudConfig,
    PlacementScheme,
)
from repro.core.overload import OverloadConfig
from repro.experiments import runner
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.observe.flight import FlightRecorder, read_flight
from repro.observe.profile import WorkProfile
from repro.observe.registry import Telemetry
from repro.simulation.engine import Simulator
from repro.simulation.rng import derive_seed
from repro.workload import documents
from repro.workload.sydney import SydneyConfig, SydneyTraceGenerator
from repro.workload.trace import RequestRecord, UpdateRecord

from .spec import OUT_DIR
from .state import State, state_of

#: ``--scale`` values: divisor applied to warm-up and pinned op counts.
SCALES = {"full": 1, "smoke": 20}


class Segment:
    """Clock, block laps, pinned checkpoint and stop rule of one timed segment.

    ``tracer`` (the traced pass) is told when the segment starts and when
    the pinned checkpoint is reached, so its aggregates cover exactly the
    pinned part of the segment.
    """

    def __init__(
        self, seconds: float, pinned_requests: int, block: int, tracer=None
    ) -> None:
        if pinned_requests % block:
            raise ValueError("pinned_requests must be a whole number of blocks")
        self.seconds = seconds
        self.pinned_requests = pinned_requests
        self.block = block
        self.tracer = tracer
        self.started = False
        self.done = False
        #: Requests and updates issued since the start (the driver's own
        #: count, checked against the cloud's counters afterwards).
        self.fed = 0
        self.requests = 0
        #: Per block: (wall seconds, cpu seconds, operations).
        self.blocks: List[Tuple[float, float, int]] = []
        self.start_state: Optional[State] = None
        self.pinned_state: Optional[State] = None
        #: Wall-clock length of the pinned part.
        self.pinned_s = 0.0
        self.pinned_blocks = 0

    def start(self, cloud: CacheCloud, simulator: Optional[Simulator] = None) -> None:
        """End of set-up: snapshot the state and start the clocks."""
        self._cloud = cloud
        self._simulator = simulator
        self.start_state = state_of(cloud, simulator)
        profile = cloud.profile
        #: (counts, units) of the work profile at the start, if one is attached.
        self.profile_base = profile.snapshot() if profile is not None else None
        self._ops = cloud.requests_handled + cloud.updates_handled
        self.started = True
        if self.tracer is not None:
            self.tracer.mark()
        self.t_start = self._wall = time.perf_counter()
        self._cpu = time.process_time()

    def lap(self) -> None:
        """Close one block of ``block`` requests (plus interleaved updates)."""
        wall = time.perf_counter()
        cpu = time.process_time()
        cloud = self._cloud
        ops = cloud.requests_handled + cloud.updates_handled
        self.blocks.append((wall - self._wall, cpu - self._cpu, ops - self._ops))
        self._ops = ops
        self.requests += self.block
        if self.requests == self.pinned_requests:
            if self.tracer is not None:
                self.tracer.freeze()
            self.pinned_s = wall - self.t_start
            self.pinned_blocks = len(self.blocks)
            self.pinned_state = state_of(cloud, self._simulator)
        if self.requests >= self.pinned_requests:
            self.done = wall - self.t_start >= self.seconds
        # Snapshot time is the benchmark's own, not the program's.
        self._wall = time.perf_counter()
        self._cpu = time.process_time()


@dataclass
class Outcome:
    """What one workload run leaves behind for measurement and checks."""

    cloud: CacheCloud
    setup_s: float
    segment: Segment
    #: ``requests_handled`` when the window counters were last zeroed.
    window_base: int
    simulator: Optional[Simulator] = None
    #: Trace records generated in set-up (0 for direct drive).
    trace_records: int = 0
    #: Flight-recorder windows closed by the pinned checkpoint.
    flight_windows: int = 0


@dataclass(frozen=True)
class DirectDrive:
    """One ``CacheCloud`` driven through ``handle_request``/``handle_update``.

    Requests pick a uniform cache and a squared-uniform document (mild
    skew: hot documents stay resident, the tail churns); one update follows
    every ``update_every``-th request.
    """

    caches: int
    rings: int
    docs: int
    placement: PlacementScheme
    disk_share: Optional[float]
    update_every: int
    skewed_updates: bool
    warmup_requests: int
    block: int
    pinned_blocks_per_second: float
    #: No faults, no overload: the invariant audit must come back clean.
    fault_free = True

    def configuration(self, scale: str) -> Dict[str, object]:
        return {
            "drive": "direct handle_request/handle_update, no simulator",
            "caches": self.caches,
            "rings": self.rings,
            "docs": self.docs,
            "placement": self.placement.value,
            "disk_share": self.disk_share,
            "update_every": self.update_every,
            "updates": "squared-uniform" if self.skewed_updates else "strided",
            "warmup_requests": self.warmup_requests // SCALES[scale],
            "block_requests": self.block,
        }

    def run(
        self, seed: int, segment: Segment, scale: str, traced: bool = False
    ) -> Outcome:
        t0 = time.perf_counter()
        docs = self.docs
        caches = self.caches
        corpus = documents.build_corpus(
            docs, random.Random(derive_seed(seed, "corpus"))
        )
        capacity = None
        if self.disk_share is not None:
            capacity = max(1, int(corpus.total_bytes * self.disk_share))
        config = CloudConfig(
            num_caches=caches,
            num_rings=self.rings,
            assignment=AssignmentScheme.DYNAMIC,
            placement=self.placement,
            capacity_bytes=capacity,
            seed=seed,
        )
        cloud = CacheCloud(config, corpus)
        if traced:
            cloud.attach_profile(WorkProfile())
        rng = random.Random(derive_seed(seed, "requests"))
        handle_request = cloud.handle_request
        handle_update = cloud.handle_update
        update_every = self.update_every
        skewed = self.skewed_updates
        issued = 0

        def feed(count: int) -> int:
            """Issue ``count`` requests and their updates; returns operations."""
            nonlocal issued
            updates = 0
            for i in range(issued, issued + count):
                now = i / 1000.0
                handle_request(
                    rng.randrange(caches), int(rng.random() ** 2 * docs) % docs, now
                )
                if i % update_every == update_every - 1:
                    if skewed:
                        doc_id = int(rng.random() ** 2 * docs) % docs
                    else:
                        doc_id = (7 * i) % docs
                    handle_update(doc_id, now)
                    updates += 1
            issued += count
            return count + updates

        feed(self.warmup_requests // SCALES[scale])
        segment.start(cloud)
        setup_s = segment.t_start - t0
        while not segment.done:
            segment.fed += feed(segment.block)
            segment.lap()
        return Outcome(cloud, setup_s, segment, window_base=0)


@dataclass(frozen=True)
class SimDrive:
    """The ``run_experiment`` pipeline on a Sydney-like generated trace.

    Generator -> materialized trace -> ``Simulator`` + ``TraceFeeder`` +
    sub-range cycles, on a 20-cache / 5-ring cloud with dynamic hashing and
    utility placement. The benchmark sees the record streams only through
    two pass-through iterators, which is where the segment's clock ticks.
    ``planes`` attaches loss + retries, the overload model, a telemetry
    registry and a flight recorder all at once.
    """

    warmup: float  # simulated minutes before the timed segment
    measured: float  # simulated minutes of trace after the warm-up
    planes: bool
    block: int
    pinned_blocks_per_second: float

    CACHES = 20
    RINGS = 5
    DOCS = 5000
    DISK_SHARE = 0.05
    PEAK_RATE = 120.0
    UPDATE_RATE = 195.0
    CYCLE = 20.0

    @property
    def fault_free(self) -> bool:
        """Whether the invariant audit must come back clean."""
        return not self.planes

    def _minutes(self, scale: str) -> Tuple[float, float]:
        """(warm-up, total duration) in simulated minutes at ``scale``."""
        divisor = SCALES[scale]
        warmup = max(self.warmup / divisor, 2.0)
        return warmup, warmup + max(self.measured / divisor, 8.0)

    def configuration(self, scale: str) -> Dict[str, object]:
        warmup, duration = self._minutes(scale)
        config: Dict[str, object] = {
            "drive": "run_experiment: generator -> trace -> Simulator + TraceFeeder",
            "caches": self.CACHES,
            "rings": self.RINGS,
            "docs": self.DOCS,
            "placement": "utility",
            "disk_share": self.DISK_SHARE,
            "peak_requests_per_min_per_cache": self.PEAK_RATE,
            "updates_per_min": self.UPDATE_RATE,
            "cycle_min": self.CYCLE,
            "warmup_min": warmup,
            "trace_min": duration,
            "block_requests": self.block,
        }
        if self.planes:
            config["planes"] = (
                "failure_resilience, loss 0.05 + RetryPolicy(), "
                "OverloadConfig(10, 120 ms, 5 ms/KiB, retry), Telemetry, "
                "FlightRecorder(2-min windows)"
            )
        return config

    def run(
        self, seed: int, segment: Segment, scale: str, traced: bool = False
    ) -> Outcome:
        t0 = time.perf_counter()
        warmup, duration = self._minutes(scale)
        corpus = documents.build_corpus(
            self.DOCS, random.Random(derive_seed(seed, "corpus"))
        )
        trace = SydneyTraceGenerator(
            SydneyConfig(
                num_documents=self.DOCS,
                num_caches=self.CACHES,
                peak_request_rate_per_cache=self.PEAK_RATE,
                base_update_rate=self.UPDATE_RATE,
                duration_minutes=duration,
                diurnal_period_minutes=duration,
                seed=derive_seed(seed, "trace"),
            )
        ).build_trace()
        config = CloudConfig(
            num_caches=self.CACHES,
            num_rings=self.RINGS,
            cycle_length=self.CYCLE,
            assignment=AssignmentScheme.DYNAMIC,
            placement=PlacementScheme.UTILITY,
            utility_weights=WEIGHTS_ALL_ON,
            capacity_bytes=int(corpus.total_bytes * self.DISK_SHARE),
            failure_resilience=self.planes,
            seed=seed,
        )
        cloud = CacheCloud(config, corpus)
        simulator = Simulator()
        planes: Dict[str, object] = {}
        flight_dir = None
        if self.planes:
            OUT_DIR.mkdir(exist_ok=True)
            flight_dir = tempfile.mkdtemp(prefix="flight-", dir=OUT_DIR)
            retry = RetryPolicy()
            planes = {
                "fault_plan": FaultPlan(
                    seed=derive_seed(seed, "faults"), loss_rate=0.05, retry=retry
                ),
                "overload": OverloadConfig(
                    queue_capacity=10,
                    service_ms=120.0,
                    service_ms_per_kb=5.0,
                    retry=retry,
                ),
                "telemetry": Telemetry(),
                "flight": FlightRecorder(
                    os.path.join(flight_dir, "flight.jsonl"), window=2.0
                ),
            }
        elif traced:
            cloud.attach_profile(WorkProfile())
        flight_windows = 0
        try:
            runner.run_experiment(
                config,
                corpus,
                _timed_requests(trace.requests, warmup, segment, cloud, simulator),
                _counted_updates(trace.updates, segment),
                duration,
                warmup=warmup,
                cloud=cloud,
                simulator=simulator,
                **planes,
            )
            if flight_dir is not None and segment.pinned_state is not None:
                pinned_now = segment.pinned_state["life"]["sim_now"]
                log = read_flight(os.path.join(flight_dir, "flight.jsonl"))
                flight_windows = sum(1 for w in log.windows if w["end"] <= pinned_now)
        finally:
            if flight_dir is not None:
                shutil.rmtree(flight_dir, ignore_errors=True)
        if not segment.started:
            raise RuntimeError("the trace ended before the warm-up did")
        return Outcome(
            cloud,
            segment.t_start - t0,
            segment,
            window_base=segment.start_state["life"]["requests_handled"],
            simulator=simulator,
            trace_records=len(trace),
            flight_windows=flight_windows,
        )


def _timed_requests(
    records: Iterable[RequestRecord],
    warmup: float,
    segment: Segment,
    cloud: CacheCloud,
    simulator: Simulator,
) -> Iterator[RequestRecord]:
    """Pass requests through; run the segment's clock from ``warmup`` on.

    The feeder pulls the next record only after it has processed the
    previous one, so the code after each ``yield`` runs between two
    operations — the only place a closed-loop driver can read a clock.
    """
    iterator = iter(records)
    for record in iterator:
        if record.time >= warmup:
            break
        yield record
    else:
        return
    segment.start(cloud, simulator)
    in_block = 0
    while not segment.done:
        yield record
        segment.fed += 1
        in_block += 1
        if in_block == segment.block:
            in_block = 0
            segment.lap()
            if segment.done:
                break
        record = next(iterator, None)
        if record is None:
            break
    simulator.stop()


def _counted_updates(
    records: Iterable[UpdateRecord], segment: Segment
) -> Iterator[UpdateRecord]:
    """Pass updates through, counting those fed during the segment."""
    for record in records:
        yield record
        if segment.started:
            segment.fed += 1


#: name -> workload. ``block`` is sized for ~25 ms of work;
#: ``pinned_blocks_per_second`` puts the pinned checkpoint at a little under
#: a third of what this class of host completes in ``--seconds`` — one slice
#: of an untraced run. A slower host simply runs each slice until it gets
#: there; a shorter pin makes the simulated statistics jumpier across seeds.
WORKLOADS = {
    "figure-sim": SimDrive(
        warmup=40.0, measured=240.0, planes=False, block=1000,
        pinned_blocks_per_second=8.0,
    ),
    "cloud250-knee": DirectDrive(
        caches=250, rings=10, docs=500, placement=PlacementScheme.UTILITY,
        disk_share=0.25, update_every=50, skewed_updates=False,
        warmup_requests=80_000, block=250, pinned_blocks_per_second=12.0,
    ),
    "update-storm": DirectDrive(
        caches=50, rings=5, docs=2000, placement=PlacementScheme.AD_HOC,
        disk_share=None, update_every=2, skewed_updates=True,
        warmup_requests=60_000, block=500, pinned_blocks_per_second=8.0,
    ),
    "planes-on": SimDrive(
        warmup=20.0, measured=100.0, planes=True, block=250,
        pinned_blocks_per_second=12.0,
    ),
}


def pinned_requests(workload, seconds: float, scale: str) -> int:
    """Requests from segment start to the pinned checkpoint."""
    blocks = workload.pinned_blocks_per_second * seconds / SCALES[scale]
    return max(1, round(blocks)) * workload.block

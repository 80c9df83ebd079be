"""The cache cloud: composition root and stable public API.

:class:`CacheCloud` wires together everything the paper describes — a set
of edge caches, the beacon-point role at every cache, a document→beacon
assignment scheme (static / consistent / dynamic hashing), a cooperative
caching *strategy* (``repro.strategies`` — forwarding, admission, and
update propagation behind one three-hook seam), the origin server — and
composes them around one :class:`~repro.core.fabric.MessageFabric`, the
single dispatch seam every protocol message crosses.

The protocol logic itself lives in the role modules:

* :class:`~repro.core.node.CacheNode` — the requester side: collaborative
  miss handling, placement, registrations, eviction notices.
* :class:`~repro.core.roles.BeaconRole` — the directory side: lookup
  answering with repair, update fan-out, IrH load counters.
* :class:`~repro.core.roles.OriginRole` — the origin side: per-holder
  refresh when no beacon point can coordinate.

There is exactly one implementation of each protocol; fault behaviour
(loss, retries, timeouts, forced deliveries) is a property of the fabric,
toggled by :meth:`attach_faults` / :meth:`detach_faults`, not a second copy
of the code. This class keeps only the stable entry points
(:meth:`handle_request`, :meth:`handle_update`, the cycle and failover
hooks) plus cloud-wide bookkeeping, so ``experiments/``, ``audit/`` and
``benchmarks/`` are insulated from the role decomposition.

Set ``cooperation=False`` in the config for the isolated-caches baseline
(each cache talks only to the origin).
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.core.beacon import BeaconState
from repro.core.config import AssignmentScheme, CloudConfig
from repro.core.consistent import ConsistentHashAssigner
from repro.core.directory import DIRECTORY_ENTRY_BYTES
from repro.core.fabric import MessageFabric
from repro.core.failure import FailureResilienceManager
from repro.core.hashing import (
    DocumentAssigner,
    DynamicHashAssigner,
    StaticHashAssigner,
    irh_value,
    ring_index,
)
from repro.core.node import (
    MINUTES_TO_MS,
    CacheNode,
    RequestOutcome,
    RequestResult,
)
from repro.core.overload import OverloadConfig, OverloadController
from repro.core.ring import BeaconRing
from repro.core.roles import BeaconRole, OriginRole
from repro.edgecache.cache import EdgeCache
from repro.edgecache.stats import CacheStats, RateTable
from repro.edgecache.storage import ResidenceOrder
from repro.faults.injector import FaultInjector
from repro.network.bandwidth import TrafficCategory
from repro.network.origin import OriginServer
from repro.network.transport import CONTROL_MESSAGE_BYTES, Transport
from repro.simulation.engine import Simulator
from repro.simulation.process import PeriodicProcess
from repro.strategies.base import CacheStrategy
from repro.strategies.spec import strategy_for
from repro.workload.documents import Corpus

if TYPE_CHECKING:
    from repro.audit.antientropy import AntiEntropyProcess
    from repro.core.elastic import ElasticConfig, ElasticController
    from repro.observe.flight import FlightRecorder
    from repro.observe.profile import WorkProfile
    from repro.observe.registry import RoleWatch, Telemetry

__all__ = ["CacheCloud", "RequestOutcome", "RequestResult"]


class CacheCloud:
    """One cooperative cache cloud.

    Parameters
    ----------
    config:
        Scheme selection and sizing.
    corpus:
        The document universe (URLs and sizes).
    origin:
        Shared origin server; created internally when omitted.
    transport:
        Byte-accounted wire; a zero-latency one is created when omitted.

    The caching strategy is the one ``config.placement`` names, built by
    :func:`~repro.strategies.spec.strategy_for`.
    """

    def __init__(
        self,
        config: CloudConfig,
        corpus: Corpus,
        origin: Optional[OriginServer] = None,
        transport: Optional[Transport] = None,
    ) -> None:
        self.config = config
        self.corpus = corpus
        self.origin = origin if origin is not None else OriginServer(corpus)
        self.transport = transport if transport is not None else Transport()
        #: The single dispatch seam every protocol message crosses.
        self.fabric = MessageFabric(self.transport)

        #: The cloud's holder-epoch: a one-element cell every cache bumps
        #: when it stops holding documents without telling their beacon
        #: points (a crash or a retirement). Directory
        #: stamps carry the epoch they were set in, so one bump sends every
        #: lookup in the cloud back to verifying its holders once.
        self.holder_epoch: List[int] = [0]
        #: The cloud's residence order: ``(residence key, cache id)`` of
        #: every cache, ascending, uncontended caches first. Each cache's
        #: storage moves its own entry when its residence estimate changes;
        #: a store decision scans it for the least residence among a
        #: document's holders (:meth:`CacheNode._placement_inputs`).
        self.residence_order: ResidenceOrder = []
        # Every document's size, by doc id: the one size column every
        # cache's storage reads a resident copy's size from.
        sizes = array("i", [doc.size_bytes for doc in corpus])
        self.caches: List[EdgeCache] = [
            EdgeCache(
                cache_id=cache_id,
                capacity_bytes=config.capacity_bytes,
                capability=config.capability_of(cache_id),
                holder_epoch=self.holder_epoch,
                residence_order=self.residence_order,
                sizes=sizes,
            )
            for cache_id in range(config.num_caches)
        ]
        self.beacons: Dict[int, BeaconState] = {
            cache_id: BeaconState(cache_id, track_per_irh=config.use_per_irh_load)
            for cache_id in range(config.num_caches)
        }
        # Protocol roles over the data plane above. ``caches``/``beacons``
        # stay the public data surface; the roles hold the message logic.
        self.nodes: List[CacheNode] = [
            CacheNode(self, cache) for cache in self.caches
        ]
        self.beacon_roles: Dict[int, BeaconRole] = {
            cache_id: BeaconRole(self, state)
            for cache_id, state in self.beacons.items()
        }
        self.origin_role = OriginRole(self, self.origin)
        self.assigner = self._build_assigner()
        #: The composed cooperative-caching strategy: every forwarding,
        #: admission, and update-propagation decision flows through it.
        self.strategy: CacheStrategy = strategy_for(config)
        self.failure_manager: Optional[FailureResilienceManager] = None
        if config.failure_resilience:
            if config.assignment is not AssignmentScheme.DYNAMIC:
                raise ValueError(
                    "failure_resilience requires the dynamic assignment scheme"
                )
            self.failure_manager = FailureResilienceManager(self)

        #: Cloud-wide update rate per document (feeds the CMC component),
        #: written by :meth:`note_update`.
        self.update_rates = RateTable()
        # Per-document assignment caches (invalidated on membership change).
        n = len(corpus)
        self._doc_irh: List[Optional[int]] = [None] * n
        self._doc_ring: List[Optional[int]] = [None] * n
        self._doc_hops: List[Optional[int]] = [None] * n
        self._beacon_cache: List[Optional[int]] = [None] * n
        self._beacon_cache_valid = config.assignment is not AssignmentScheme.DYNAMIC
        # Hoisted scheme check: ``beacon_for_doc`` runs on every miss and
        # update, and an ``isinstance`` there is measurable at benchmark
        # request rates.
        self._dynamic_assignment = isinstance(self.assigner, DynamicHashAssigner)

        # Cloud-level counters. The wire-level ones (retries, timeouts,
        # forced deliveries) live on the fabric and are exposed below as
        # read-only properties; the protocol-level ones stay here. All are
        # zero on a perfect network but exist unconditionally so results
        # stay schema-compatible across fault-free and fault-injected runs.
        self.requests_handled = 0
        self.updates_handled = 0
        self.stale_refreshes = 0
        self.directory_repairs = 0
        self.cycles_run = 0
        self._cycle_process: Optional[PeriodicProcess] = None

        #: Redirect requests addressed to a dead cache instead of raising
        #: (enabled by churn scheduling; clients re-home to a live cache).
        self.redirect_on_dead = False
        self.fault_origin_fallbacks = 0
        self.beacon_unreachable = 0
        self.update_pushes_lost = 0
        self.registrations_lost = 0
        self.eviction_notices_lost = 0
        self.requests_redirected = 0

        #: Optional observability registry (``repro.observe``).
        self.telemetry: Optional["Telemetry"] = None
        self._attached_profile: Optional["WorkProfile"] = None

        #: Optional streaming flight recorder (``repro.observe.flight``).
        self.flight: Optional["FlightRecorder"] = None

        #: The one handle every seam reports through — the role seams, the
        #: fabric's attempt plan, the two operation roots — rebuilt by every
        #: attach of the three above; ``None`` while none is attached
        #: keeps the entry points and the fabric fast path as if none existed.
        self.watch: Optional["RoleWatch"] = None

        #: Optional per-node service model (``repro.core.overload``).
        #: ``None`` keeps the fabric fast path enabled and every protocol
        #: hot path on a single attribute check.
        self.overload: Optional[OverloadController] = None

        #: Optional elastic sizing controller (``repro.core.elastic``).
        #: ``None`` means static membership — the cloud is value-identical
        #: to one that never imported the elastic module.
        self.elastic: Optional["ElasticController"] = None

        # Background repair (repro.audit). ``None`` until attached; an
        # attached-but-disabled process is a strict no-op, so fault-free
        # runs stay value-identical either way.
        self.anti_entropy: Optional["AntiEntropyProcess"] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_assigner(self) -> DocumentAssigner:
        config = self.config
        cache_ids = list(range(config.num_caches))
        if config.assignment is AssignmentScheme.STATIC:
            return StaticHashAssigner(cache_ids)
        if config.assignment is AssignmentScheme.CONSISTENT:
            return ConsistentHashAssigner(cache_ids)
        capabilities = {
            cache_id: config.capability_of(cache_id) for cache_id in cache_ids
        }
        rings = [
            BeaconRing(members, config.intra_gen, capabilities)
            for members in config.ring_members()
        ]
        return DynamicHashAssigner(rings, config.intra_gen)

    # ------------------------------------------------------------------
    # Fault middleware (delegates to the fabric)
    # ------------------------------------------------------------------
    def attach_faults(self, injector: FaultInjector) -> None:
        """Route all cloud messaging through ``injector``.

        The injector must wrap this cloud's own transport so byte
        accounting lands on the same meter.
        """
        self.fabric.attach_faults(injector)

    def detach_faults(self) -> None:
        """Restore fault-free messaging (e.g. for post-run quiescing).

        The injector's accumulated statistics survive on the detached
        object; only future messages bypass it.
        """
        self.fabric.detach_faults()

    @property
    def faults(self) -> Optional[FaultInjector]:
        """The attached fault middleware, or ``None``."""
        return self.fabric.faults

    # ------------------------------------------------------------------
    # Observers: telemetry, the work profile, the flight recorder — all
    # resolved into ``cloud.watch`` by :meth:`_rewatch`
    # ------------------------------------------------------------------
    def attach_telemetry(self, telemetry: "Telemetry") -> None:
        """Route request/update spans and fabric histograms into ``telemetry``.

        Mirrors :meth:`attach_faults`: attaching changes what is *recorded*,
        never what the protocols do — same RNG draws, same dispatches, same
        meter totals (tested in ``tests/test_core_fabric.py``).
        """
        self.telemetry = telemetry
        self._rewatch()

    def attach_profile(self, profile: "WorkProfile") -> "WorkProfile":
        """Charge per-role, per-phase work counters into ``profile``.

        Same contract as :meth:`attach_telemetry`: charging draws no
        randomness and dispatches nothing. A bound flight recorder follows:
        the cloud charges one profile, and that is the one it reads.
        """
        self._attached_profile = profile
        self._rewatch()
        return profile

    def attach_flight(self, recorder: "FlightRecorder") -> "FlightRecorder":
        """Stream windowed statistics from this cloud into ``recorder``.

        Binds the recorder (which writes the artifact header), hooks the
        fabric so every wire attempt lands in the open window, and has the
        role seams charge the recorder's own
        :class:`~repro.observe.profile.WorkProfile` (or the recorder read
        the one attached) so per-phase cost deltas appear in the same
        windows. Call :meth:`~repro.observe.flight.FlightRecorder.finish`
        after the run to flush the final window and the summary record.
        """
        recorder.bind(self)
        self.flight = recorder
        self._rewatch()
        return recorder

    @property
    def profile(self) -> Optional["WorkProfile"]:
        """The work profile the role seams charge: the attached one, else the recorder's."""
        return None if self.watch is None else self.watch.profile

    def _rewatch(self) -> None:
        """Rebuild :attr:`watch` after an observer moved and hand it to the
        fabric, which rebuilds its attempt plan from it: the one place the
        observers are resolved. A bound recorder reads the profile charged."""
        from repro.observe.registry import RoleWatch  # registry imports core

        profile, flight = self._attached_profile, self.flight
        if flight is not None:
            if profile is None:
                profile = flight.profile
            elif flight.profile is not profile:
                flight.follow(profile)
        watch = None
        if self.telemetry is not None or profile is not None:
            watch = RoleWatch(
                self.telemetry, profile, flight, self._serve_request, self.deliver_update
            )
        self.watch = self.fabric.watch = watch

    # ------------------------------------------------------------------
    # Overload / service model (delegates to the fabric)
    # ------------------------------------------------------------------
    def attach_overload(self, config: OverloadConfig) -> OverloadController:
        """Install bounded per-node queues and the overload controller.

        Every edge node gains a bounded service queue (the origin is
        exempt — it models a provisioned server farm, and exempting it
        keeps "degrade to origin-direct" a genuine relief valve): wire
        messages accrue queueing delay, full queues reject, and the
        watermark controller sheds cooperative work before client
        requests are turned away. Attaching again returns the controller
        already attached.
        """
        if self.overload is not None:
            return self.overload
        controller = OverloadController(config)
        controller.exempt_node(self.origin.node_id)
        self.overload = controller
        self.fabric.attach_service(controller)
        return controller

    def attach_elastic(
        self,
        config: "ElasticConfig",
        simulator: Optional[Simulator] = None,
    ) -> "ElasticController":
        """Attach (and optionally schedule) load-driven elastic sizing.

        Requires ``failure_resilience=True`` and an already-attached
        overload controller (the scale signals are its statistics). With a
        ``simulator``, the periodic watermark check is armed immediately;
        without one, drive :meth:`ElasticController.check` manually. If
        ``config.initial_caches`` is set, the cloud is resized before any
        traffic. Clients addressed to a retired node re-home to a live one
        (``redirect_on_dead``), exactly as under churn.
        """
        from repro.core.elastic import ElasticController

        if self.elastic is not None:
            return self.elastic
        controller = ElasticController(self, config)
        self.elastic = controller
        self.redirect_on_dead = True
        if simulator is not None:
            controller.start(simulator)
        return controller

    def attach_anti_entropy(
        self, simulator: Optional[Simulator] = None
    ) -> "AntiEntropyProcess":
        """Attach (and optionally schedule) the anti-entropy repair process.

        Returns the :class:`~repro.audit.antientropy.AntiEntropyProcess`.
        With a ``simulator``, the periodic sweep is armed immediately;
        without one, drive repairs manually via ``run_cycle``/``quiesce``.
        """
        from repro.audit.antientropy import AntiEntropyProcess

        if self.anti_entropy is not None:
            return self.anti_entropy
        process = AntiEntropyProcess(self)
        self.anti_entropy = process
        if simulator is not None:
            process.start(simulator)
        return process

    # ------------------------------------------------------------------
    # Document mapping helpers
    # ------------------------------------------------------------------
    def doc_irh(self, doc_id: int) -> int:
        """The document's IrH value (memoized)."""
        cached = self._doc_irh[doc_id]
        if cached is None:
            cached = irh_value(self.corpus[doc_id].url, self.config.intra_gen)
            self._doc_irh[doc_id] = cached
        return cached

    def doc_ring(self, doc_id: int) -> int:
        """The document's beacon-ring index (memoized; dynamic scheme)."""
        cached = self._doc_ring[doc_id]
        if cached is None:
            cached = ring_index(self.corpus[doc_id].url, self.config.num_rings)
            self._doc_ring[doc_id] = cached
        return cached

    def doc_hops(self, doc_id: int) -> int:
        """Lookup discovery hops for the document (memoized).

        Consistent hashing re-derives salted-MD5 hop counts per URL; the
        miss path would otherwise pay that on every group miss.
        """
        cached = self._doc_hops[doc_id]
        if cached is None:
            cached = self.assigner.discovery_hops(self.corpus[doc_id].url)
            self._doc_hops[doc_id] = cached
        return cached

    def beacon_for_doc(self, doc_id: int) -> int:
        """Cache id of the document's current beacon point."""
        if self._beacon_cache_valid:
            cached = self._beacon_cache[doc_id]
            if cached is not None:
                return cached
        if self._dynamic_assignment:
            ring = self.assigner.rings[self.doc_ring(doc_id)]
            beacon = ring.owner_of(self.doc_irh(doc_id))
            return beacon
        beacon = self.assigner.beacon_for(self.corpus[doc_id].url)
        self._beacon_cache[doc_id] = beacon
        return beacon

    def invalidate_assignment_cache(self) -> None:
        """Drop memoized beacon assignments after membership changes."""
        n = len(self.corpus)
        self._beacon_cache = [None] * n
        self._doc_hops = [None] * n

    def routable_beacon(self, doc_id: int) -> Optional[int]:
        """The document's beacon point if one is alive, else ``None``.

        Under the dynamic scheme a managed failover re-homes the range, so
        the assigner already answers with the live absorber. Static and
        consistent hashing have no failover; a memoized answer may also be
        stale, so drop it and recompute once before giving up.
        """
        beacon_id = self.beacon_for_doc(doc_id)
        if self.caches[beacon_id].alive:
            return beacon_id
        if self._beacon_cache_valid and self._beacon_cache[doc_id] is not None:
            self._beacon_cache[doc_id] = None
            beacon_id = self.beacon_for_doc(doc_id)
            if self.caches[beacon_id].alive:
                return beacon_id
        return None

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def handle_request(self, cache_id: int, doc_id: int, now: float) -> RequestResult:
        """Process one client request arriving at ``cache_id``."""
        watch = self.watch
        if watch is None:
            return self._serve_request(cache_id, doc_id, now)
        return watch.request(cache_id, doc_id, now)

    def _serve_request(
        self, cache_id: int, doc_id: int, now: float
    ) -> RequestResult:
        cache = self.caches[cache_id]
        if not cache.alive:
            if not self.redirect_on_dead:
                raise RuntimeError(f"request routed to failed cache {cache_id}")
            cache_id = self._redirect_target(cache_id)
            cache = self.caches[cache_id]
            self.requests_redirected += 1
        ingress_delay_ms = 0.0
        overload = self.overload
        if overload is not None:
            # Admission control at the ingress cache: the client arrival
            # itself occupies the cache's service queue. A full queue turns
            # the client away before any protocol work happens — the cache's
            # own request/frequency counters are untouched because the
            # request was never served.
            if now > overload.now:  # ``overload.advance``, in place
                overload.now = now
            ingress_delay = overload.admit_request(cache_id)
            if ingress_delay is None:
                self.requests_handled += 1
                return RequestResult(RequestOutcome.REJECTED, 0.0, cache_id)
            ingress_delay_ms = ingress_delay * MINUTES_TO_MS
        self.requests_handled += 1
        # Inlined EdgeCache.observe_request / serve_local: the local-hit
        # path runs at the full request rate, so the facade hops (and the
        # storage-dict lookup inside ``storage.access``) are flattened
        # here, reading only the copy's version slot. Counter and recency
        # semantics are identical.
        cache.stats.requests += 1
        cache.frequencies.observe(doc_id, now)
        current_version = self.origin.version_of(doc_id)

        storage = cache.storage
        held = storage.versions[doc_id]
        if held >= current_version:  # versions start at 0: a copy is resident
            storage.policy.on_access(doc_id, now)
            cache.stats.local_hits += 1
            # A local hit has zero latency, so the latency accumulator
            # is untouched — skip the record call on the hottest path.
            # Under overload the ingress queue wait still counts.
            if ingress_delay_ms > 0.0:
                cache.stats.record_latency(ingress_delay_ms)
            return RequestResult(
                RequestOutcome.LOCAL_HIT, ingress_delay_ms, cache_id
            )
        if held >= 0:
            # Stale copy (possible after failures drop directory state):
            # discard and fall through to the miss path.
            cache.drop(doc_id, now)
            self.nodes[cache_id].notify_eviction(doc_id)
            self.stale_refreshes += 1
        node = self.nodes[cache_id]

        if not self.config.cooperation:
            result = node.fetch_direct(doc_id, now)
        else:
            result = node.serve_miss(doc_id, now)
        result.latency_ms += ingress_delay_ms
        cache.stats.record_latency(result.latency_ms)
        return result

    def _redirect_target(self, cache_id: int) -> int:
        """Deterministic live stand-in for a down cache.

        With a topology, clients re-home to the nearest live cache; without
        one, to the next live id in ring order.
        """
        if self.transport.topology is not None:
            live = [c.cache_id for c in self.caches if c.alive]
            if not live:
                raise RuntimeError("no live cache to redirect to")
            latency = self.transport.latencies_from(cache_id)
            return min(live, key=lambda c: (latency[c], c))
        n = len(self.caches)
        for offset in range(1, n):
            candidate = (cache_id + offset) % n
            if self.caches[candidate].alive:
                return candidate
        raise RuntimeError("no live cache to redirect to")

    # ------------------------------------------------------------------
    # Update path
    # ------------------------------------------------------------------
    def handle_update(self, doc_id: int, now: float) -> int:
        """Process one origin-server update; returns holders refreshed."""
        version = self.origin.publish_update(doc_id)
        watch = self.watch
        if watch is None:
            return self.deliver_update(doc_id, version, now)
        return watch.update(doc_id, version, now)

    def note_update(self, doc_id: int, now: float) -> None:
        """Record an origin update of ``doc_id`` at ``now``: one event for
        its update rate."""
        self.update_rates.observe(doc_id, now)

    def deliver_update(self, doc_id: int, version: int, now: float) -> int:
        """Carry the published ``version`` of ``doc_id`` to this cloud's
        holders; returns how many now store it.

        The one update body under both roots: :meth:`handle_update`, which
        publishes for a cloud on its own, and
        :meth:`~repro.core.edgenetwork.EdgeCacheNetwork.handle_update`,
        which publishes once for every cloud it feeds.
        """
        self.updates_handled += 1
        overload = self.overload
        if overload is not None and now > overload.now:
            overload.now = now  # ``overload.advance``, in place
        self.note_update(doc_id, now)
        size = self.corpus[doc_id].size_bytes

        if not self.config.cooperation:
            return self.origin_role.refresh_holders(doc_id, version, size, now)

        beacon_id = self.routable_beacon(doc_id)
        if beacon_id is None:
            # Dead beacon with no failover: the origin must refresh every
            # holder individually, exactly like the no-cooperation baseline.
            self.beacon_unreachable += 1
            return self.origin_role.refresh_holders(doc_id, version, size, now)
        # Propagation is the strategy's third hook: the default answers
        # with the beacon's star fan-out, CUP-style strategies push along
        # an interest tree rooted at the same beacon.
        return self.strategy.on_update(
            self.beacon_roles[beacon_id], doc_id, version, size, now
        )

    # ------------------------------------------------------------------
    # Sub-range determination cycles
    # ------------------------------------------------------------------
    def run_cycle(self, now: float) -> None:
        """Run one sub-range determination cycle on every beacon ring."""
        self.cycles_run += 1
        if not isinstance(self.assigner, DynamicHashAssigner):
            # Static/consistent schemes have no cycle; counters still reset
            # so per-cycle load reporting stays comparable.
            for beacon in self.beacons.values():
                beacon.reset_cycle()
            return
        for ring in self.assigner.rings:
            loads: Dict[int, float] = {}
            per_irh: Dict[int, float] = {}
            for member in ring.members:
                load, member_per_irh = self.beacons[member].cycle_snapshot()
                loads[member] = load
                if member_per_irh:
                    for irh, value in member_per_irh.items():
                        per_irh[irh] = per_irh.get(irh, 0.0) + value
            result = ring.rebalance(
                loads, per_irh if self.config.use_per_irh_load else None
            )
            for member in ring.members:
                self.beacons[member].reset_cycle()
            if not result.changed:
                continue
            # Announce the new assignment to every cache and the origin.
            # System-plane traffic: accounted and logged by the fabric but
            # not subject to the fault middleware (see fabric docs). All
            # announcements go out at the same tick, so the fan-out batches
            # into one meter transaction on the fast path.
            coordinator = ring.members[0]
            legs = [
                (coordinator, cache.cache_id, CONTROL_MESSAGE_BYTES)
                for cache in self.caches
                if cache.cache_id != coordinator and cache.alive
            ]
            legs.append((coordinator, self.origin.node_id, CONTROL_MESSAGE_BYTES))
            self.fabric.send_system_batch(legs, TrafficCategory.CONTROL)
            # Migrate lookup records for the moved IrH spans.
            for lo, hi, src, dst in result.moves:
                self.hand_over(src, dst, self.beacons[src].directory.extract_range(lo, hi))
        if self.failure_manager is not None:
            self.failure_manager.sync(now)

    def hand_over(
        self, src: int, dst: int, entries: List[Tuple[int, int, Set[int]]]
    ) -> None:
        """Move directory entries to their new owner ``dst``.

        The one hand-over body — a cycle's range moves, a join's pull and a
        retirement's hand-off all end here: install, count at the receiver,
        one ``DIRECTORY_MIGRATION`` system send of ``max(256, n·96)`` bytes
        for ``n`` entries (a control message carries an empty one).
        """
        receiver = self.beacons[dst]
        receiver.directory.ingest(entries)
        receiver.directory_entries_migrated += len(entries)
        num_bytes = max(CONTROL_MESSAGE_BYTES, len(entries) * DIRECTORY_ENTRY_BYTES)
        self.fabric.send_system(
            src, dst, num_bytes, TrafficCategory.DIRECTORY_MIGRATION
        )

    def attach_cycles(self, simulator: Simulator) -> PeriodicProcess:
        """Arm the periodic sub-range determination on ``simulator``."""
        if self._cycle_process is not None:
            return self._cycle_process
        self._cycle_process = PeriodicProcess(
            simulator,
            self.config.cycle_length,
            self.run_cycle,
            label="sub-range-determination",
        )
        self._cycle_process.start()
        return self._cycle_process

    # ------------------------------------------------------------------
    # Failure injection (delegates)
    # ------------------------------------------------------------------
    def fail_cache(self, cache_id: int, now: float) -> int:
        """Crash a cache; requires ``failure_resilience=True``."""
        if self.failure_manager is None:
            raise RuntimeError("failure injection requires failure_resilience=True")
        return self.failure_manager.fail_cache(cache_id, now)

    def recover_cache(self, cache_id: int, now: float) -> None:
        """Recover a previously failed cache."""
        if self.failure_manager is None:
            raise RuntimeError("failure injection requires failure_resilience=True")
        self.failure_manager.recover_cache(cache_id, now)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def beacon_loads(self) -> Dict[int, float]:
        """Cumulative lookup+update load handled per beacon point."""
        return {
            cache_id: beacon.total_load for cache_id, beacon in self.beacons.items()
        }

    def reset_beacon_totals(self) -> None:
        """Reset cumulative beacon counters (end of warm-up)."""
        for beacon in self.beacons.values():
            beacon.reset_totals()

    def docs_stored_fraction(self) -> float:
        """Mean over caches of (resident documents / corpus size)."""
        total = sum(len(cache.storage) for cache in self.caches)
        return total / (len(self.caches) * len(self.corpus))

    def resilience_summary(self) -> Dict[str, float]:
        """Flat fault/failure counter summary (all zero on a perfect run)."""
        fabric = self.fabric.stats
        summary = {
            "retries": float(fabric.retries),
            "timeouts": float(fabric.timeouts),
            "fault_origin_fallbacks": float(self.fault_origin_fallbacks),
            "forced_deliveries": float(fabric.forced_deliveries),
            "beacon_unreachable": float(self.beacon_unreachable),
            "update_pushes_lost": float(self.update_pushes_lost),
            "registrations_lost": float(self.registrations_lost),
            "eviction_notices_lost": float(self.eviction_notices_lost),
            "requests_redirected": float(self.requests_redirected),
            "stale_refreshes": float(self.stale_refreshes),
            "directory_repairs": float(self.directory_repairs),
        }
        if self.faults is not None and self.faults.plan.enabled:
            summary.update(self.faults.stats.as_dict())
        if self.overload is not None and self.overload.engaged:
            summary.update(self.overload.stats.as_dict())
        if self.anti_entropy is not None:
            summary.update(self.anti_entropy.stats.as_dict())
        if self.elastic is not None:
            summary.update(self.elastic.stats.as_dict())
        if self.failure_manager is not None:
            summary["failovers"] = float(self.failure_manager.failovers)
            summary["recoveries"] = float(self.failure_manager.recoveries)
        return summary

    def aggregate_stats(self) -> CacheStats:
        """Sum of all per-cache counters."""
        total = CacheStats()
        for cache in self.caches:
            total.merge(cache.stats)
        return total

    def holders_of(self, doc_id: int) -> Set[int]:
        """Ground truth: caches whose storage currently contains ``doc_id``."""
        return {
            cache.cache_id
            for cache in self.caches
            if cache.alive and cache.holds(doc_id)
        }

    def __repr__(self) -> str:
        return (
            f"CacheCloud(caches={len(self.caches)}, "
            f"assignment={self.config.assignment.value}, "
            f"placement={self.config.placement.value}, "
            f"requests={self.requests_handled}, updates={self.updates_handled})"
        )

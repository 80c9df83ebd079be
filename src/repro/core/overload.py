"""Bounded node queues, admission control, and graceful degradation.

The paper's protocols assume every cooperative hop — beacon lookup, peer
transfer, update fan-out — is served the instant it arrives: the
:class:`~repro.network.transport.Transport` models latency and loss but no
*contention*, so a flash crowd can never overload a node. This module adds
the missing service dimension behind the
:class:`~repro.core.fabric.MessageFabric` seam:

* :class:`OverloadConfig` — the icarus-shaped scenario knobs: a bounded
  per-node queue (``queue_capacity``), per-message service costs
  (``service_ms`` / ``service_ms_per_kb``), and the shed watermarks.
* :class:`NodeQueue` — one node's FIFO service queue: a deterministic
  single-server model whose backlog drains at simulated time, so queueing
  delay accrues into :class:`~repro.core.fabric.Delivery` latency and a
  full queue *rejects* the message (the fabric treats a rejection exactly
  like a loss, so the existing retry/backoff ladder applies).
* :class:`OverloadController` — the per-cloud policy object the fabric and
  the protocol roles consult: it owns one queue per node, tracks
  queue-depth watermarks with hysteresis, and decides when a node should
  *shed cooperative work* (beacon lookups and peer fetches degrade to
  origin-direct, update fan-out legs defer) before client requests are
  rejected outright.

Time model
----------
The controller keeps one monotonic clock, advanced by the cloud at the
start of every request/update (:meth:`OverloadController.advance`). All
messages of one protocol exchange are admitted at that instant — wire
latency within the exchange is not re-applied to the queue model — which
keeps the service model deterministic and free of new RNG draws. Backlog
is a consequence of *arrival density*: when requests arrive faster than a
node's service rate, its ``busy_until`` horizon outruns the clock, depth
grows, and the watermark/rejection machinery engages.

Exemptions
----------
The origin server is exempt from queueing (see
:meth:`OverloadController.exempt_node`): it models a provisioned server
farm, not an edge node, and exempting it keeps "degrade to origin-direct"
a genuine relief valve — the question this model answers is whether
*cooperation inside the cloud* helps or amplifies congestion under
saturation, not whether the origin itself melts. System-plane traffic and
forced out-of-band deliveries bypass the queues at the fabric layer for
the same reason they bypass the fault middleware: they carry their own
robustness story (see the fabric module docs).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Set, Tuple

from repro.faults.plan import RetryPolicy

__all__ = [
    "NodeQueue",
    "OverloadConfig",
    "OverloadController",
    "OverloadStats",
    "ZERO_COST_OVERLOAD",
]

#: Simulated minutes per millisecond (service costs are configured in ms).
_MS_TO_MINUTES = 1.0 / 60_000.0


@dataclass(frozen=True)
class OverloadConfig:
    """Per-node service model and degradation policy (frozen, picklable).

    Parameters
    ----------
    queue_capacity:
        Maximum backlog per node. An arrival finding ``queue_capacity``
        messages pending is rejected; ``0`` rejects everything (a node
        with no queue at all).
    service_ms:
        Service time per message (and per client request), milliseconds of
        simulated time.
    service_ms_per_kb:
        Size-proportional service component per KiB of message body.
    shed_highwater / shed_lowwater:
        Queue-depth watermarks with hysteresis: a node starts shedding
        cooperative work when its depth reaches ``shed_highwater`` and
        stops once it drains back to ``shed_lowwater``. Equal watermarks
        are legal but degenerate: the node flaps between shedding and
        serving on consecutive checks (pinned by a regression test).
    retry:
        Optional sender-side retry ladder applied to *reliable* dispatches
        when no :class:`~repro.faults.injector.FaultInjector` is attached;
        with an injector, the injector's plan wins. ``None`` means a
        rejected reliable dispatch fails on its single attempt.
    """

    queue_capacity: int = 10
    service_ms: float = 0.0
    service_ms_per_kb: float = 0.0
    shed_highwater: int = 8
    shed_lowwater: int = 4
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        if self.queue_capacity < 0:
            raise ValueError(
                f"queue_capacity must be >= 0, got {self.queue_capacity}"
            )
        if self.service_ms < 0:
            raise ValueError("service_ms must be >= 0")
        if self.service_ms_per_kb < 0:
            raise ValueError("service_ms_per_kb must be >= 0")
        if self.shed_lowwater < 0:
            raise ValueError("shed_lowwater must be >= 0")
        if self.shed_highwater < self.shed_lowwater:
            raise ValueError(
                "shed_highwater must be >= shed_lowwater, got "
                f"{self.shed_highwater} < {self.shed_lowwater}"
            )

    def service_minutes(self, num_bytes: int) -> float:
        """Service time for one message, in simulated minutes."""
        cost_ms = self.service_ms
        if self.service_ms_per_kb:
            cost_ms += self.service_ms_per_kb * (num_bytes / 1024.0)
        return cost_ms * _MS_TO_MINUTES


#: A structurally attached but physically free service model: unbounded
#: queue, zero service time, watermarks never reached. Runs with this
#: config are value-identical to runs with no controller at all (pinned
#: against the golden figure fingerprints) — the overload analogue of the
#: fault layer's ``NO_FAULTS`` pass-through promise.
ZERO_COST_OVERLOAD = OverloadConfig(
    queue_capacity=1_000_000_000,
    service_ms=0.0,
    service_ms_per_kb=0.0,
    shed_highwater=1_000_000_000,
    shed_lowwater=0,
)


@dataclass
class OverloadStats:
    """Cumulative admission/shedding counters for one controller."""

    messages_enqueued: int = 0
    messages_rejected: int = 0
    requests_admitted: int = 0
    requests_rejected: int = 0
    lookups_shed: int = 0
    peer_fetches_shed: int = 0
    fanout_deferred: int = 0
    shed_entries: int = 0
    shed_exits: int = 0
    queue_delay_minutes: float = 0.0
    #: Depth-at-arrival accumulator: mean = ``queue_depth_sum / samples``
    #: (the icarus ``AVERAGE_QUEUE_SIZE`` statistic, sampled at arrivals).
    queue_depth_sum: int = 0
    queue_depth_samples: int = 0

    def reset(self) -> None:
        """Zero every counter (measurement-window resets)."""
        self.messages_enqueued = 0
        self.messages_rejected = 0
        self.requests_admitted = 0
        self.requests_rejected = 0
        self.lookups_shed = 0
        self.peer_fetches_shed = 0
        self.fanout_deferred = 0
        self.shed_entries = 0
        self.shed_exits = 0
        self.queue_delay_minutes = 0.0
        self.queue_depth_sum = 0
        self.queue_depth_samples = 0

    @property
    def shed_total(self) -> int:
        """Cooperative work items shed or deferred."""
        return self.lookups_shed + self.peer_fetches_shed + self.fanout_deferred

    @property
    def avg_queue_depth(self) -> float:
        """Mean queue depth observed at message arrivals."""
        if not self.queue_depth_samples:
            return 0.0
        return self.queue_depth_sum / self.queue_depth_samples

    def window_counters(self) -> Dict[str, float]:
        """The cumulative counters the flight recorder's per-window
        ``overload`` record (rejection and shed counts, mean depth) is made of."""
        return {
            "admitted": float(self.requests_admitted),
            "rejected": float(self.requests_rejected),
            "shed": float(self.shed_total),
            "depth_sum": float(self.queue_depth_sum),
            "depth_samples": float(self.queue_depth_samples),
        }

    def as_dict(self) -> Dict[str, float]:
        """Flat ``overload_*`` summary for resilience reporting."""
        return {
            "overload_messages_enqueued": float(self.messages_enqueued),
            "overload_messages_rejected": float(self.messages_rejected),
            "overload_requests_admitted": float(self.requests_admitted),
            "overload_requests_rejected": float(self.requests_rejected),
            "overload_lookups_shed": float(self.lookups_shed),
            "overload_peer_fetches_shed": float(self.peer_fetches_shed),
            "overload_fanout_deferred": float(self.fanout_deferred),
            "overload_shed_entries": float(self.shed_entries),
            "overload_shed_exits": float(self.shed_exits),
            "overload_queue_delay_minutes": self.queue_delay_minutes,
            "overload_avg_queue_depth": self.avg_queue_depth,
        }


class NodeQueue:
    """One node's FIFO service queue (deterministic single server).

    The queue is a horizon, not a data structure of messages: ``admit``
    places the arrival behind everything already pending (``busy_until``)
    and returns how long the sender-perceived delivery is delayed —
    waiting time plus the message's own service time. Completion times are
    retained so ``drain`` can evaporate finished work as the simulated
    clock advances.
    """

    __slots__ = ("capacity", "busy_until", "_completions")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.busy_until = 0.0
        self._completions: Deque[float] = deque()

    def drain(self, now: float) -> None:
        """Evaporate work whose service completed at or before ``now``."""
        completions = self._completions
        while completions and completions[0] <= now:
            completions.popleft()

    def depth(self) -> int:
        """Messages pending (waiting or in service) as of the last drain."""
        return len(self._completions)

    def admit(self, now: float, service_minutes: float) -> Optional[float]:
        """Admit one arrival; returns its total delay or ``None`` if full.

        ``capacity=0`` rejects every arrival.
        """
        return self.arrive(now, service_minutes)[1]

    def arrive(self, now: float, service_minutes: float) -> Tuple[int, Optional[float]]:
        """:meth:`drain`, sample :meth:`depth`, admit — in one touch.

        Returns ``(backlog found on arrival, delay or None)``.
        """
        completions = self._completions
        while completions and completions[0] <= now:
            completions.popleft()
        depth = len(completions)
        if depth >= self.capacity:
            return depth, None
        start = self.busy_until if self.busy_until > now else now
        completion = start + service_minutes
        self.busy_until = completion
        completions.append(completion)
        return depth, completion - now

    def __repr__(self) -> str:
        return (
            f"NodeQueue(capacity={self.capacity}, depth={self.depth()}, "
            f"busy_until={self.busy_until:.4f})"
        )


class OverloadController:
    """Per-cloud admission control and graceful-degradation policy.

    One instance is attached to a cloud's fabric
    (:meth:`~repro.core.fabric.MessageFabric.attach_service`); the fabric
    consults :meth:`admit_message` on every delivered wire attempt, the
    cloud consults :meth:`admit_request` at client ingress, and the
    protocol roles consult the ``shed_*`` / ``defer_*`` predicates before
    dispatching cooperative work. Everything is deterministic: no RNG, one
    monotonic clock, FIFO queues.
    """

    def __init__(self, config: OverloadConfig) -> None:
        self.config = config
        self.stats = OverloadStats()
        self.now = 0.0
        self._queues: Dict[int, NodeQueue] = {}
        self._shedding: Set[int] = set()
        self._exempt: Set[int] = set()
        self._request_minutes = config.service_minutes(0)

    # ------------------------------------------------------------------
    # Clock and topology
    # ------------------------------------------------------------------
    def advance(self, now: float) -> None:
        """Move the service clock forward (never backward)."""
        if now > self.now:
            self.now = now

    def exempt_node(self, node_id: int) -> None:
        """Exclude ``node_id`` from queueing and shedding (the origin)."""
        self._exempt.add(node_id)
        self._queues.pop(node_id, None)
        self._shedding.discard(node_id)

    def reset_node(self, node_id: int) -> None:
        """Forget ``node_id``'s queue state (crash recovery / retirement).

        A node's backlog is in-memory state: it dies with the process. A
        node that failed and came back — or was voluntarily retired and
        later re-instantiated — must therefore start with an empty queue;
        without this, the revived node would inherit a ``busy_until``
        horizon frozen at crash time and serve ghost backlog it no longer
        has. Leaving the shedding state counts as a shed exit so the
        entry/exit counters stay paired.
        """
        self._queues.pop(node_id, None)
        if node_id in self._shedding:
            self._shedding.discard(node_id)
            self.stats.shed_exits += 1

    def queue_for(self, node_id: int) -> NodeQueue:
        """Fetch-or-create the node's queue (drained to the clock)."""
        queue = self._queues.get(node_id)
        if queue is None:
            queue = NodeQueue(self.config.queue_capacity)
            self._queues[node_id] = queue
        queue.drain(self.now)
        return queue

    def depth_of(self, node_id: int) -> int:
        """Current backlog of ``node_id`` (0 for exempt nodes)."""
        if node_id in self._exempt:
            return 0
        return self.queue_for(node_id).depth()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit_message(
        self, dst: int, category: str, num_bytes: int
    ) -> Optional[float]:
        """Admit one delivered wire message at its destination's queue.

        Returns the queueing delay in simulated minutes (wait + service),
        or ``None`` when the destination's queue is full — the fabric then
        treats the attempt as lost, so reliable dispatches retry under the
        active ladder and best-effort dispatches simply fail.
        """
        return self.admit_wire(dst, category, num_bytes)[0]

    def admit_wire(
        self, dst: int, category: str, num_bytes: int
    ) -> Tuple[Optional[float], int]:
        """:meth:`admit_message` plus the backlog the admission leaves: what
        :meth:`depth_of` would answer next (the fabric's ``queue_depth``
        gauge), read off the same queue touch; 0 with a rejection."""
        if dst in self._exempt:
            return 0.0, 0
        config = self.config
        cost_ms = config.service_ms
        if config.service_ms_per_kb:
            cost_ms += config.service_ms_per_kb * (num_bytes / 1024.0)
        # ``NodeQueue.arrive``, in place: this runs once per wire attempt.
        now = self.now
        queue = self._queues.get(dst) or self.queue_for(dst)
        completions = queue._completions
        while completions and completions[0] <= now:
            completions.popleft()
        depth = len(completions)
        stats = self.stats
        stats.queue_depth_sum += depth
        stats.queue_depth_samples += 1
        if depth >= queue.capacity:
            stats.messages_rejected += 1
            return None, 0
        start = queue.busy_until if queue.busy_until > now else now
        completion = start + cost_ms * _MS_TO_MINUTES
        queue.busy_until = completion
        completions.append(completion)
        delay = completion - now
        stats.messages_enqueued += 1
        stats.queue_delay_minutes += delay
        # Zero delay: a free message on an idle server, done at ``now``.
        return delay, depth + 1 if delay > 0.0 else 0

    def admit_request(self, cache_id: int) -> Optional[float]:
        """Admit one client request at its ingress cache.

        Returns the ingress queueing delay in minutes, or ``None`` when
        the cache turns the client away (``REJECTED`` outcome). Client
        arrivals are counted separately from wire messages — they are the
        icarus ``PERCENTAGE_OF_REJECTION`` numerator/denominator.
        """
        stats = self.stats
        if cache_id in self._exempt:
            stats.requests_admitted += 1
            return 0.0
        # ``NodeQueue.arrive``, in place, as in :meth:`admit_wire`.
        now = self.now
        queue = self._queues.get(cache_id) or self.queue_for(cache_id)
        completions = queue._completions
        while completions and completions[0] <= now:
            completions.popleft()
        depth = len(completions)
        stats.queue_depth_sum += depth
        stats.queue_depth_samples += 1
        if depth >= queue.capacity:
            stats.requests_rejected += 1
            return None
        start = queue.busy_until if queue.busy_until > now else now
        completion = start + self._request_minutes
        queue.busy_until = completion
        completions.append(completion)
        delay = completion - now
        stats.requests_admitted += 1
        stats.queue_delay_minutes += delay
        return delay

    # ------------------------------------------------------------------
    # Graceful degradation (watermarks with hysteresis)
    # ------------------------------------------------------------------
    def _update_shed_state(self, node_id: int) -> bool:
        """Recompute and return the node's shedding state."""
        if node_id in self._exempt:
            return False
        # ``queue_for(node_id).depth()``, in place: asked before every
        # lookup, peer fetch and fan-out leg.
        queue = self._queues.get(node_id) or self.queue_for(node_id)
        completions = queue._completions
        now = self.now
        while completions and completions[0] <= now:
            completions.popleft()
        depth = len(completions)
        if node_id in self._shedding:
            if depth <= self.config.shed_lowwater:
                self._shedding.discard(node_id)
                self.stats.shed_exits += 1
                return False
            return True
        if depth >= self.config.shed_highwater:
            self._shedding.add(node_id)
            self.stats.shed_entries += 1
            return True
        return False

    def shed_lookup(self, beacon_id: int) -> bool:
        """Should the requester skip this beacon's lookup (origin-direct)?"""
        if self._update_shed_state(beacon_id):
            self.stats.lookups_shed += 1
            return True
        return False

    def shed_peer_fetch(self, holder_id: int) -> bool:
        """Should the requester skip this holder (fetch from origin)?"""
        if self._update_shed_state(holder_id):
            self.stats.peer_fetches_shed += 1
            return True
        return False

    def defer_fanout(self, holder_id: int) -> bool:
        """Should the beacon defer this holder's update push?

        A deferred leg is dropped, like a *lost* push: the holder serves its
        stale copy (``stale_serves``) until a later update or anti-entropy
        refreshes it; nothing queues the leg for later (ROADMAP item 4).
        """
        if self._update_shed_state(holder_id):
            self.stats.fanout_deferred += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def engaged(self) -> bool:
        """Whether the service model ever altered observable behaviour.

        False for a structurally attached but physically free controller
        (:data:`ZERO_COST_OVERLOAD`): nothing rejected, nothing shed, zero
        accrued delay. Results gate their overload summaries on this so
        zero-cost runs stay schema- and fingerprint-identical to runs with
        no controller at all.
        """
        stats = self.stats
        return bool(
            stats.messages_rejected
            or stats.requests_rejected
            or stats.shed_total
            or stats.shed_entries
            or stats.queue_delay_minutes > 0.0
        )

    def __repr__(self) -> str:
        return (
            f"OverloadController(capacity={self.config.queue_capacity}, "
            f"queues={len(self._queues)}, shedding={len(self._shedding)}, "
            f"engaged={self.engaged})"
        )

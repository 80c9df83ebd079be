"""Elastic cloud sizing: load-driven node instantiation and retirement.

The paper evaluates cache clouds with *static* membership, yet its Sydney
workload is diurnal with flash crowds — exactly the regime where a fixed
size cloud is either over-provisioned (paying for idle nodes all night) or
melting down (rejecting clients at the daily peak). Carlsson & Eager's
dynamic cache instantiation work (PAPERS.md) argues the right response to
time-varying volume is to *change capacity*; this module adds that control
loop on top of the overload signals from :mod:`repro.core.overload`:

* :class:`ElasticConfig` — watermarks over the windowed overload signals
  (mean queue depth, rejection rate) with hysteresis and a cooldown, plus
  cloud-size bounds and the drain byte budget.
* :class:`ElasticController` — the policy object attached via
  :meth:`~repro.core.cloud.CacheCloud.attach_elastic`. Once per check
  period it evaluates the sliding-window signals and drives deterministic
  membership changes:

  **Warm join** (scale-out): the lowest-id standby node re-enters its home
  ring (:meth:`FailureResilienceManager.instantiate_cache` — the join body
  and directory pull crash recovery uses), so the node owns
  its sub-range *and* holds its lookup entries before the next request
  arrives. Its service queue starts empty.

  **Safe drain** (scale-in): the victim stops taking traffic and hands off
  every resident document to the new sub-range owners under a byte budget
  — the document body rides the system plane, the receiving holder is
  registered at the document's beacon point — and anything that cannot be
  handed off (stale, unfitting, or over budget) is *explicitly
  invalidated*: the beacon point is notified and the notice is charged.
  Documents are never silently lost on a voluntary scale-in; the
  ``repro.audit`` invariant auditor pins this. Then
  :meth:`FailureResilienceManager.retire_cache` migrates the live
  directory to the ring successor and removes the member.

Who is a member, who is crashed and who is a standby (retired) is the
failure manager's record, not the controller's: a crashed node is not a
standby and comes back through churn's ``recover``, never through here.

Determinism: no RNG anywhere — node choice is by id (lowest standby joins,
highest eligible active node retires), the signal window is driven by the
simulated clock, and every byte moved is metered. A cloud without an
attached controller is value-identical to one that never imported this
module.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

from repro.faults.churn import INSTANTIATE, RETIRE, ChurnEvent
from repro.network.bandwidth import TrafficCategory
from repro.network.transport import CONTROL_MESSAGE_BYTES, TRANSFER_HEADER_BYTES
from repro.simulation.engine import Simulator
from repro.simulation.events import EventPriority
from repro.simulation.process import PeriodicProcess

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cloud import CacheCloud

__all__ = ["ElasticConfig", "ElasticController", "ElasticStats"]

#: One cumulative overload snapshot: (queue_depth_sum, queue_depth_samples,
#: requests_admitted, requests_rejected).
_Snapshot = Tuple[int, int, int, int]

#: Hook signature shared with :class:`~repro.faults.churn.ChurnSchedule`.
ScaleHook = Callable[["CacheCloud", ChurnEvent, bool, float], None]


@dataclass(frozen=True)
class ElasticConfig:
    """Autoscaling policy knobs (frozen, picklable).

    Parameters
    ----------
    min_caches / max_caches:
        Cloud-size bounds for watermark-driven decisions. ``max_caches``
        ``None`` means every configured cache. The bounds do not override
        ring safety: a node that is the last live member of its beacon
        ring is never retired, even above ``min_caches``.
    initial_caches:
        Size to establish at attach time (standbys are retired highest-id
        first, before any traffic). ``None`` keeps the configured size —
        the static over-provisioned arm is exactly a controller whose
        ``min == max == num_caches``.
    scale_out_depth / scale_in_depth:
        Watermarks over the windowed mean queue depth (the icarus
        ``AVERAGE_QUEUE_SIZE`` signal). Scale-in additionally requires the
        scale-out condition to be *false*, so equal watermarks cannot flap
        membership on a steady signal (mirrors the overload model's
        equal-shed-watermark contract).
    scale_out_rejection:
        Secondary OR-trigger: a windowed client rejection rate at or above
        this also scales out. Any rejection in the window vetoes scale-in.
    window_minutes:
        Length of the sliding signal window.
    check_period_minutes:
        How often the controller evaluates (and how often the node-minute
        integral advances).
    cooldown_minutes:
        Minimum simulated time between consecutive membership changes;
        ``0`` re-evaluates every check.
    drain_byte_budget:
        Document-body bytes a single drain may ship. Copies beyond the
        budget are explicitly invalidated (notice charged), never lost.
    """

    min_caches: int = 1
    max_caches: Optional[int] = None
    initial_caches: Optional[int] = None
    scale_out_depth: float = 4.0
    scale_in_depth: float = 1.0
    scale_out_rejection: float = 0.05
    window_minutes: float = 5.0
    check_period_minutes: float = 1.0
    cooldown_minutes: float = 3.0
    drain_byte_budget: int = 8 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.min_caches < 1:
            raise ValueError(f"min_caches must be >= 1, got {self.min_caches}")
        if self.max_caches is not None and self.max_caches < self.min_caches:
            raise ValueError(
                f"max_caches {self.max_caches} < min_caches {self.min_caches}"
            )
        if self.initial_caches is not None:
            lo = self.min_caches
            hi = self.max_caches if self.max_caches is not None else None
            if self.initial_caches < lo or (
                hi is not None and self.initial_caches > hi
            ):
                raise ValueError(
                    f"initial_caches {self.initial_caches} outside "
                    f"[{lo}, {hi if hi is not None else 'num_caches'}]"
                )
        if self.scale_out_depth < 0 or self.scale_in_depth < 0:
            raise ValueError("depth watermarks must be >= 0")
        if self.scale_in_depth > self.scale_out_depth:
            raise ValueError(
                "scale_in_depth must be <= scale_out_depth, got "
                f"{self.scale_in_depth} > {self.scale_out_depth}"
            )
        if not 0.0 <= self.scale_out_rejection <= 1.0:
            raise ValueError("scale_out_rejection must be in [0, 1]")
        if self.window_minutes <= 0:
            raise ValueError("window_minutes must be > 0")
        if self.check_period_minutes <= 0:
            raise ValueError("check_period_minutes must be > 0")
        if self.cooldown_minutes < 0:
            raise ValueError("cooldown_minutes must be >= 0")
        if self.drain_byte_budget < 0:
            raise ValueError("drain_byte_budget must be >= 0")


@dataclass
class ElasticStats:
    """Cumulative controller counters."""

    scale_out_events: int = 0
    scale_in_events: int = 0
    #: Bytes the drain protocol sent: document bodies (with transfer
    #: headers) plus registration/invalidation control notices. The
    #: retirement's directory migration is metered separately (it shares
    #: the ``DIRECTORY_MIGRATION`` accounting with crash failover).
    drain_bytes: int = 0
    docs_handed_off: int = 0
    docs_invalidated: int = 0
    #: Watermark evaluations performed (one per check with enough window).
    evaluations: int = 0
    blocked_cooldown: int = 0
    blocked_bounds: int = 0
    #: Integral of the live cloud size over simulated time.
    node_minutes: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flat ``elastic_*`` summary for resilience reporting."""
        return {
            "elastic_scale_out_events": float(self.scale_out_events),
            "elastic_scale_in_events": float(self.scale_in_events),
            "elastic_drain_bytes": float(self.drain_bytes),
            "elastic_docs_handed_off": float(self.docs_handed_off),
            "elastic_docs_invalidated": float(self.docs_invalidated),
            "elastic_evaluations": float(self.evaluations),
            "elastic_blocked_cooldown": float(self.blocked_cooldown),
            "elastic_blocked_bounds": float(self.blocked_bounds),
            "elastic_node_minutes": self.node_minutes,
        }


class ElasticController:
    """Load-driven membership control for one cloud.

    Requires a cloud with ``failure_resilience=True`` (membership changes
    ride the failover machinery) and an attached
    :class:`~repro.core.overload.OverloadController` (the signal source).
    Construct via :meth:`CacheCloud.attach_elastic`, not directly.
    """

    def __init__(self, cloud: "CacheCloud", config: ElasticConfig) -> None:
        if cloud.failure_manager is None:
            raise RuntimeError(
                "elastic sizing requires a cloud with failure_resilience=True"
            )
        if cloud.overload is None:
            raise RuntimeError(
                "elastic sizing requires an attached overload controller "
                "(the scale signals are its queue/rejection statistics)"
            )
        num = len(cloud.caches)
        if config.min_caches > num:
            raise ValueError(
                f"min_caches {config.min_caches} exceeds the cloud's "
                f"{num} caches"
            )
        self.cloud = cloud
        self.config = config
        self.stats = ElasticStats()
        self.max_caches = (
            num if config.max_caches is None else min(config.max_caches, num)
        )
        self.min_caches = config.min_caches
        self._manager = cloud.failure_manager
        #: (time, cumulative overload snapshot) sliding window.
        self._window: Deque[Tuple[float, _Snapshot]] = deque()
        self._last_change: Optional[float] = None
        #: End-of-event hooks, ``hook(cloud, event, applied, now)`` — the
        #: same shape as :class:`~repro.faults.churn.ChurnSchedule` hooks,
        #: so repair machinery can subscribe to scale events identically.
        self._hooks: List[ScaleHook] = []
        self._process: Optional[PeriodicProcess] = None
        # Node-minute integral state.
        self._nm_mark = 0.0
        self._nm_active = self.active_count()
        if config.initial_caches is not None:
            self._establish_initial_size(config.initial_caches)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def active_count(self) -> int:
        """Live caches right now (the ``cloud_size`` gauge)."""
        return sum(1 for cache in self.cloud.caches if cache.alive)

    def is_standby(self, cache_id: int) -> bool:
        """Whether ``cache_id`` is retired (eligible for instantiation)."""
        return cache_id in self._manager.retired()

    def add_hook(self, hook: ScaleHook) -> None:
        """Register an end-of-event hook (``hook(cloud, event, applied, now)``)."""
        self._hooks.append(hook)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def start(self, simulator: Simulator) -> None:
        """Arm the periodic watermark check on ``simulator``."""
        if self._process is not None:
            return
        self._process = PeriodicProcess(
            simulator,
            self.config.check_period_minutes,
            self.check,
            priority=EventPriority.CONTROL,
            label="elastic-check",
        )
        self._process.start()

    def stop(self) -> None:
        """Disarm the periodic check."""
        if self._process is not None:
            self._process.stop()
            self._process = None

    def finalize(self, now: float) -> None:
        """Close the node-minute integral at the end of a run."""
        self._integrate(now)

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------
    def check(self, now: float) -> None:
        """Sample the overload signals and evaluate the watermarks."""
        self._integrate(now)
        overload = self.cloud.overload
        assert overload is not None
        stats = overload.stats
        snap: _Snapshot = (
            stats.queue_depth_sum,
            stats.queue_depth_samples,
            stats.requests_admitted,
            stats.requests_rejected,
        )
        window = self._window
        if window and any(n < o for n, o in zip(snap, window[-1][1])):
            # Cumulative counters moved backward: a measurement-window
            # reset (warm-up). Rebase rather than reading garbage deltas.
            window.clear()
        window.append((now, snap))
        horizon = now - self.config.window_minutes
        while len(window) > 2 and window[1][0] <= horizon:
            window.popleft()
        if len(window) < 2:
            # First sample after attach/rebase: observe only.
            return
        base = window[0][1]
        depth_samples = snap[1] - base[1]
        depth = (snap[0] - base[0]) / depth_samples if depth_samples else 0.0
        arrivals = (snap[2] - base[2]) + (snap[3] - base[3])
        rejection = (snap[3] - base[3]) / arrivals if arrivals else 0.0
        self.stats.evaluations += 1
        self._decide(depth, rejection, now)

    def _decide(self, depth: float, rejection: float, now: float) -> None:
        cfg = self.config
        want_out = (
            depth >= cfg.scale_out_depth or rejection >= cfg.scale_out_rejection
        )
        if (
            self._last_change is not None
            and now - self._last_change < cfg.cooldown_minutes
        ):
            self.stats.blocked_cooldown += 1
            return
        if want_out:
            standby = self._manager.retired()
            if self.active_count() < self.max_caches and standby:
                self.instantiate_node(standby[0], now)
            else:
                self.stats.blocked_bounds += 1
            return
        # Scale-in needs a quiet window: depth at or below the low
        # watermark AND no rejections AND the scale-out condition false
        # (implied). On a steady boundary signal the out-condition wins,
        # so equal watermarks converge instead of flapping.
        if depth <= cfg.scale_in_depth and rejection == 0.0:
            if self.active_count() <= self.min_caches:
                self.stats.blocked_bounds += 1
                return
            victim = self._choose_victim()
            if victim is None:
                self.stats.blocked_bounds += 1
            else:
                self.retire_node(victim, now)

    def _choose_victim(self) -> Optional[int]:
        """Highest-id live cache whose retirement keeps every ring covered."""
        for cache in reversed(self.cloud.caches):
            if self._manager.can_leave(cache.cache_id):
                return cache.cache_id
        return None

    # ------------------------------------------------------------------
    # Membership changes
    # ------------------------------------------------------------------
    def instantiate_node(
        self, cache_id: int, now: float, *, record: bool = True
    ) -> None:
        """Warm-join a standby node into its home ring.

        The join is *warm* before the node takes traffic: ring membership,
        the sub-range split, and the directory pull for the taken range
        all complete inside this call (the same anti-entropy-style
        re-registration crash recovery performs), and the node's service
        queue starts empty. Storage is cold by design — documents arrive
        through normal placement. Raises :class:`ValueError` for a node
        that is not retired (a member, or a crashed node).
        """
        self._manager.instantiate_cache(cache_id, now)
        self._integrate(now)
        if record:
            self.stats.scale_out_events += 1
            self._last_change = now
            self._emit(ChurnEvent(max(now, 0.0), cache_id, INSTANTIATE), now)

    def retire_node(
        self, cache_id: int, now: float, *, record: bool = True
    ) -> None:
        """Safely drain and retire a live node (voluntary scale-in).

        Raises :class:`ValueError`, before draining anything, for a node
        that is already out or is the last live member of its ring.
        """
        if not self._manager.can_leave(cache_id):
            raise ValueError(
                f"cache {cache_id} cannot be retired: it is already out, or "
                "the last live member of its ring"
            )
        self._drain(cache_id, now)
        self._manager.retire_cache(cache_id, now)
        self._integrate(now)
        if record:
            self.stats.scale_in_events += 1
            self._last_change = now
            self._emit(ChurnEvent(max(now, 0.0), cache_id, RETIRE), now)

    # ------------------------------------------------------------------
    # Safe drain
    # ------------------------------------------------------------------
    def _drain(self, cache_id: int, now: float) -> None:
        """Hand off or explicitly invalidate every resident document.

        Documents go to the new sub-range owners: a document whose beacon
        point is the retiring node itself targets the ring successor (the
        arc's next owner); every other document targets its beacon point,
        falling back to the lowest-id live cache that can take it. Bodies
        ride the system plane (drain is infrastructure traffic: it bypasses
        the fault middleware and the service queues, like failover's
        replica shipments), and every directory mutation happens at the
        document's *current* beacon so the auditor's placement invariants
        hold at every intermediate step.
        """
        cloud = self.cloud
        cache = cloud.caches[cache_id]
        absorber = self._manager.buddy_of(cache_id)
        budget = self.config.drain_byte_budget
        for doc_id in sorted(cache.storage):
            copy = cache.storage.get(doc_id)
            assert copy is not None
            fresh = copy.version >= cloud.origin.version_of(doc_id)
            handed = False
            if fresh and copy.size_bytes <= budget:
                target = self._handoff_target(doc_id, cache_id, absorber)
                if target is not None:
                    evicted = cloud.caches[target].admit(
                        doc_id, copy.size_bytes, copy.version, now
                    )
                    if evicted is not None:
                        budget -= copy.size_bytes
                        body = copy.size_bytes + TRANSFER_HEADER_BYTES
                        cloud.fabric.send_system(
                            cache_id, target, body, TrafficCategory.PEER_TRANSFER
                        )
                        self.stats.drain_bytes += body
                        self._register_holder(target, doc_id)
                        for evicted_doc in evicted:
                            # The target made room: its beacon must learn
                            # the evicted copies are gone, immediately and
                            # reliably (a lost notice here would leave a
                            # dangling entry the drain just created).
                            self._deregister_holder(target, evicted_doc)
                        self.stats.docs_handed_off += 1
                        handed = True
            if not handed:
                # Explicit invalidation — never silent: the beacon point
                # is told the copy is gone and the notice is charged.
                self.stats.docs_invalidated += 1
            self._deregister_holder(cache_id, doc_id)
            cache.drop(doc_id, now)

    def _handoff_target(
        self, doc_id: int, victim: int, absorber: Optional[int]
    ) -> Optional[int]:
        """Deterministic receiver for one drained document, or ``None``."""
        cloud = self.cloud
        owner = cloud.beacon_for_doc(doc_id)
        if owner == victim:
            owner = absorber if absorber is not None else -1
        candidates = [owner] if owner >= 0 else []
        candidates.extend(cache.cache_id for cache in cloud.caches)
        for candidate in candidates:
            cache = cloud.caches[candidate]
            if candidate == victim or not cache.alive:
                continue
            if not cache.holds(doc_id):
                return candidate
        return None

    def _register_holder(self, holder: int, doc_id: int) -> None:
        cloud = self.cloud
        beacon_id = cloud.beacon_for_doc(doc_id)
        cloud.beacon_roles[beacon_id].accept_registration(
            doc_id, cloud.doc_irh(doc_id), holder
        )
        if beacon_id != holder:
            cloud.fabric.send_system_control(holder, beacon_id)
            self.stats.drain_bytes += CONTROL_MESSAGE_BYTES

    def _deregister_holder(self, holder: int, doc_id: int) -> None:
        cloud = self.cloud
        beacon_id = cloud.beacon_for_doc(doc_id)
        cloud.beacon_roles[beacon_id].accept_eviction(doc_id, holder)
        if beacon_id != holder:
            cloud.fabric.send_system_control(holder, beacon_id)
            self.stats.drain_bytes += CONTROL_MESSAGE_BYTES

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _establish_initial_size(self, target: int) -> None:
        """Retire down to ``target`` nodes at attach time (highest-id first).

        Runs before any traffic, so drains are trivially empty; the events
        are sizing, not watermark decisions, and are not counted as scale
        events (the monitor's ``scale_*_events`` series measures the
        control loop, not the starting line).
        """
        while self.active_count() > target:
            victim = self._choose_victim()
            if victim is None:
                break
            self.retire_node(victim, 0.0, record=False)

    def _integrate(self, now: float) -> None:
        """Advance the node-minute integral to ``now``."""
        if now > self._nm_mark:
            self.stats.node_minutes += self._nm_active * (now - self._nm_mark)
            self._nm_mark = now
        self._nm_active = self.active_count()

    def _emit(self, event: ChurnEvent, now: float) -> None:
        for hook in self._hooks:
            hook(self.cloud, event, True, now)

    def __repr__(self) -> str:
        return (
            f"ElasticController(active={self.active_count()}, "
            f"bounds=[{self.min_caches}, {self.max_caches}], "
            f"scale_outs={self.stats.scale_out_events}, "
            f"scale_ins={self.stats.scale_in_events})"
        )

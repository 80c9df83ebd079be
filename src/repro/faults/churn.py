"""Churn scheduling: failing and recovering caches on a timeline.

The seed exercises node failure exactly once, by hand. Production edge
networks instead see *churn* — nodes leaving and rejoining continuously —
and Carlsson & Eager argue caches must be evaluated under exactly that
regime rather than at steady state. This module provides:

* :class:`ChurnEvent` — one scripted ``fail``/``recover`` at a time (plus
  the voluntary ``instantiate``/``retire`` scale actions executed through
  an attached :class:`~repro.core.elastic.ElasticController`).
* :class:`ChurnSpec` — a small picklable recipe: scripted events plus an
  optional Poisson process (failure rate, mean exponential downtime), all
  derived from a seed so sweeps stay deterministic at any job count.
* :class:`ChurnSchedule` — the executor. It can ``attach`` to a
  :class:`~repro.simulation.engine.Simulator` (events fire as simulation
  events, before same-instant traffic) or be stepped manually with
  :meth:`apply_due` from loop-driven experiment code. Either way every
  fail/recover goes through the cloud's
  :class:`~repro.core.failure.FailureResilienceManager`, so failover,
  directory scrubbing, and buddy-replica installation are exercised and
  counted — never bypassed.

Safety rails: the manager's membership record decides. An event the
addressed node's state does not admit — failing or retiring a node that is
already out or is the *last* live member of its beacon ring, recovering a
node that did not crash (a live one, or one the elastic controller
retired), instantiating a node that was not retired — is skipped (and
counted as skipped) instead of corrupting the run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro.simulation.engine import Simulator
from repro.simulation.events import EventPriority
from repro.simulation.rng import derive_seed

FAIL = "fail"
RECOVER = "recover"
#: Elastic scale events: voluntary membership changes driven by (or through)
#: an attached :class:`~repro.core.elastic.ElasticController`. They share the
#: churn event plumbing — same hooks, same redirect-on-dead behaviour — but
#: are counted separately from crashes in :class:`ChurnStats`.
INSTANTIATE = "instantiate"
RETIRE = "retire"

_ACTIONS = (FAIL, RECOVER, INSTANTIATE, RETIRE)


@dataclass(frozen=True)
class ChurnEvent:
    """One scheduled membership change."""

    time: float
    cache_id: int
    action: str

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be >= 0, got {self.time}")
        if self.action not in _ACTIONS:
            raise ValueError(f"action must be one of {_ACTIONS}")


@dataclass(frozen=True)
class ChurnSpec:
    """Picklable recipe for a churn timeline.

    ``events`` are scripted outages; the Poisson knobs add random churn on
    top. ``failure_rate_per_minute`` is cloud-wide: each arrival picks a
    victim uniformly and keeps it down for an exponential time with mean
    ``mean_downtime_minutes``.
    """

    duration_minutes: float
    failure_rate_per_minute: float = 0.0
    mean_downtime_minutes: float = 10.0
    start_minutes: float = 0.0
    seed: int = 0
    events: Tuple[ChurnEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.duration_minutes <= 0:
            raise ValueError("duration_minutes must be > 0")
        if self.failure_rate_per_minute < 0:
            raise ValueError("failure_rate_per_minute must be >= 0")
        if self.mean_downtime_minutes <= 0:
            raise ValueError("mean_downtime_minutes must be > 0")
        if not 0 <= self.start_minutes < self.duration_minutes:
            raise ValueError("start_minutes must lie in [0, duration_minutes)")

    def build_events(self, num_caches: int) -> List[ChurnEvent]:
        """Materialize the full (scripted + Poisson) timeline, time-sorted."""
        events = list(self.events)
        if self.failure_rate_per_minute > 0.0:
            rng = random.Random(derive_seed(self.seed, "churn-timeline"))
            t = self.start_minutes
            while True:
                t += rng.expovariate(self.failure_rate_per_minute)
                if t >= self.duration_minutes:
                    break
                victim = rng.randrange(num_caches)
                downtime = rng.expovariate(1.0 / self.mean_downtime_minutes)
                events.append(ChurnEvent(t, victim, FAIL))
                events.append(ChurnEvent(t + downtime, victim, RECOVER))
        events.sort(key=lambda e: (e.time, e.cache_id, e.action))
        return events


@dataclass
class ChurnStats:
    """What the schedule actually did to the cloud."""

    failures: int = 0
    recoveries: int = 0
    skipped: int = 0
    #: Scripted elastic scale events executed through the schedule. Kept
    #: apart from ``failures``/``recoveries``: a voluntary retirement drains
    #: its documents and loses nothing, a crash loses everything.
    scale_outs: int = 0
    scale_ins: int = 0
    #: Closed unavailability windows, total simulated minutes.
    unavailability_minutes: float = 0.0
    unavailability_windows: int = 0
    #: cache_id -> fail time of the currently open window.
    open_windows: Dict[int, float] = field(default_factory=dict)

    def open_window(self, cache_id: int, now: float) -> None:
        """Start an unavailability window for ``cache_id``."""
        self.open_windows[cache_id] = now

    def close_window(self, cache_id: int, now: float) -> None:
        """Close ``cache_id``'s window and accumulate its length."""
        started = self.open_windows.pop(cache_id, None)
        if started is None:
            return
        self.unavailability_minutes += max(0.0, now - started)
        self.unavailability_windows += 1

    def finalize(self, now: float) -> None:
        """Close every still-open window at ``now`` (end of run)."""
        for cache_id in list(self.open_windows):
            self.close_window(cache_id, now)

    def as_dict(self) -> Dict[str, float]:
        """Flat summary for reports."""
        data = {
            "churn_failures": float(self.failures),
            "churn_recoveries": float(self.recoveries),
            "churn_skipped": float(self.skipped),
            "unavailability_minutes": self.unavailability_minutes,
            "unavailability_windows": float(self.unavailability_windows),
        }
        # Scale counters appear only when scale events actually ran: crash
        # -only schedules keep the exact legacy schema (the resilience
        # golden fingerprint hashes this dict).
        if self.scale_outs or self.scale_ins:
            data["churn_scale_outs"] = float(self.scale_outs)
            data["churn_scale_ins"] = float(self.scale_ins)
        return data


class ChurnSchedule:
    """Executes a churn timeline against one cloud.

    The target cloud must have ``failure_resilience=True``: every event is
    routed through its :class:`~repro.core.failure.FailureResilienceManager`
    so failover and repair metrics are recorded rather than bypassed.
    """

    def __init__(self, events: Sequence[ChurnEvent]) -> None:
        self.events: List[ChurnEvent] = sorted(
            events, key=lambda e: (e.time, e.cache_id, e.action)
        )
        self.stats = ChurnStats()
        self._cursor = 0
        #: End-of-event hooks, called as ``hook(cloud, event, applied, now)``
        #: after every processed event (skipped ones included with
        #: ``applied=False``). Lets repair machinery — e.g. the anti-entropy
        #: process — react to membership changes the instant they land.
        self._hooks: List[Callable] = []

    def add_hook(self, hook: Callable) -> None:
        """Register an end-of-event hook (``hook(cloud, event, applied, now)``)."""
        self._hooks.append(hook)

    @classmethod
    def from_spec(cls, spec: ChurnSpec, num_caches: int) -> "ChurnSchedule":
        """Build the executable schedule from a picklable recipe."""
        return cls(spec.build_events(num_caches))

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def attach(self, cloud, simulator: Simulator) -> None:
        """Arm every event on ``simulator`` against ``cloud``.

        Events use CONTROL priority so a same-instant request already sees
        the membership change. Requests addressed to a down cache are
        redirected (and counted) instead of raising.
        """
        self._require_manager(cloud)
        cloud.redirect_on_dead = True
        for event in self.events:
            simulator.schedule_at(
                max(event.time, simulator.now),
                lambda e=event: self.apply(cloud, e, simulator.now),
                priority=EventPriority.CONTROL,
                label="churn",
            )

    def apply_due(self, cloud, now: float) -> int:
        """Apply every not-yet-applied event with ``time <= now``.

        For loop-driven experiments that feed records without a simulator.
        Returns the number of events processed (including skipped ones).
        """
        self._require_manager(cloud)
        cloud.redirect_on_dead = True
        processed = 0
        while self._cursor < len(self.events) and self.events[self._cursor].time <= now:
            event = self.events[self._cursor]
            self._cursor += 1
            self.apply(cloud, event, max(event.time, 0.0))
            processed += 1
        return processed

    def apply(self, cloud, event: ChurnEvent, now: float) -> bool:
        """Apply one event; returns False when it was skipped."""
        applied = self._apply_inner(cloud, event, now)
        for hook in self._hooks:
            hook(cloud, event, applied, now)
        return applied

    def _apply_inner(self, cloud, event: ChurnEvent, now: float) -> bool:
        if event.action in (INSTANTIATE, RETIRE):
            return self._apply_scale(cloud, event, now)
        manager = cloud.failure_manager
        if event.action == FAIL:
            if not manager.can_leave(event.cache_id):
                self.stats.skipped += 1
                return False
            cloud.fail_cache(event.cache_id, now)
            self.stats.failures += 1
            self.stats.open_window(event.cache_id, now)
            return True
        if event.cache_id not in manager.crashed():
            # Alive, or retired: a standby comes back through
            # ``instantiate``, never through ``recover``.
            self.stats.skipped += 1
            return False
        cloud.recover_cache(event.cache_id, now)
        self.stats.recoveries += 1
        self.stats.close_window(event.cache_id, now)
        return True

    def _apply_scale(self, cloud, event: ChurnEvent, now: float) -> bool:
        """Execute a scripted scale event via the cloud's elastic controller.

        Scale events are *voluntary*: a ``retire`` drains the node through
        the elastic controller's safe-drain protocol (never through
        ``fail_cache``) and an ``instantiate`` warm-joins a standby. They
        need an attached :class:`~repro.core.elastic.ElasticController`;
        without one they are skipped, like any other inapplicable event.
        Scripted events bypass the controller's min/max bounds — they are
        explicit operator actions, not watermark decisions.
        """
        controller = getattr(cloud, "elastic", None)
        if event.action == RETIRE:
            if controller is None or not cloud.failure_manager.can_leave(
                event.cache_id
            ):
                self.stats.skipped += 1
                return False
            controller.retire_node(event.cache_id, now)
            self.stats.scale_ins += 1
            return True
        if controller is None or not controller.is_standby(event.cache_id):
            # A crash-downed node is not a standby: it comes back through
            # ``recover``, not ``instantiate``.
            self.stats.skipped += 1
            return False
        controller.instantiate_node(event.cache_id, now)
        self.stats.scale_outs += 1
        return True

    def finalize(self, now: float) -> None:
        """Close open unavailability windows at the end of the run."""
        self.stats.finalize(now)

    # ------------------------------------------------------------------
    # Guards
    # ------------------------------------------------------------------
    @staticmethod
    def _require_manager(cloud) -> None:
        if getattr(cloud, "failure_manager", None) is None:
            raise RuntimeError(
                "churn scheduling requires a cloud with failure_resilience=True"
            )

    def __repr__(self) -> str:
        return (
            f"ChurnSchedule(events={len(self.events)}, "
            f"failures={self.stats.failures}, recoveries={self.stats.recoveries})"
        )

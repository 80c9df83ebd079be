"""Periodic process helper for the discrete-event engine.

The beacon-ring sub-range determination runs "periodically (in cycles)"
(paper §2.3), as do the elastic check and the anti-entropy sweep. This
module provides the re-arming machinery for such processes.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.simulation.engine import Simulator
from repro.simulation.events import Event, EventPriority


class PeriodicProcess:
    """Re-arms a callback every ``period`` time units.

    The callback receives the firing time. The process may be started with a
    phase offset (``first_at``) and stopped at any point; stopping cancels
    the in-flight event.
    """

    def __init__(
        self,
        simulator: Simulator,
        period: float,
        callback: Callable[[float], Any],
        priority: EventPriority = EventPriority.CONTROL,
        label: Optional[str] = None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        self._sim = simulator
        self.period = float(period)
        self._callback = callback
        self._priority = priority
        self.label = label or "periodic"
        self._pending: Optional[Event] = None
        self._fired = 0
        self._active = False

    @property
    def active(self) -> bool:
        """Whether the process is currently armed."""
        return self._active

    @property
    def firings(self) -> int:
        """How many times the callback has run."""
        return self._fired

    def start(self, first_at: Optional[float] = None) -> None:
        """Arm the process; first firing at ``first_at`` (default now+period)."""
        if self._active:
            return
        self._active = True
        when = self._sim.now + self.period if first_at is None else first_at
        self._pending = self._sim.schedule_at(
            when, self._fire, priority=self._priority, label=self.label
        )

    def stop(self) -> None:
        """Disarm the process and cancel the in-flight event."""
        self._active = False
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _fire(self) -> None:
        if not self._active:
            return
        fire_time = self._sim.now
        self._fired += 1
        # Re-arm before the callback so a callback calling stop() wins.
        self._pending = self._sim.schedule_at(
            fire_time + self.period, self._fire, priority=self._priority, label=self.label
        )
        self._callback(fire_time)

    def __repr__(self) -> str:
        state = "active" if self._active else "stopped"
        return f"PeriodicProcess({self.label!r}, period={self.period}, {state})"

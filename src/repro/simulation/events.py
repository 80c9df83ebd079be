"""Event objects and ordering for the discrete-event simulator.

Events are ordered by ``(time, priority, seq)``. The sequence number is a
monotonically increasing tie-breaker assigned at scheduling time, which makes
the execution order of same-time, same-priority events deterministic
(insertion order) — a prerequisite for reproducible simulations.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Callable, Optional, Tuple


class EventPriority(enum.IntEnum):
    """Priority classes for same-timestamp events.

    Lower numeric value runs first. The classes encode the natural causality
    of the simulated system: control-plane reconfiguration (sub-range
    determination) is applied before data-plane traffic at the same instant,
    and bookkeeping/metrics sampling runs last so it observes a settled state.
    """

    CONTROL = 0
    UPDATE = 10
    REQUEST = 20
    TRANSFER = 30
    METRICS = 90


_SEQ = itertools.count()


class Event:
    """A scheduled callback.

    Parameters
    ----------
    time:
        Absolute simulation time at which the event fires.
    callback:
        Zero-argument callable invoked when the event is dispatched.
    priority:
        Ordering class among events with equal time.
    label:
        Optional human-readable tag used in tracing/debugging output.
    """

    __slots__ = ("time", "priority", "seq", "callback", "label", "cancelled")

    def __init__(
        self,
        time: float,
        callback: Callable[[], Any],
        priority: EventPriority = EventPriority.REQUEST,
        label: Optional[str] = None,
    ) -> None:
        if time < 0:
            raise ValueError(f"event time must be >= 0, got {time}")
        if not callable(callback):
            raise TypeError("callback must be callable")
        self.time = float(time)
        self.priority = EventPriority(priority)
        self.seq = next(_SEQ)
        self.callback = callback
        self.label = label
        #: Whether :meth:`cancel` has been called (read per loop turn by
        #: the engine, hence a plain attribute).
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event as cancelled; the engine will skip it lazily."""
        self.cancelled = True

    def sort_key(self) -> Tuple[float, int, int]:
        """Total-order key used by the engine's priority queue."""
        return (self.time, int(self.priority), self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        tag = f" label={self.label!r}" if self.label else ""
        return f"Event(t={self.time:.4f}, prio={self.priority.name}, {state}{tag})"

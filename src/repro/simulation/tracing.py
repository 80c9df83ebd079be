"""Structured event tracing for the simulation engine.

Debugging a discrete-event simulation means answering "what fired, when,
in what order?". :class:`EventTracer` wraps a :class:`Simulator` and keeps
a bounded ring buffer of dispatch records — label, time, priority, and a
monotone dispatch index — with query helpers and a text dump.

Tracing is opt-in and detachable: production experiment runs never pay for
it, and tests can assert on dispatch order without monkey-patching the
engine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

from repro.simulation.engine import Simulator
from repro.simulation.events import EventPriority


@dataclass(frozen=True)
class DispatchRecord:
    """One dispatched event, as observed by the tracer."""

    index: int
    time: float
    priority: EventPriority
    label: str


class EventTracer:
    """Bounded dispatch log attached to a :class:`Simulator`.

    Implementation note: the tracer wraps the simulator's ``schedule_at``
    so every event's callback is decorated with a recording shim, and on
    :meth:`attach` it also rewrites the callbacks of events *already* in
    the queue — so pre-attach events (a periodic process armed during
    setup, a warm-up reset) are traced too, not silently skipped. It sees
    *events* only: items the engine draws from an attached source (a
    :class:`~repro.experiments.runner.TraceFeeder`'s records) are not
    scheduled, so they do not appear in the log.
    """

    def __init__(self, capacity: int = 10_000) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._records: Deque[DispatchRecord] = deque(maxlen=capacity)
        self._dispatched = 0
        self._simulator: Optional[Simulator] = None
        self._original_schedule_at = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, simulator: Simulator) -> "EventTracer":
        """Start tracing ``simulator``; returns self for chaining.

        Events already in the queue are traced too: their callbacks are
        rewritten in place with the same recording shim new events get.
        """
        if self._simulator is not None:
            raise RuntimeError("tracer is already attached")
        self._simulator = simulator
        self._original_schedule_at = simulator.schedule_at

        def traced_schedule_at(time, callback, priority=EventPriority.REQUEST, label=None):
            return self._original_schedule_at(
                time,
                self._recording(simulator, callback, priority, label),
                priority=priority,
                label=label,
            )

        simulator.schedule_at = traced_schedule_at  # type: ignore[method-assign]
        for event in simulator.iter_pending():
            event.callback = self._recording(
                simulator, event.callback, event.priority, event.label
            )
        return self

    def _recording(self, simulator, callback, priority, label):
        """Wrap ``callback`` so its dispatch lands in the record buffer."""

        def recording_callback():
            self._record(simulator.now, priority, label)
            return callback()

        return recording_callback

    def detach(self) -> None:
        """Stop tracing; already-scheduled traced events still record."""
        if self._simulator is None:
            return
        self._simulator.schedule_at = self._original_schedule_at  # type: ignore[method-assign]
        self._simulator = None
        self._original_schedule_at = None

    def _record(self, time: float, priority: EventPriority, label: Optional[str]) -> None:
        self._records.append(
            DispatchRecord(
                index=self._dispatched,
                time=time,
                priority=priority,
                label=label or "<unlabelled>",
            )
        )
        self._dispatched += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def dispatched(self) -> int:
        """Total traced dispatches (including ones evicted from the buffer)."""
        return self._dispatched

    def records(self) -> List[DispatchRecord]:
        """The retained dispatch records, oldest first."""
        return list(self._records)

    def with_label(self, label: str) -> List[DispatchRecord]:
        """Retained records whose label equals ``label``."""
        return [r for r in self._records if r.label == label]

    def matching(self, predicate: Callable[[DispatchRecord], bool]) -> List[DispatchRecord]:
        """Retained records satisfying ``predicate``."""
        return [r for r in self._records if predicate(r)]

    def between(self, start: float, end: float) -> List[DispatchRecord]:
        """Retained records with ``start <= time < end``."""
        return [r for r in self._records if start <= r.time < end]

    def labels_in_order(self) -> List[str]:
        """Just the labels, in dispatch order (compact assertion helper)."""
        return [r.label for r in self._records]

    def clear(self) -> None:
        """Drop retained records (the total dispatch count is kept)."""
        self._records.clear()

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def dump(self, limit: Optional[int] = None) -> str:
        """Human-readable dispatch log (most recent ``limit`` records)."""
        records = self.records()
        if limit is not None:
            records = records[-limit:]
        lines = [
            f"[{r.index:>6}] t={r.time:>10.4f} {r.priority.name:<8} {r.label}"
            for r in records
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:
        state = "attached" if self._simulator is not None else "detached"
        return f"EventTracer({state}, dispatched={self._dispatched})"

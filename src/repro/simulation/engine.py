"""The discrete-event simulation engine.

A classic calendar-queue-free DES loop built on :mod:`heapq`. The engine is
single-threaded and deterministic: events with equal timestamps dispatch in
(priority, insertion) order.

Pending work comes in two kinds. *Events* are callbacks on the heap
(:meth:`Simulator.schedule_at`): cycles, resets, churn, monitors — anything
scheduled ahead of time, in any order. The *source*
(:meth:`Simulator.attach_source`) is one time-sorted stream of items with a
single item waiting at a time; a trace of a million records is a million
items through one slot, not a million heap entries. Both kinds share one
total order ``(time, priority, seq)`` and one ``seq`` counter, and an item
takes its ``seq`` when it becomes the waiting one — right after its
predecessor was processed, which is when an event-per-item feeder would
have scheduled it — so the two interleave exactly as if every item were an
event.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.simulation.clock import SimulationClock
from repro.simulation.events import _SEQ, Event, EventPriority

#: What a source hands over: ``(time, priority, item)``.
SourceItem = Tuple[float, int, Any]


class SimulationError(RuntimeError):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""


class Simulator:
    """Event loop driving a simulation run.

    Typical usage::

        sim = Simulator()
        sim.schedule_at(5.0, lambda: print("hello at t=5"))
        sim.run_until(10.0)

    The engine exposes both absolute (:meth:`schedule_at`) and relative
    (:meth:`schedule_in`) scheduling, lazy cancellation, bounded runs, and
    one attached record source (:meth:`attach_source`).
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.clock = SimulationClock(start_time)
        self._queue: List[Event] = []
        #: The attached source, ``(pull, process)``; see :meth:`attach_source`.
        self._source: Optional[
            Tuple[Callable[[], Optional[SourceItem]], Callable[[Any, float], None]]
        ] = None
        #: Sort key ``(time, priority, seq)`` of the source's waiting item;
        #: ``None`` while an item is being processed or the stream is done.
        self._head_key: Optional[Tuple[float, int, int]] = None
        self._head_item: Any = None
        self._dispatched = 0
        self._stop_requested = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.clock.now

    @property
    def pending_events(self) -> int:
        """Queued events (including cancelled ones) plus a waiting source item."""
        return len(self._queue) + (self._head_key is not None)

    @property
    def dispatched_events(self) -> int:
        """Number of events and source items executed so far."""
        return self._dispatched

    def peek_next_time(self) -> Optional[float]:
        """Time of the next live event or source item, ``None`` if drained."""
        self._drop_cancelled_head()
        times = [event.time for event in self._queue[:1]]
        if self._head_key is not None:
            times.append(self._head_key[0])
        return min(times, default=None)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self,
        time: float,
        callback: Callable[[], Any],
        priority: EventPriority = EventPriority.REQUEST,
        label: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` at absolute simulation ``time``.

        Scheduling at the current instant is allowed (the event runs within
        the current run loop); scheduling in the past is an error.
        """
        if time < self.clock.now:
            raise SimulationError(
                f"cannot schedule event in the past: now={self.clock.now}, t={time}"
            )
        event = Event(time, callback, priority=priority, label=label)
        heapq.heappush(self._queue, event)
        return event

    def schedule_in(
        self,
        delay: float,
        callback: Callable[[], Any],
        priority: EventPriority = EventPriority.REQUEST,
        label: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` after a relative ``delay`` (must be >= 0)."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(
            self.clock.now + delay, callback, priority=priority, label=label
        )

    def attach_source(
        self,
        pull: Callable[[], Optional[SourceItem]],
        process: Callable[[Any, float], None],
    ) -> None:
        """Draw a time-sorted stream alongside the heap, one item at a time.

        ``pull()`` answers the stream's next ``(time, priority, item)`` or
        ``None`` once exhausted; ``process(item, now)`` handles an item when
        it is due. The first item waits from now on; each later one is
        pulled after its predecessor was processed. An item is due at its
        own time, or at once if the clock has already passed it (a stream
        attached late) — so, unlike an event, it can never lie in the past.
        """
        if self._source is not None:
            raise SimulationError("a source is already attached")
        self._source = (pull, process)
        self._pull(pull, self.clock.now)

    def _pull(self, pull: Callable[[], Optional[SourceItem]], now: float) -> None:
        """Make the stream's next item the waiting one (it takes its seq now)."""
        pulled = pull()
        if pulled is not None:
            time, priority, self._head_item = pulled
            self._head_key = (float(max(time, now)), int(priority), next(_SEQ))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request the current :meth:`run_until`/:meth:`run` loop to exit."""
        self._stop_requested = True

    def run_until(self, end_time: float, inclusive: bool = True) -> int:
        """Dispatch work with time <= ``end_time`` (or < when not inclusive).

        The clock is left at ``end_time`` even if the work drains earlier,
        so that periodic metric windows are well defined. Returns the number
        of events and source items dispatched by this call.
        """
        if end_time < self.clock.now:
            raise SimulationError(
                f"end_time {end_time} is before current time {self.clock.now}"
            )
        dispatched = self._dispatch(end_time, inclusive, None)
        self.clock.advance_to(max(self.clock.now, end_time))
        return dispatched

    def run(self, max_events: Optional[int] = None) -> int:
        """Dispatch until nothing is pending (or ``max_events`` is reached)."""
        return self._dispatch(float("inf"), True, max_events)

    def _dispatch(
        self, end_time: float, inclusive: bool, max_events: Optional[int]
    ) -> int:
        """The one dispatch loop: the smaller of heap head and source head."""
        queue = self._queue
        clock = self.clock
        dispatched_before = self._dispatched
        limit = float("inf") if max_events is None else dispatched_before + max_events
        self._stop_requested = False
        while not self._stop_requested and self._dispatched < limit:
            while queue and queue[0].cancelled:
                heapq.heappop(queue)
            key = self._head_key
            event = queue[0] if queue else None
            if event is not None and (
                key is None or (event.time, event.priority, event.seq) < key
            ):
                time = event.time
            elif key is not None:
                event = None
                time = key[0]
            else:
                break
            if time > end_time or (time == end_time and not inclusive):
                break
            if event is not None:
                heapq.heappop(queue)
                clock.advance_to(time)
                event.callback()
            else:
                # In flight: nothing waits while the item runs, and its
                # successor is pulled (and numbered) only afterwards, behind
                # whatever the item itself scheduled.
                assert self._source is not None  # an item waits => a source
                pull, process = self._source
                item = self._head_item
                self._head_key = self._head_item = None
                clock.advance_to(time)
                process(item, time)
                self._pull(pull, time)
            self._dispatched += 1
        return self._dispatched - dispatched_before

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _drop_cancelled_head(self) -> None:
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.clock.now:.4f}, pending={self.pending_events}, "
            f"dispatched={self._dispatched})"
        )

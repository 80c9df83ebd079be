"""Unit tests for the discrete-event engine."""

import pytest

from repro.simulation.engine import SimulationError, Simulator
from repro.simulation.events import EventPriority


class TestScheduling:
    def test_schedule_in_past_raises(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)

    def test_schedule_at_now_is_allowed(self):
        sim = Simulator(start_time=5.0)
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(sim.now))
        sim.run_until(5.0)
        assert fired == [5.0]


class TestExecutionOrder:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(3.0, lambda: order.append(3))
        sim.schedule_at(1.0, lambda: order.append(1))
        sim.schedule_at(2.0, lambda: order.append(2))
        sim.run_until(5.0)
        assert order == [1, 2, 3]

    def test_priority_orders_same_time_events(self):
        sim = Simulator()
        order = []
        sim.schedule_at(1.0, lambda: order.append("request"), EventPriority.REQUEST)
        sim.schedule_at(1.0, lambda: order.append("control"), EventPriority.CONTROL)
        sim.schedule_at(1.0, lambda: order.append("metrics"), EventPriority.METRICS)
        sim.run_until(1.0)
        assert order == ["control", "request", "metrics"]

    def test_insertion_order_breaks_remaining_ties(self):
        sim = Simulator()
        order = []
        for tag in "abc":
            sim.schedule_at(1.0, lambda t=tag: order.append(t))
        sim.run_until(1.0)
        assert order == ["a", "b", "c"]

    def test_callback_can_schedule_more_events(self):
        sim = Simulator()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                sim.schedule_at(sim.now + 1.0, lambda: chain(n + 1))

        sim.schedule_at(0.0, lambda: chain(0))
        sim.run_until(10.0)
        assert seen == [0, 1, 2, 3]


class TestRunUntil:
    def test_clock_lands_on_end_time_even_if_queue_drains(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run_until(7.5)
        assert sim.now == 7.5

    def test_inclusive_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append("x"))
        sim.run_until(5.0)
        assert fired == ["x"]

    def test_exclusive_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append("x"))
        sim.run_until(5.0, inclusive=False)
        assert fired == []
        assert sim.pending_events == 1

    def test_end_time_before_now_raises(self):
        sim = Simulator(start_time=3.0)
        with pytest.raises(SimulationError):
            sim.run_until(2.0)

    def test_returns_dispatch_count(self):
        sim = Simulator()
        for t in (1.0, 2.0, 9.0):
            sim.schedule_at(t, lambda: None)
        assert sim.run_until(5.0) == 2


class TestCancellationAndStop:
    def test_cancelled_event_is_skipped(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_at(1.0, lambda: fired.append("no"))
        sim.schedule_at(1.0, lambda: fired.append("yes"))
        event.cancel()
        sim.run_until(2.0)
        assert fired == ["yes"]

    def test_stop_exits_loop(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule_at(2.0, lambda: fired.append(2))
        sim.run_until(10.0)
        assert fired == [1]
        assert sim.pending_events == 1

    def test_peek_next_time_skips_cancelled(self):
        sim = Simulator()
        event = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        event.cancel()
        assert sim.peek_next_time() == 2.0

    def test_peek_next_time_empty(self):
        assert Simulator().peek_next_time() is None


class TestRun:
    def test_run_drains_queue(self):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda t=t: fired.append(t))
        count = sim.run()
        assert count == 3
        assert fired == [1.0, 2.0, 3.0]

    def test_run_respects_max_events(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda: None)
        assert sim.run(max_events=2) == 2
        assert sim.pending_events == 1

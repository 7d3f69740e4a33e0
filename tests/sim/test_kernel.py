"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import SimulationError, StopSimulation, Timer


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(2.0, lambda: fired.append(2))
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run()
        assert fired == [1, 2, 3]

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(5.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.5]
        assert sim.now == 5.5

    def test_same_time_fifo_order(self, sim):
        fired = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: fired.append(i))
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_priority_breaks_ties(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append("low"), priority=5)
        sim.schedule(1.0, lambda: fired.append("high"), priority=-5)
        sim.run()
        assert fired == ["high", "low"]

    def test_schedule_in_relative_delay(self, sim):
        seen = []
        sim.schedule_in(2.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.0]

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule(0.5, lambda: None)

    def test_negative_relative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_in(-1.0, lambda: None)

    def test_non_finite_time_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(float("inf"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)

    def test_nested_scheduling_from_callback(self, sim):
        fired = []

        def first():
            fired.append("first")
            sim.schedule_in(1.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_skipped(self, sim):
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("a"))
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_events_processed_excludes_cancelled(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None).cancel()
        sim.run()
        assert sim.events_processed == 1


class TestRunControl:
    def test_run_until_stops_before_future_events(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_run_until_advances_clock_with_no_events(self, sim):
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_stop_simulation_exception_halts(self, sim):
        fired = []

        def stopper():
            fired.append("stop")
            raise StopSimulation

        sim.schedule(1.0, stopper)
        sim.schedule(2.0, lambda: fired.append("never"))
        sim.run()
        assert fired == ["stop"]

    def test_step_executes_single_event(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        assert sim.step()
        assert fired == [1]
        assert sim.step()
        assert fired == [1, 2]
        assert not sim.step()

    def test_peek_returns_next_event_time(self, sim):
        assert sim.peek() is None
        sim.schedule(3.0, lambda: None)
        e = sim.schedule(1.0, lambda: None)
        assert sim.peek() == 1.0
        e.cancel()
        assert sim.peek() == 3.0


class TestTimer:
    def test_timer_fires_after_delay(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.arm(2.0)
        sim.run()
        assert fired == [2.0]

    def test_rearm_replaces_pending_expiry(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.arm(2.0)
        timer.arm(5.0)
        sim.run()
        assert fired == [5.0]

    def test_cancel_prevents_firing(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.arm(1.0)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_armed_property(self, sim):
        timer = Timer(sim, lambda: None)
        assert not timer.armed
        timer.arm(1.0)
        assert timer.armed
        sim.run()
        assert not timer.armed


class TestProcesses:
    def test_generator_process_advances_with_delays(self, sim):
        trace = []

        def proc():
            trace.append(sim.now)
            yield 1.0
            trace.append(sim.now)
            yield 2.0
            trace.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert trace == [0.0, 1.0, 3.0]

    def test_process_stop_aborts(self, sim):
        trace = []

        def proc():
            while True:
                trace.append(sim.now)
                yield 1.0

        handle = sim.spawn(proc())
        sim.run(until=2.5)
        handle.stop()
        sim.run()
        assert trace == [0.0, 1.0, 2.0]
        assert handle.finished

    def test_process_negative_delay_rejected(self, sim):
        def proc():
            yield -1.0

        with pytest.raises(SimulationError):
            sim.spawn(proc())

    def test_empty_generator_finishes_immediately(self, sim):
        def proc():
            return
            yield  # pragma: no cover

        handle = sim.spawn(proc())
        assert handle.finished


class TestSameTimestampCancellation:
    """The drain helper must drop events cancelled at their own timestamp."""

    def test_cancel_sibling_event_at_same_time_never_fires(self, sim):
        fired = []
        victim = sim.schedule(1.0, lambda: fired.append("victim"))
        # Same timestamp, earlier insertion: runs first and cancels the
        # sibling before the loop reaches it.
        sim.schedule(1.0, lambda: victim.cancel(), priority=-1)
        sim.run()
        assert fired == []

    def test_cancel_timer_inside_same_timestamp_callback(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append("timer"))
        timer.arm(1.0)
        sim.schedule(1.0, timer.cancel, priority=-1)
        sim.run()
        assert fired == []
        assert not timer.armed

    def test_step_skips_event_cancelled_at_same_time(self, sim):
        fired = []
        victim = sim.schedule(1.0, lambda: fired.append("victim"))
        sim.schedule(1.0, lambda: victim.cancel(), priority=-1)
        assert sim.step() is True   # the canceller
        assert sim.step() is False  # victim was drained, not executed
        assert fired == []

    def test_peek_drains_cancelled_head(self, sim):
        early = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        early.cancel()
        assert sim.peek() == 2.0
        # The cancelled head was physically removed by the drain.
        assert sim.pending == 1

    def test_run_until_does_not_execute_cancelled_future_event(self, sim):
        fired = []
        future = sim.schedule(5.0, lambda: fired.append("future"))
        future.cancel()
        sim.run(until=3.0)
        assert sim.now == 3.0
        assert fired == []
        sim.run()
        assert fired == []

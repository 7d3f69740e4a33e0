"""Tests for the multi-batch delivery scheduler."""

import pytest

from repro.core import MultiBatchScheduler, quadrocopter_scenario


class TestMultiBatchScheduler:
    def test_unconstrained_schedule_is_stationary(self, quad_scenario):
        """Stationary hazard -> identical per-round decision (paper §2)."""
        scheduler = MultiBatchScheduler(
            quad_scenario, sensing_time_s=60.0, range_budget_m=1e6
        )
        schedule = scheduler.plan(5)
        assert schedule.complete
        assert schedule.stationary
        assert schedule.completed_batches == 5

    def test_total_delay_is_sum_of_rounds(self, quad_scenario):
        scheduler = MultiBatchScheduler(
            quad_scenario, sensing_time_s=60.0, range_budget_m=1e6
        )
        schedule = scheduler.plan(4)
        assert schedule.total_delay_s == pytest.approx(
            sum(r.decision.cdelay_s for r in schedule.rounds)
        )

    def test_budget_decreases_monotonically(self, quad_scenario):
        scheduler = MultiBatchScheduler(
            quad_scenario, sensing_time_s=60.0, range_budget_m=5000.0
        )
        schedule = scheduler.plan(5)
        budgets = [r.range_budget_after_m for r in schedule.rounds]
        assert all(b < a for a, b in zip(budgets, budgets[1:]))

    def test_tight_budget_forces_remote_transmission(self):
        """When the battery cannot afford the full approach, later
        rounds transmit from further away (battery_limited flag)."""
        scenario = quadrocopter_scenario()
        # Each unconstrained round costs 270 m (sensing) + 160 m (gap
        # out and back); give a budget that only affords one full round.
        scheduler = MultiBatchScheduler(
            scenario, sensing_time_s=60.0, range_budget_m=700.0
        )
        schedule = scheduler.plan(2)
        assert schedule.rounds[0].battery_limited is False
        assert schedule.rounds[1].battery_limited is True
        assert (
            schedule.rounds[1].decision.distance_m
            > schedule.rounds[0].decision.distance_m
        )

    def test_exhausted_budget_truncates_schedule(self, quad_scenario):
        scheduler = MultiBatchScheduler(
            quad_scenario, sensing_time_s=60.0, range_budget_m=300.0
        )
        schedule = scheduler.plan(10)
        assert not schedule.complete
        assert schedule.completed_batches < 10

    def test_default_budget_is_platform_range(self, air_scenario):
        scheduler = MultiBatchScheduler(air_scenario)
        assert scheduler.range_budget_m == air_scenario.platform.battery_range_m

    def test_round_trip_accounting(self, quad_scenario):
        scheduler = MultiBatchScheduler(
            quad_scenario, sensing_time_s=0.0, range_budget_m=1e6
        )
        schedule = scheduler.plan(1)
        round_ = schedule.rounds[0]
        gap = quad_scenario.contact_distance_m - round_.decision.distance_m
        assert round_.round_trip_m == pytest.approx(2 * gap)

    def test_validation(self, quad_scenario):
        with pytest.raises(ValueError):
            MultiBatchScheduler(quad_scenario, sensing_time_s=-1.0)
        with pytest.raises(ValueError):
            MultiBatchScheduler(quad_scenario, range_budget_m=0.0)
        with pytest.raises(ValueError):
            MultiBatchScheduler(quad_scenario).plan(0)

    def test_airplane_schedule_runs(self, air_scenario):
        schedule = MultiBatchScheduler(
            air_scenario, sensing_time_s=120.0
        ).plan(3)
        assert schedule.completed_batches >= 1

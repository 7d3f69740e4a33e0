"""Tests for the rendezvous planners."""

import pytest

from repro.core import HolisticPlanner, RendezvousPlanner
from repro.geo import EnuPoint


@pytest.fixture
def planner(quad_scenario):
    return RendezvousPlanner(quad_scenario)


class TestRendezvousPlanner:
    def test_plan_matches_scenario_solution(self, planner, quad_scenario):
        sender = EnuPoint(100.0, 0.0, 10.0)
        receiver = EnuPoint(0.0, 0.0, 10.0)
        plan = planner.plan(sender, receiver)
        assert plan.decision.distance_m == pytest.approx(
            quad_scenario.solve().distance_m, abs=1.0
        )

    def test_sender_waypoint_at_optimal_distance(self, planner):
        sender = EnuPoint(100.0, 0.0, 10.0)
        receiver = EnuPoint(0.0, 0.0, 10.0)
        plan = planner.plan(sender, receiver)
        d = plan.sender_waypoint.position.distance_to(receiver)
        assert d == pytest.approx(plan.decision.distance_m, abs=0.5)

    def test_receiver_holds_position(self, planner):
        sender = EnuPoint(100.0, 0.0, 10.0)
        receiver = EnuPoint(0.0, 0.0, 10.0)
        plan = planner.plan(sender, receiver)
        assert plan.receiver_waypoint.position.distance_to(receiver) == 0.0
        assert plan.receiver_waypoint.hold_s >= plan.decision.cdelay_s

    def test_sender_waypoint_on_segment(self, planner):
        sender = EnuPoint(60.0, 80.0, 10.0)
        receiver = EnuPoint(0.0, 0.0, 10.0)
        plan = planner.plan(sender, receiver)
        wp = plan.sender_waypoint.position
        # Collinearity: distance(sender, wp) + distance(wp, receiver)
        # equals distance(sender, receiver).
        total = sender.distance_to(wp) + wp.distance_to(receiver)
        assert total == pytest.approx(sender.distance_to(receiver), abs=0.01)

    def test_custom_data_size(self, planner):
        sender = EnuPoint(100.0, 0.0, 10.0)
        receiver = EnuPoint(0.0, 0.0, 10.0)
        small = planner.plan(sender, receiver, data_bits=1e6)
        assert small.decision.distance_m > planner.plan(sender, receiver).decision.distance_m

    def test_close_contact_clamped_to_floor(self, planner):
        sender = EnuPoint(5.0, 0.0, 10.0)
        receiver = EnuPoint(0.0, 0.0, 10.0)
        plan = planner.plan(sender, receiver)
        assert plan.decision.contact_distance_m == 20.0


class TestHolisticPlanner:
    def test_beats_single_mover_on_delay(self, quad_scenario):
        sender = EnuPoint(100.0, 0.0, 10.0)
        receiver = EnuPoint(0.0, 0.0, 10.0)
        single = RendezvousPlanner(quad_scenario).plan(sender, receiver)
        both = HolisticPlanner(quad_scenario).plan(sender, receiver)
        assert both.decision.cdelay_s <= single.decision.cdelay_s + 1e-9

    def test_both_waypoints_move(self, quad_scenario):
        sender = EnuPoint(100.0, 0.0, 10.0)
        receiver = EnuPoint(0.0, 0.0, 10.0)
        plan = HolisticPlanner(quad_scenario).plan(sender, receiver)
        assert plan.sender_waypoint.position.distance_to(sender) > 1.0
        assert plan.receiver_waypoint.position.distance_to(receiver) > 1.0

    def test_final_separation_matches_decision(self, quad_scenario):
        sender = EnuPoint(100.0, 0.0, 10.0)
        receiver = EnuPoint(0.0, 0.0, 10.0)
        plan = HolisticPlanner(quad_scenario).plan(sender, receiver)
        separation = plan.sender_waypoint.position.distance_to(
            plan.receiver_waypoint.position
        )
        assert separation == pytest.approx(plan.decision.distance_m, abs=0.5)

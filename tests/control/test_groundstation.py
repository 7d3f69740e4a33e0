"""Tests for the ground station / central planner."""

import pytest

from repro.control import (
    ControlChannel,
    GroundStation,
    TelemetryReport,
    WaypointCommand,
)
from repro.core import RendezvousPlanner
from repro.geo import EnuPoint, GeoPoint, LocalFrame


@pytest.fixture
def frame():
    return LocalFrame(GeoPoint(47.3769, 8.5417, 0.0))


@pytest.fixture
def station(sim, frame, quad_scenario):
    channel = ControlChannel(sim)
    return GroundStation(
        sim, channel, frame, planner=RendezvousPlanner(quad_scenario)
    )


def report(frame, name, position, data_bytes=0):
    return TelemetryReport(
        uav_name=name,
        time_s=0.0,
        fix=frame.to_geodetic(position),
        speed_mps=0.0,
        battery_fraction=0.9,
        has_data_bytes=data_bytes,
    )


class TestTelemetryIngestion:
    def test_state_tracked(self, station, frame):
        station.receive_telemetry(report(frame, "tx", EnuPoint(50.0, 0.0, 10.0)))
        state = station.states["tx"]
        assert state.position.east_m == pytest.approx(50.0, abs=0.01)
        assert state.battery_fraction == 0.9

    def test_newer_report_overwrites(self, station, frame):
        station.receive_telemetry(report(frame, "tx", EnuPoint(50.0, 0.0, 10.0)))
        station.receive_telemetry(report(frame, "tx", EnuPoint(60.0, 0.0, 10.0)))
        assert station.states["tx"].position.east_m == pytest.approx(60.0, abs=0.01)


class TestPlanning:
    def test_plan_dispatches_waypoints(self, station, frame, sim):
        received = []
        station.register_uav("tx", received.append)
        station.register_uav("rx", received.append)
        station.receive_telemetry(
            report(frame, "tx", EnuPoint(100.0, 0.0, 10.0), data_bytes=56_200_000)
        )
        station.receive_telemetry(report(frame, "rx", EnuPoint(0.0, 0.0, 10.0)))
        plan = station.plan_transfer("tx", "rx")
        assert plan is not None
        sim.run()
        assert len(received) == 2
        assert all(isinstance(cmd, WaypointCommand) for cmd in received)

    def test_plan_uses_reported_data_size(self, station, frame, sim):
        station.receive_telemetry(
            report(frame, "tx", EnuPoint(100.0, 0.0, 10.0), data_bytes=1_000)
        )
        station.receive_telemetry(report(frame, "rx", EnuPoint(0.0, 0.0, 10.0)))
        plan = station.plan_transfer("tx", "rx")
        # A 1 kB batch is not worth flying for.
        assert plan.decision.transmit_immediately

    def test_unknown_uav_returns_none(self, station):
        assert station.plan_transfer("ghost", "rx") is None

    def test_no_planner_returns_none(self, sim, frame):
        station = GroundStation(sim, ControlChannel(sim), frame, planner=None)
        assert station.plan_transfer("a", "b") is None

    def test_plans_recorded(self, station, frame):
        station.receive_telemetry(
            report(frame, "tx", EnuPoint(100.0, 0.0, 10.0), data_bytes=56_200_000)
        )
        station.receive_telemetry(report(frame, "rx", EnuPoint(0.0, 0.0, 10.0)))
        station.plan_transfer("tx", "rx")
        assert len(station.plans) == 1


class TestTelemetryValidation:
    def test_invalid_battery_rejected(self, frame):
        with pytest.raises(ValueError):
            TelemetryReport(
                "u", 0.0, frame.to_geodetic(EnuPoint(0, 0, 0)), 0.0, 1.5
            )

    def test_negative_speed_rejected(self, frame):
        with pytest.raises(ValueError):
            TelemetryReport(
                "u", 0.0, frame.to_geodetic(EnuPoint(0, 0, 0)), -1.0, 0.5
            )

    def test_telemetry_message_wrapping(self, station, frame):
        rep = report(frame, "tx", EnuPoint(0, 0, 0))
        message = station.telemetry_message(rep)
        assert message.sender == "tx"
        assert message.payload is rep

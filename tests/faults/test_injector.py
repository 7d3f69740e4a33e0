"""Tests for the kernel-driven fault injector and crash sampling."""

import math

import pytest

from repro.airframe import Battery
from repro.core import quadrocopter_scenario
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    sample_crash_distance_for_platform,
    sample_crash_distance_m,
)
from repro.geo import GeoPoint, GpsReceiver, LocalFrame
from repro.obs import EventLog
from repro.sim import RandomStreams, Simulator


class TestFaultInjector:
    def test_empty_plan_schedules_nothing(self):
        sim = Simulator()
        injector = FaultInjector(sim, FaultPlan())
        injector.arm()
        sim.run()
        assert sim.events_processed == 0
        assert injector.fired == []

    def test_rearm_rejected(self):
        injector = FaultInjector(Simulator(), FaultPlan())
        injector.arm()
        with pytest.raises(RuntimeError, match="already armed"):
            injector.arm()

    def test_fired_log_in_time_order_with_telemetry(self):
        plan = (
            FaultPlan()
            .add(FaultSpec("node_loss", 4.0))
            .with_outage(1.0, 2.0)
            .add(FaultSpec("battery_brownout", 6.0, magnitude=0.5))
        )
        sim = Simulator()
        events = EventLog()
        injector = FaultInjector(sim, plan, events=events)
        injector.arm()
        sim.run()
        assert injector.fired == [
            (1.0, "link_outage"),
            (4.0, "node_loss"),
            (6.0, "battery_brownout"),
        ]
        assert events.kinds() == {
            "fault.battery_brownout": 1,
            "fault.link_outage": 1,
            "fault.node_loss": 1,
        }

    def test_node_loss_fires_once(self):
        plan = FaultPlan(
            faults=(FaultSpec("node_loss", 2.0), FaultSpec("node_loss", 5.0))
        )
        sim = Simulator()
        injector = FaultInjector(sim, plan)
        hits = []
        injector.on_node_loss(hits.append)
        injector.arm()
        sim.run()
        assert injector.node_lost
        assert injector.node_lost_at_s == 2.0
        assert len(hits) == 1
        assert hits[0].at_s == 2.0

    def test_battery_brownout_applied(self):
        battery = Battery(quadrocopter_scenario().platform)
        plan = FaultPlan().add(FaultSpec("battery_brownout", 3.0, magnitude=0.25))
        sim = Simulator()
        injector = FaultInjector(sim, plan)
        injector.attach_battery(battery)
        injector.arm()
        sim.run()
        assert battery.fraction == pytest.approx(0.75)

    def test_gps_degradation_window(self):
        frame = LocalFrame(GeoPoint(47.3769, 8.5417, 400.0))
        receiver = GpsReceiver(frame, RandomStreams(3).get("geo.gps"))
        plan = FaultPlan().add(
            FaultSpec("gps_degradation", 2.0, duration_s=3.0, magnitude=4.0)
        )
        sim = Simulator()
        injector = FaultInjector(sim, plan)
        injector.attach_gps(receiver)
        injector.arm()
        observed = []
        sim.schedule(3.5, lambda: observed.append(receiver.degradation))
        sim.run()
        assert observed == [4.0]  # degraded inside the window...
        assert receiver.degradation == 1.0  # ...restored after it


class TestCrashSampling:
    def test_deterministic_per_stream(self):
        def draw():
            rng = RandomStreams(5).get("faults.crash")
            return sample_crash_distance_m(rng, 2.46e-4)

        assert draw() == draw()

    def test_mean_matches_inverse_rate(self):
        rng = RandomStreams(9).get("faults.crash")
        rho = 2.46e-4
        samples = [sample_crash_distance_m(rng, rho) for _ in range(4000)]
        mean = sum(samples) / len(samples)
        assert math.isclose(mean, 1.0 / rho, rel_tol=0.05)

    def test_rejects_nonpositive_rate(self):
        rng = RandomStreams(1).get("faults.crash")
        with pytest.raises(ValueError, match="positive"):
            sample_crash_distance_m(rng, 0.0)

    def test_platform_helper_uses_paper_rho(self):
        # quadrocopter: rho = 1 / (900 s * 4.5 m/s) = 2.469e-4 per metre.
        platform = quadrocopter_scenario().platform
        rng = RandomStreams(2).get("faults.crash")
        samples = [
            sample_crash_distance_for_platform(rng, platform)
            for _ in range(4000)
        ]
        mean = sum(samples) / len(samples)
        assert math.isclose(mean, 900.0 * 4.5, rel_tol=0.05)

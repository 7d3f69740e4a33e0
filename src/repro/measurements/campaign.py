"""Simulated measurement campaigns (the paper's Section 3 field tests).

Each campaign flies real :class:`~repro.airframe.Uav` objects through
the waypoint patterns described in the paper, measures the link with
the iperf-style estimator, computes inter-UAV distance the way the
testbed did (Haversine on noisy GPS fixes), and reduces the readings to
per-distance-bin boxplot statistics:

* :class:`AirplaneFlybyCampaign` — two Swinglets shuttling between far
  waypoints at 80 m and 100 m altitude, passing each other at relative
  speeds of 15-26 m/s (Figs. 4a, 5, 6).
* :class:`QuadHoverCampaign` — two Arducopters hovering at 10 m
  altitude, separations 20-80 m (Figs. 4b, 7 left).
* :class:`QuadApproachCampaign` — one quadrocopter repeatedly closing
  on a hovering one at ~8 m/s while transmitting (Fig. 7 centre).
* :class:`QuadSpeedCampaign` — transmitting at different cruise speeds
  at ~60 m distance (Fig. 7 right).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..airframe.autopilot import Uav
from ..airframe.platform import AIRPLANE, QUADROCOPTER
from ..channel.channel import (
    AerialChannel,
    ChannelProfile,
    airplane_profile,
    quadrocopter_profile,
)
from ..geo.coords import EnuPoint, GeoPoint, LocalFrame
from ..geo.gps import GpsReceiver
from ..geo.haversine import slant_range_m
from ..geo.trajectory import Trace, Waypoint
from ..net.link import WirelessLink
from ..phy.rate_control import ArfController, RateController
from ..sim.monitor import SummaryStats
from ..sim.random import RandomStreams

__all__ = [
    "CampaignResult",
    "AirplaneFlybyCampaign",
    "QuadHoverCampaign",
    "QuadApproachCampaign",
    "QuadSpeedCampaign",
    "default_controller_factory",
]

ControllerFactory = Callable[[RandomStreams], RateController]


def default_controller_factory(streams: RandomStreams) -> RateController:
    """The testbed's auto-rate behaviour (vendor ARF)."""
    return ArfController()


@dataclass
class CampaignResult:
    """Per-bin throughput statistics plus the recorded flight traces."""

    #: Map from bin key (distance in m, or speed in m/s) to its samples.
    samples: Dict[float, List[float]] = field(default_factory=dict)
    traces: List[Trace] = field(default_factory=list)

    def add_sample(self, key: float, throughput_bps: float) -> None:
        """Record one per-interval throughput reading under ``key``."""
        self.samples.setdefault(key, []).append(float(throughput_bps))

    def keys(self) -> List[float]:
        """Sorted bin keys with at least one sample."""
        return sorted(self.samples)

    def stats(self, key: float) -> SummaryStats:
        """Boxplot summary for one bin."""
        return SummaryStats.from_samples(self.samples[key])

    def medians_mbps(self) -> Dict[float, float]:
        """Median throughput (Mb/s) per bin."""
        return {
            key: float(np.median(values)) / 1e6
            for key, values in sorted(self.samples.items())
        }


def _bin_distance(distance_m: float, width_m: float, max_m: float) -> Optional[float]:
    """Snap a distance to the nearest bin centre; None when out of range."""
    if distance_m <= 0 or distance_m > max_m + width_m / 2:
        return None
    centre = round(distance_m / width_m) * width_m
    if centre <= 0 or centre > max_m:
        return None
    return float(centre)


class _LinkedPair:
    """Two UAVs with a measured link between them."""

    def __init__(
        self,
        profile: ChannelProfile,
        streams: RandomStreams,
        controller_factory: ControllerFactory,
        origin: GeoPoint = GeoPoint(47.3769, 8.5417, 400.0),
    ) -> None:
        self.streams = streams
        self.frame = LocalFrame(origin)
        self.channel = AerialChannel(profile, streams)
        self.link = WirelessLink(
            self.channel, controller_factory(streams), streams=streams
        )
        self.gps_a = GpsReceiver(self.frame, streams.get("gps.a"))
        self.gps_b = GpsReceiver(self.frame, streams.get("gps.b"))

    def measured_distance(self, now_s: float, a: Uav, b: Uav) -> float:
        """Inter-UAV distance: Haversine + altitude on noisy GPS fixes."""
        fix_a = self.gps_a.fix(now_s, a.position)
        fix_b = self.gps_b.fix(now_s, b.position)
        return slant_range_m(fix_a, fix_b)


class AirplaneFlybyCampaign:
    """Two airplanes shuttling between waypoints, passing each other.

    Reproduces the Fig. 4(a) geometry: straight legs of ~500 m flown in
    anti-phase at 80 m and 100 m altitude, yielding pass-bys with
    relative speeds around twice the cruise speed and separations
    sweeping 20-400 m.
    """

    def __init__(
        self,
        seed: int = 0,
        n_passes: int = 8,
        leg_half_length_m: float = 210.0,
        lateral_offset_m: float = 10.0,
        bin_width_m: float = 20.0,
        max_bin_m: float = 320.0,
        tick_s: float = 0.1,
        controller_factory: ControllerFactory = default_controller_factory,
        profile: Optional[ChannelProfile] = None,
    ) -> None:
        if n_passes < 1:
            raise ValueError("n_passes must be >= 1")
        self.seed = seed
        self.n_passes = n_passes
        self.leg_half_length_m = leg_half_length_m
        self.lateral_offset_m = lateral_offset_m
        self.bin_width_m = bin_width_m
        self.max_bin_m = max_bin_m
        self.tick_s = tick_s
        self.controller_factory = controller_factory
        self.profile = profile if profile is not None else airplane_profile()

    def run(self) -> CampaignResult:
        """Fly the passes and return binned throughput statistics."""
        streams = RandomStreams(self.seed)
        pair = _LinkedPair(self.profile, streams, self.controller_factory)
        half = self.leg_half_length_m
        east = EnuPoint(half, 0.0, 80.0)
        west = EnuPoint(-half, 0.0, 80.0)
        east_hi = EnuPoint(half, self.lateral_offset_m, 100.0)
        west_hi = EnuPoint(-half, self.lateral_offset_m, 100.0)

        a = Uav("airplane-a", AIRPLANE, west, heading_rad=math.pi / 2)
        b = Uav("airplane-b", AIRPLANE, east_hi, heading_rad=-math.pi / 2)
        mission_a: List[Waypoint] = []
        mission_b: List[Waypoint] = []
        for _ in range(self.n_passes):
            mission_a.extend(
                [Waypoint(east, acceptance_radius_m=15.0),
                 Waypoint(west, acceptance_radius_m=15.0)]
            )
            mission_b.extend(
                [Waypoint(west_hi, acceptance_radius_m=15.0),
                 Waypoint(east_hi, acceptance_radius_m=15.0)]
            )
        a.autopilot.load_mission(mission_a)
        b.autopilot.load_mission(mission_b)

        result = CampaignResult()
        now = 0.0
        interval_bytes = 0
        interval_distances: List[float] = []
        last_distance: Optional[float] = None
        while not (a.autopilot.mission_complete and b.autopilot.mission_complete):
            a.tick(now, self.tick_s)
            b.tick(now, self.tick_s)
            now += self.tick_s
            distance = pair.measured_distance(now, a, b)
            if last_distance is None:
                rel_speed = 0.0
            else:
                rel_speed = abs(distance - last_distance) / self.tick_s
            last_distance = distance
            step = pair.link.step(
                now,
                distance_m=max(distance, self.profile.min_distance_m),
                relative_speed_mps=min(rel_speed, 40.0),
                duration_s=self.tick_s,
            )
            interval_bytes += step.bytes_delivered
            interval_distances.append(distance)
            if len(interval_distances) >= int(round(1.0 / self.tick_s)):
                throughput = interval_bytes * 8.0
                mean_distance = float(np.mean(interval_distances))
                key = _bin_distance(mean_distance, self.bin_width_m, self.max_bin_m)
                if key is not None:
                    result.add_sample(key, throughput)
                interval_bytes = 0
                interval_distances = []
        result.traces = [a.trace, b.trace]
        return result


class QuadHoverCampaign:
    """Two hovering quadrocopters at a fixed separation (Fig. 7 left)."""

    def __init__(
        self,
        seed: int = 0,
        distances_m: Sequence[float] = (20.0, 40.0, 60.0, 80.0),
        duration_s: float = 60.0,
        altitude_m: float = 10.0,
        n_replicas: int = 3,
        controller_factory: ControllerFactory = default_controller_factory,
        profile: Optional[ChannelProfile] = None,
    ) -> None:
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        self.seed = seed
        self.distances_m = list(distances_m)
        self.duration_s = duration_s
        self.altitude_m = altitude_m
        self.n_replicas = n_replicas
        self.controller_factory = controller_factory
        self.profile = profile if profile is not None else quadrocopter_profile()

    def run(self) -> CampaignResult:
        """Hover at each separation and collect per-second readings."""
        result = CampaignResult()
        cases = [
            (distance, replica)
            for distance in self.distances_m
            for replica in range(self.n_replicas)
        ]
        for i, (distance, _replica) in enumerate(cases):
            streams = RandomStreams(self.seed).fork(i + 1)
            pair = _LinkedPair(self.profile, streams, self.controller_factory)
            a = Uav("quad-a", QUADROCOPTER, EnuPoint(0.0, 0.0, self.altitude_m))
            b = Uav(
                "quad-b", QUADROCOPTER, EnuPoint(distance, 0.0, self.altitude_m)
            )
            hold = Waypoint(a.position, hold_s=self.duration_s)
            hold_b = Waypoint(b.position, hold_s=self.duration_s)
            a.autopilot.load_mission([hold])
            b.autopilot.load_mission([hold_b])
            now = 0.0
            tick = 0.1
            interval_bytes = 0
            ticks_per_interval = int(round(1.0 / tick))
            n_ticks = 0
            while now < self.duration_s:
                a.tick(now, tick)
                b.tick(now, tick)
                now += tick
                measured = pair.measured_distance(now, a, b)
                step = pair.link.step(
                    now,
                    distance_m=max(measured, self.profile.min_distance_m),
                    relative_speed_mps=0.0,
                    duration_s=tick,
                )
                interval_bytes += step.bytes_delivered
                n_ticks += 1
                if n_ticks >= ticks_per_interval:
                    result.add_sample(float(distance), interval_bytes * 8.0)
                    interval_bytes = 0
                    n_ticks = 0
            result.traces.extend([a.trace, b.trace])
        return result


class QuadApproachCampaign:
    """A quadrocopter transmits while closing on a hovering one.

    Reproduces the 'moving' tests of Fig. 7 (centre): repeated
    approaches at ~8 m/s from ``start_distance_m`` down to the safety
    floor, readings binned by distance.
    """

    def __init__(
        self,
        seed: int = 0,
        n_approaches: int = 12,
        start_distance_m: float = 90.0,
        stop_distance_m: float = 10.0,
        approach_speed_mps: float = 8.0,
        bin_width_m: float = 20.0,
        altitude_m: float = 10.0,
        controller_factory: ControllerFactory = default_controller_factory,
        profile: Optional[ChannelProfile] = None,
    ) -> None:
        if stop_distance_m >= start_distance_m:
            raise ValueError("stop distance must be below start distance")
        self.seed = seed
        self.n_approaches = n_approaches
        self.start_distance_m = start_distance_m
        self.stop_distance_m = stop_distance_m
        self.approach_speed_mps = approach_speed_mps
        self.bin_width_m = bin_width_m
        self.altitude_m = altitude_m
        self.controller_factory = controller_factory
        self.profile = profile if profile is not None else quadrocopter_profile()

    def run(self) -> CampaignResult:
        """Fly the approaches and return distance-binned statistics."""
        result = CampaignResult()
        for i in range(self.n_approaches):
            streams = RandomStreams(self.seed).fork(i + 1)
            pair = _LinkedPair(self.profile, streams, self.controller_factory)
            target = Uav("quad-rx", QUADROCOPTER, EnuPoint(0.0, 0.0, self.altitude_m))
            mover = Uav(
                "quad-tx",
                QUADROCOPTER,
                EnuPoint(self.start_distance_m, 0.0, self.altitude_m),
            )
            target.autopilot.load_mission([Waypoint(target.position, hold_s=120.0)])
            mover.autopilot.load_mission(
                [
                    Waypoint(
                        EnuPoint(self.stop_distance_m, 0.0, self.altitude_m),
                        speed_mps=self.approach_speed_mps,
                        acceptance_radius_m=2.0,
                    )
                ]
            )
            now = 0.0
            tick = 0.1
            interval_bytes = 0
            interval_distances: List[float] = []
            while not mover.autopilot.mission_complete and now < 120.0:
                target.tick(now, tick)
                mover.tick(now, tick)
                now += tick
                measured = pair.measured_distance(now, target, mover)
                step = pair.link.step(
                    now,
                    distance_m=max(measured, self.profile.min_distance_m),
                    relative_speed_mps=mover.speed_mps,
                    duration_s=tick,
                )
                interval_bytes += step.bytes_delivered
                interval_distances.append(measured)
                if len(interval_distances) >= int(round(1.0 / tick)):
                    key = _bin_distance(
                        float(np.mean(interval_distances)),
                        self.bin_width_m,
                        self.start_distance_m,
                    )
                    if key is not None:
                        result.add_sample(key, interval_bytes * 8.0)
                    interval_bytes = 0
                    interval_distances = []
            result.traces.append(mover.trace)
        return result


class QuadSpeedCampaign:
    """Throughput vs cruise speed at ~60 m separation (Fig. 7 right).

    The transmitter shuttles along a line offset laterally from the
    hovering receiver, so the separation stays near the target distance
    while the airspeed takes the commanded value.
    """

    def __init__(
        self,
        seed: int = 0,
        speeds_mps: Sequence[float] = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 15.0),
        distance_m: float = 60.0,
        shuttle_half_length_m: float = 20.0,
        duration_s: float = 50.0,
        altitude_m: float = 10.0,
        controller_factory: ControllerFactory = default_controller_factory,
        profile: Optional[ChannelProfile] = None,
    ) -> None:
        self.seed = seed
        self.speeds_mps = list(speeds_mps)
        self.distance_m = distance_m
        self.shuttle_half_length_m = shuttle_half_length_m
        self.duration_s = duration_s
        self.altitude_m = altitude_m
        self.controller_factory = controller_factory
        self.profile = profile if profile is not None else quadrocopter_profile()

    def run(self) -> CampaignResult:
        """Measure each commanded speed; bin keys are speeds in m/s."""
        result = CampaignResult()
        for i, speed in enumerate(self.speeds_mps):
            streams = RandomStreams(self.seed).fork(i + 1)
            pair = _LinkedPair(self.profile, streams, self.controller_factory)
            rx = Uav("quad-rx", QUADROCOPTER, EnuPoint(0.0, 0.0, self.altitude_m))
            tx = Uav(
                "quad-tx",
                QUADROCOPTER,
                EnuPoint(-self.shuttle_half_length_m, self.distance_m, self.altitude_m),
            )
            rx.autopilot.load_mission(
                [Waypoint(rx.position, hold_s=self.duration_s + 10.0)]
            )
            if speed > 0:
                ends = [
                    EnuPoint(self.shuttle_half_length_m, self.distance_m, self.altitude_m),
                    EnuPoint(-self.shuttle_half_length_m, self.distance_m, self.altitude_m),
                ]
                mission = []
                # Enough shuttle legs to outlast the measurement window.
                legs = int(
                    math.ceil(
                        self.duration_s
                        * speed
                        / (2.0 * self.shuttle_half_length_m)
                    )
                ) + 2
                for leg in range(legs):
                    mission.append(
                        Waypoint(ends[leg % 2], speed_mps=speed,
                                 acceptance_radius_m=2.0)
                    )
                tx.autopilot.load_mission(mission)
            else:
                tx.autopilot.load_mission(
                    [Waypoint(tx.position, hold_s=self.duration_s + 10.0)]
                )
            now = 0.0
            tick = 0.1
            interval_bytes = 0
            n_ticks = 0
            while now < self.duration_s:
                rx.tick(now, tick)
                tx.tick(now, tick)
                now += tick
                measured = pair.measured_distance(now, rx, tx)
                step = pair.link.step(
                    now,
                    distance_m=max(measured, self.profile.min_distance_m),
                    relative_speed_mps=tx.speed_mps,
                    duration_s=tick,
                )
                interval_bytes += step.bytes_delivered
                n_ticks += 1
                if n_ticks >= int(round(1.0 / tick)):
                    result.add_sample(float(speed), interval_bytes * 8.0)
                    interval_bytes = 0
                    n_ticks = 0
            result.traces.append(tx.trace)
        return result

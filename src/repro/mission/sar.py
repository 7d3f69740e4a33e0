"""End-to-end search-and-rescue mission simulation.

The full loop the paper motivates: a sensing UAV sweeps its sector
collecting imagery, then ferries the batch to a hovering relay UAV and
transmits over the simulated 802.11n link; an in-flight failure may end
the mission.  Three delivery policies are compared:

* ``"optimal"`` — the paper's contribution: ship to ``dopt`` solving
  Eq. 2, then hover and transmit.
* ``"immediate"`` — transmit from wherever the sweep ended (the
  'transmit as soon as possible' temptation).
* ``"closest"`` — always close to the safety floor first (pure delay
  minimisation, ignoring the failure risk).

Each episode reports the communication delay and the delivered
fraction, so the delayed-gratification tradeoff can be evaluated on the
full simulated system rather than on the analytic model alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..airframe.autopilot import Uav
from ..channel.channel import AerialChannel
from ..core.mission import CameraModel
from ..core.planner import RendezvousPlanner
from ..core.scenario import Scenario, quadrocopter_scenario
from ..geo.coords import EnuPoint
from ..geo.trajectory import Waypoint
from ..net.link import WirelessLink
from ..net.packets import ImageBatch
from ..phy.rate_control import ArfController
from ..sim.random import RandomStreams
from .lawnmower import lawnmower_waypoints, strip_width_m

__all__ = ["EpisodeResult", "MissionSummary", "SarMissionSim", "POLICIES"]

POLICIES = ("optimal", "immediate", "closest")


@dataclass(frozen=True)
class EpisodeResult:
    """Outcome of one scan-and-deliver episode."""

    policy: str
    scan_time_s: float
    communication_delay_s: Optional[float]
    delivered_fraction: float
    failed: bool
    transmit_distance_m: Optional[float]
    battery_used_fraction: float


@dataclass
class MissionSummary:
    """Aggregate over many episodes of one policy."""

    policy: str
    episodes: List[EpisodeResult] = field(default_factory=list)

    @property
    def n_episodes(self) -> int:
        """Number of completed episodes."""
        return len(self.episodes)

    @property
    def mean_delivered_fraction(self) -> float:
        """Average fraction of each batch that reached the relay."""
        return float(np.mean([e.delivered_fraction for e in self.episodes]))

    @property
    def mean_communication_delay_s(self) -> float:
        """Mean delay among episodes that finished delivery."""
        done = [
            e.communication_delay_s
            for e in self.episodes
            if e.communication_delay_s is not None
        ]
        return float(np.mean(done)) if done else float("nan")

    @property
    def failure_rate(self) -> float:
        """Fraction of episodes ending in a crash."""
        return float(np.mean([e.failed for e in self.episodes]))

    @property
    def mean_realized_utility(self) -> float:
        """Empirical counterpart of the paper's U: E[fraction / delay].

        Failed or unfinished episodes contribute zero, mirroring the
        discount term of Eq. 1.
        """
        values = []
        for e in self.episodes:
            if e.communication_delay_s and e.communication_delay_s > 0:
                values.append(e.delivered_fraction / e.communication_delay_s)
            else:
                values.append(0.0)
        return float(np.mean(values))


class SarMissionSim:
    """Simulates scan-and-deliver episodes under a chosen policy."""

    def __init__(
        self,
        scenario: Optional[Scenario] = None,
        seed: int = 0,
        sector_side_m: float = 100.0,
        relay_position: Optional[EnuPoint] = None,
        tick_s: float = 0.1,
        failure_rate_per_m: Optional[float] = None,
    ) -> None:
        self.scenario = scenario if scenario is not None else quadrocopter_scenario()
        self.seed = seed
        self.sector_side_m = sector_side_m
        self.altitude_m = min(
            self.scenario.mission.altitude_m,
            self.scenario.platform.max_safe_altitude_m,
        )
        self.relay_position = (
            relay_position
            if relay_position is not None
            else EnuPoint(0.0, 0.0, self.altitude_m)
        )
        self.tick_s = tick_s
        self.failure_rate_per_m = (
            failure_rate_per_m
            if failure_rate_per_m is not None
            else self.scenario.failure_rate_per_m
        )
        # The planner must optimise against the hazard actually in force.
        self._planner = RendezvousPlanner(
            self.scenario.with_failure_rate(self.failure_rate_per_m)
        )

    # ------------------------------------------------------------------
    def run(self, policy: str, n_episodes: int = 10) -> MissionSummary:
        """Run ``n_episodes`` scan-and-deliver cycles under ``policy``."""
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
        summary = MissionSummary(policy)
        for episode in range(n_episodes):
            streams = RandomStreams(self.seed).fork(episode + 1)
            summary.episodes.append(self._episode(policy, streams))
        return summary

    # ------------------------------------------------------------------
    def _episode(self, policy: str, streams: RandomStreams) -> EpisodeResult:
        rng = streams.get("mission.failures")
        sensor = Uav(
            "sensor",
            self.scenario.platform,
            EnuPoint(
                self.relay_position.east_m + self.scenario.contact_distance_m,
                self.relay_position.north_m + 30.0,
                self.altitude_m,
            ),
        )
        camera: CameraModel = self.scenario.mission.camera
        strip = strip_width_m(camera, self.altitude_m)
        sweep = lawnmower_waypoints(
            EnuPoint(
                sensor.position.east_m,
                sensor.position.north_m,
                self.altitude_m,
            ),
            self.sector_side_m,
            self.sector_side_m,
            self.altitude_m,
            strip,
        )
        sensor.autopilot.load_mission(sweep)

        now = 0.0
        # Phase 1: scan the sector.  The paper's hazard model covers the
        # *delivery* flight (the delta(d) discount), so the sweep itself
        # is not subject to the per-metre failure draw.
        while not sensor.autopilot.mission_complete and sensor.alive:
            sensor.tick(now, self.tick_s, record_trace=False)
            now += self.tick_s
            if now > 3600.0:
                break
        scan_time = now

        batch = ImageBatch(0, int(self.scenario.data_bits / 8))

        # Phase 2: pick the transmit distance per policy.
        d_now = max(
            sensor.position.distance_to(self.relay_position),
            self.scenario.min_distance_m,
        )
        if policy == "optimal":
            plan = self._planner.plan(
                sensor.position, self.relay_position, self.scenario.data_bits
            )
            target_d = plan.decision.distance_m
        elif policy == "closest":
            target_d = self.scenario.min_distance_m
        else:  # immediate
            target_d = min(d_now, self.scenario.contact_distance_m)

        # Phase 3: ship silently, then hover and transmit over the link.
        channel = AerialChannel(
            self.scenario_channel_profile(), streams, stream_name="mission"
        )
        link = WirelessLink(channel, ArfController(), streams=streams,
                            stream_name="mission.link")
        target_point = self._point_at_distance(sensor.position, target_d)
        sensor.autopilot.load_mission(
            [Waypoint(target_point, acceptance_radius_m=3.0)]
        )
        flown_before = sensor.distance_flown_m
        while not sensor.autopilot.mission_complete and sensor.alive:
            sensor.tick(now, self.tick_s, record_trace=False)
            now += self.tick_s
            if self._failure_strikes(rng, sensor, flown_before):
                return EpisodeResult(
                    policy, scan_time, None, 0.0, True,
                    target_d, 1.0 - sensor.battery.fraction,
                )
            if now - scan_time > 600.0:
                break

        transfer_start = now
        while not batch.complete and now - transfer_start < 600.0:
            distance = max(
                sensor.position.distance_to(self.relay_position),
                self.scenario.min_distance_m,
            )
            step = link.step(
                now,
                distance_m=distance,
                relative_speed_mps=0.0,
                duration_s=self.tick_s,
                backlog_bytes=batch.remaining_bytes,
            )
            batch.deliver(step.bytes_delivered)
            sensor.tick(now, self.tick_s, record_trace=False)
            now += self.tick_s
            if not sensor.alive:
                break

        comm_delay = now - scan_time if batch.complete else None
        return EpisodeResult(
            policy=policy,
            scan_time_s=scan_time,
            communication_delay_s=comm_delay,
            delivered_fraction=batch.delivered_fraction,
            failed=not sensor.alive,
            transmit_distance_m=target_d,
            battery_used_fraction=1.0 - sensor.battery.fraction,
        )

    # ------------------------------------------------------------------
    def scenario_channel_profile(self):
        """Channel profile matching the scenario's platform."""
        from ..channel.channel import airplane_profile, quadrocopter_profile

        if self.scenario.platform.can_hover:
            return quadrocopter_profile()
        return airplane_profile()

    def _point_at_distance(self, frm: EnuPoint, distance_m: float) -> EnuPoint:
        """The point towards the relay at ``distance_m`` from it."""
        total = frm.distance_to(self.relay_position)
        if total <= distance_m:
            return frm
        frac = distance_m / total
        r = self.relay_position
        return EnuPoint(
            r.east_m + (frm.east_m - r.east_m) * frac,
            r.north_m + (frm.north_m - r.north_m) * frac,
            r.up_m + (frm.up_m - r.up_m) * frac,
        )

    def _failure_strikes(
        self, rng: np.random.Generator, uav: Uav, flown_before: float
    ) -> bool:
        """Bernoulli failure per tick from the per-metre hazard."""
        flown_this_tick = uav.speed_mps * self.tick_s
        p_fail = 1.0 - math.exp(-self.failure_rate_per_m * flown_this_tick)
        if rng.random() < p_fail:
            uav.alive = False
            return True
        return False

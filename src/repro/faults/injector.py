"""The fault injector: schedules a plan's events into the sim kernel.

:class:`FaultInjector` turns the declarative
:class:`~repro.faults.plan.FaultPlan` into scheduled callbacks on a
:class:`~repro.sim.kernel.Simulator`: GPS degradation windows toggle
:meth:`~repro.geo.gps.GpsReceiver.set_degradation`, battery brownouts
call :meth:`~repro.airframe.battery.Battery.brownout`, node losses fire
registered callbacks (the chaos runner checkpoints the transfer and
re-solves the decision), and link outages are counted here but *applied*
through the :class:`~repro.faults.outage.OutageSchedule` compiled into
the link engines — keeping the hot path free of kernel callbacks.

Every fired fault lands in :attr:`FaultInjector.fired` (and, with an
event log attached, as a ``fault.<kind>`` event), so chaos reports can
say how much chaos a run actually experienced.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from ..core.failure import failure_rate_from_platform
from ..obs.events import EventLog
from ..sim.kernel import Simulator
from ..sim.random import RandomStreams
from .plan import FaultPlan, FaultSpec

__all__ = [
    "FaultInjector",
    "sample_crash_distance_m",
    "sample_crash_distance_for_platform",
]


def sample_crash_distance_m(
    rng: np.random.Generator, rate_per_m: float
) -> float:
    """Distance flown before the UAV is lost, under the Eq.-1 hazard.

    The paper's discount ``δ(d) = exp(-ρ(d0-d))`` is the survival
    function of an exponential crash distance with rate ``ρ`` per
    metre; sampling that distance is one draw from
    ``Exponential(1/ρ)``.
    """
    if rate_per_m <= 0:
        raise ValueError("rate_per_m must be positive")
    return float(rng.exponential(1.0 / rate_per_m))


def sample_crash_distance_for_platform(
    rng: np.random.Generator, spec, endurance_s: float = 900.0
) -> float:
    """Crash distance for a platform, via ``failure_rate_from_platform``."""
    return sample_crash_distance_m(
        rng, failure_rate_from_platform(spec, endurance_s=endurance_s)
    )


class FaultInjector:
    """Arms a :class:`FaultPlan` on a simulator and tracks what fired."""

    def __init__(
        self,
        sim: Simulator,
        plan: FaultPlan,
        streams: Optional[RandomStreams] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        self.sim = sim
        self.plan = plan
        self.streams = streams
        self.events = events
        self.node_lost = False
        self.node_lost_at_s: Optional[float] = None
        #: ``(time_s, kind)`` log of every fault that fired, in order.
        self.fired: List[Tuple[float, str]] = []
        self._gps_receivers: List = []
        self._batteries: List = []
        self._node_loss_callbacks: List[Callable[[FaultSpec], None]] = []
        self._armed = False

    # ------------------------------------------------------------------
    def attach_gps(self, receiver) -> None:
        """Subject a GPS receiver to ``gps_degradation`` faults."""
        self._gps_receivers.append(receiver)

    def attach_battery(self, battery) -> None:
        """Subject a battery to ``battery_brownout`` faults."""
        self._batteries.append(battery)

    def on_node_loss(self, callback: Callable[[FaultSpec], None]) -> None:
        """Register a callback fired when a ``node_loss`` fault hits."""
        self._node_loss_callbacks.append(callback)

    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Schedule every fault of the plan onto the simulator.

        Idempotent per injector; an empty plan schedules nothing (the
        strict no-op guarantee).
        """
        if self._armed:
            raise RuntimeError("fault plan is already armed")
        self._armed = True
        for spec in self.plan.faults:
            if spec.kind == "gps_degradation":
                self.sim.schedule(
                    spec.at_s, self._make_gps_onset(spec)
                )
                self.sim.schedule(
                    spec.end_s, self._make_gps_restore(spec)
                )
            elif spec.kind == "battery_brownout":
                self.sim.schedule(spec.at_s, self._make_brownout(spec))
            elif spec.kind == "node_loss":
                self.sim.schedule(spec.at_s, self._make_node_loss(spec))
            elif spec.kind == "link_outage":
                # Applied by the OutageSchedule inside the link engine;
                # scheduled here only so the fired log sees the window
                # open.
                self.sim.schedule(spec.at_s, self._make_outage_marker(spec))

    # ------------------------------------------------------------------
    def _record(self, kind: str) -> None:
        self.fired.append((self.sim.now, kind))
        if self.events is not None:
            self.events.emit(f"fault.{kind}", self.sim.now)

    def _make_gps_onset(self, spec: FaultSpec) -> Callable[[], None]:
        def onset() -> None:
            for receiver in self._gps_receivers:
                receiver.set_degradation(spec.magnitude)
            self._record("gps_degradation")

        return onset

    def _make_gps_restore(self, spec: FaultSpec) -> Callable[[], None]:
        def restore() -> None:
            for receiver in self._gps_receivers:
                receiver.set_degradation(1.0)

        return restore

    def _make_brownout(self, spec: FaultSpec) -> Callable[[], None]:
        def brownout() -> None:
            for battery in self._batteries:
                battery.brownout(spec.magnitude)
            self._record("battery_brownout")

        return brownout

    def _make_node_loss(self, spec: FaultSpec) -> Callable[[], None]:
        def node_loss() -> None:
            if self.node_lost:
                return  # a node is only lost once
            self.node_lost = True
            self.node_lost_at_s = self.sim.now
            self._record("node_loss")
            for callback in self._node_loss_callbacks:
                callback(spec)

        return node_loss

    def _make_outage_marker(self, spec: FaultSpec) -> Callable[[], None]:
        def marker() -> None:
            self._record("link_outage")

        return marker

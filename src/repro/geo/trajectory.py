"""Waypoints, flight traces and trajectory utilities.

The autopilot consumes :class:`Waypoint` lists; the campaigns record
flights as :class:`Trace` objects, the simulated analogue of the GPS
logs behind Figure 4 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .coords import EnuPoint

__all__ = ["Waypoint", "TraceSample", "Trace", "relative_distance_series", "relative_speed_series"]


@dataclass(frozen=True)
class Waypoint:
    """A navigation target.

    ``hold_s`` asks the autopilot to remain at the waypoint (hovering for
    quadrocopters, loitering in a circle for airplanes) for that many
    seconds after arrival.  ``speed_mps`` overrides the platform's cruise
    speed for the leg towards this waypoint.
    """

    position: EnuPoint
    hold_s: float = 0.0
    speed_mps: Optional[float] = None
    acceptance_radius_m: float = 2.0

    def __post_init__(self) -> None:
        if self.hold_s < 0:
            raise ValueError("hold_s must be non-negative")
        if self.speed_mps is not None and self.speed_mps <= 0:
            raise ValueError("speed_mps must be positive when given")
        if self.acceptance_radius_m <= 0:
            raise ValueError("acceptance_radius_m must be positive")


@dataclass(frozen=True)
class TraceSample:
    """One position fix: time, ENU position and instantaneous speed."""

    time_s: float
    position: EnuPoint
    speed_mps: float = 0.0


class Trace:
    """A recorded flight path (the simulated GPS log of one UAV)."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples: List[TraceSample] = []

    def record(self, time_s: float, position: EnuPoint, speed_mps: float = 0.0) -> None:
        """Append a fix; times must be strictly increasing."""
        if self._samples and time_s <= self._samples[-1].time_s:
            raise ValueError(
                f"trace {self.name!r}: non-increasing time {time_s} after "
                f"{self._samples[-1].time_s}"
            )
        self._samples.append(TraceSample(float(time_s), position, float(speed_mps)))

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self):
        return iter(self._samples)

    @property
    def samples(self) -> Sequence[TraceSample]:
        """All recorded fixes, oldest first."""
        return tuple(self._samples)

    @property
    def times(self) -> np.ndarray:
        """Sample times as an array."""
        return np.array([s.time_s for s in self._samples])

    @property
    def duration_s(self) -> float:
        """Time spanned by the trace."""
        if len(self._samples) < 2:
            return 0.0
        return self._samples[-1].time_s - self._samples[0].time_s

    def position_at(self, time_s: float) -> EnuPoint:
        """Linearly interpolated position at ``time_s`` (clamped at ends)."""
        if not self._samples:
            raise ValueError(f"trace {self.name!r} is empty")
        samples = self._samples
        if time_s <= samples[0].time_s:
            return samples[0].position
        if time_s >= samples[-1].time_s:
            return samples[-1].position
        times = self.times
        idx = int(np.searchsorted(times, time_s, side="right")) - 1
        a, b = samples[idx], samples[idx + 1]
        span = b.time_s - a.time_s
        frac = 0.0 if span <= 0 else (time_s - a.time_s) / span
        return EnuPoint(
            a.position.east_m + frac * (b.position.east_m - a.position.east_m),
            a.position.north_m + frac * (b.position.north_m - a.position.north_m),
            a.position.up_m + frac * (b.position.up_m - a.position.up_m),
        )

    def path_length_m(self) -> float:
        """Total distance flown along the trace."""
        total = 0.0
        for a, b in zip(self._samples, self._samples[1:]):
            total += a.position.distance_to(b.position)
        return total

    def altitude_range_m(self) -> Tuple[float, float]:
        """(min, max) altitude over the trace."""
        ups = [s.position.up_m for s in self._samples]
        return (min(ups), max(ups))

    def speeds(self) -> np.ndarray:
        """Recorded instantaneous speeds."""
        return np.array([s.speed_mps for s in self._samples])


def _common_time_grid(a: Trace, b: Trace, step_s: float) -> np.ndarray:
    start = max(a.samples[0].time_s, b.samples[0].time_s)
    end = min(a.samples[-1].time_s, b.samples[-1].time_s)
    if end <= start:
        return np.array([])
    n = max(2, int(round((end - start) / step_s)) + 1)
    return np.linspace(start, end, n)


def relative_distance_series(
    a: Trace, b: Trace, step_s: float = 1.0
) -> List[Tuple[float, float]]:
    """Pairwise 3-D distance between two traces sampled on a common grid."""
    grid = _common_time_grid(a, b, step_s)
    return [
        (float(t), a.position_at(t).distance_to(b.position_at(t))) for t in grid
    ]


def relative_speed_series(
    a: Trace, b: Trace, step_s: float = 1.0
) -> List[Tuple[float, float]]:
    """Rate of change of the pairwise distance (m/s, positive = separating)."""
    series = relative_distance_series(a, b, step_s)
    out: List[Tuple[float, float]] = []
    for (t0, d0), (t1, d1) in zip(series, series[1:]):
        dt = t1 - t0
        if dt > 0:
            out.append((t1, (d1 - d0) / dt))
    return out

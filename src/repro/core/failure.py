"""Failure models: the discount term of the delayed-gratification utility.

The paper assumes the failure probability is exponential in the
distance travelled (citing the discounted-reward TSP literature), so
the survival probability after moving from ``d0`` to ``d`` is
``delta(d) = exp(-rho (d0 - d))``, with a *stationary* rate ``rho``.

The paper's conclusion lists "introducing a specific failure model" as
future work; accordingly this module also ships non-stationary and
Weibull variants behind the same interface, exercised by the ablation
benchmarks.
"""

from __future__ import annotations

import math
from typing import Callable, Protocol

from ..airframe.platform import PlatformSpec

__all__ = [
    "FailureModel",
    "ExponentialFailure",
    "NonStationaryFailure",
    "WeibullFailure",
    "failure_rate_from_platform",
]


class FailureModel(Protocol):
    """Anything mapping a travelled distance to a survival probability."""

    def survival_probability(self, travelled_m: float) -> float:
        """P(still operational after flying ``travelled_m`` metres)."""
        ...


def _check_distance(travelled_m: float) -> float:
    if travelled_m < 0:
        raise ValueError(f"travelled distance must be non-negative: {travelled_m}")
    return travelled_m


class ExponentialFailure:
    """The paper's model: ``delta = exp(-rho * travelled)``.

    A stationary (distance-independent) hazard, which makes the optimal
    transmit-distance policy stationary too (paper Section 2).
    """

    def __init__(self, rate_per_m: float) -> None:
        if rate_per_m < 0:
            raise ValueError("failure rate must be non-negative")
        self.rate_per_m = rate_per_m

    def survival_probability(self, travelled_m: float) -> float:
        """``exp(-rho d)``."""
        return math.exp(-self.rate_per_m * _check_distance(travelled_m))


class NonStationaryFailure:
    """Survival under a distance-varying hazard ``rho(x)``.

    ``delta(D) = exp(-∫_0^D rho(x) dx)`` — the extension the paper's
    Fig. 8 discussion anticipates ("different results are expected,
    e.g., for a non-stationary failure rate").
    """

    def __init__(self, rate_fn_per_m: Callable[[float], float]) -> None:
        self._rate_fn = rate_fn_per_m

    def survival_probability(self, travelled_m: float) -> float:
        """Numerically integrated survival probability."""
        from scipy import integrate  # lazy: keeps SciPy off `import repro`

        d = _check_distance(travelled_m)
        if d <= 0.0:
            return 1.0
        hazard, _ = integrate.quad(self._rate_fn, 0.0, d, limit=200)
        if hazard < 0:
            raise ValueError("integrated hazard is negative; check rate_fn")
        return math.exp(-hazard)


class WeibullFailure:
    """Weibull survival ``exp(-(d / scale)^shape)``.

    ``shape > 1`` models wear-out (hazard grows with distance flown),
    ``shape < 1`` infant mortality; ``shape == 1`` recovers the paper's
    exponential with ``rho = 1/scale``.
    """

    def __init__(self, scale_m: float, shape: float = 1.0) -> None:
        if scale_m <= 0:
            raise ValueError("scale_m must be positive")
        if shape <= 0:
            raise ValueError("shape must be positive")
        self.scale_m = scale_m
        self.shape = shape

    def survival_probability(self, travelled_m: float) -> float:
        """``exp(-(d/scale)^shape)``."""
        d = _check_distance(travelled_m)
        return math.exp(-((d / self.scale_m) ** self.shape))


def failure_rate_from_platform(
    spec: PlatformSpec, endurance_s: float = 900.0
) -> float:
    """The paper's rho: inverse of the remaining cruise-speed range.

    The paper sets rho to the reciprocal of "the distance that the UAV
    could travel at its nominal cruise speed before the battery will be
    completely depleted".  Its numeric values — 1.11e-4 /m for the
    airplane and 2.46e-4 /m for the quadrocopter — both correspond to
    exactly **15 minutes** of remaining flight at cruise speed
    (900 s x 10 m/s = 9000 m and 900 s x 4.5 m/s = 4050 m), i.e. the
    battery left mid-mission, hence the default ``endurance_s`` of 900.
    """
    if endurance_s <= 0:
        raise ValueError("endurance_s must be positive")
    return 1.0 / (endurance_s * spec.cruise_speed_mps)

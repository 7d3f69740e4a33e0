"""Path-loss models for air-to-air links.

The library ships the classic free-space and log-distance laws plus a
dual-slope variant.  The paper's airplane measurements show a mild
degradation up to roughly 160 m and a much steeper one beyond — the
signature of a dual-slope law (antenna-pattern edges and ground
interactions) — so :class:`DualSlopePathLoss` is the default for the
aerial profiles.  :class:`ObstacleLoss` implements the "walls and other
obstacles" extension the paper's discussion section calls for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

__all__ = [
    "PathLossModel",
    "FreeSpacePathLoss",
    "LogDistancePathLoss",
    "DualSlopePathLoss",
    "TwoRayGroundPathLoss",
    "ObstacleLoss",
    "SPEED_OF_LIGHT",
]

SPEED_OF_LIGHT = 299_792_458.0


class PathLossModel(Protocol):
    """Anything that maps a distance (m) to a path loss (dB)."""

    def loss_db(self, distance_m: float) -> float:
        """Path loss in dB at ``distance_m`` metres (>= some small epsilon)."""
        ...


def _check_distance(distance_m: float) -> float:
    # Written so that NaN fails too: a NaN distance compares false.
    if not 0 < distance_m < math.inf:
        raise ValueError(
            f"distance must be positive and finite, got {distance_m}"
        )
    # Below one metre the far-field assumption collapses; clamp.
    return max(distance_m, 1.0)


@dataclass(frozen=True)
class FreeSpacePathLoss:
    """Friis free-space loss at carrier ``frequency_hz``."""

    frequency_hz: float = 5.2e9

    def loss_db(self, distance_m: float) -> float:
        d = _check_distance(distance_m)
        wavelength = SPEED_OF_LIGHT / self.frequency_hz
        return 20.0 * math.log10(4.0 * math.pi * d / wavelength)


@dataclass(frozen=True)
class LogDistancePathLoss:
    """Log-distance law: ``PL(d) = PL(d_ref) + 10 n log10(d/d_ref)``."""

    exponent: float = 2.0
    reference_loss_db: float = 47.0
    reference_distance_m: float = 1.0

    def __post_init__(self) -> None:
        if self.exponent <= 0:
            raise ValueError("path-loss exponent must be positive")
        if self.reference_distance_m <= 0:
            raise ValueError("reference distance must be positive")

    def loss_db(self, distance_m: float) -> float:
        d = _check_distance(distance_m)
        return self.reference_loss_db + 10.0 * self.exponent * math.log10(
            d / self.reference_distance_m
        )


@dataclass(frozen=True)
class DualSlopePathLoss:
    """Two log-distance segments joined at a breakpoint distance.

    Below ``breakpoint_m`` the loss grows with exponent ``near_exponent``;
    beyond it, with ``far_exponent``.  Continuous at the breakpoint.
    """

    near_exponent: float = 2.0
    far_exponent: float = 4.0
    breakpoint_m: float = 160.0
    reference_loss_db: float = 47.0
    reference_distance_m: float = 1.0

    def __post_init__(self) -> None:
        if self.near_exponent <= 0 or self.far_exponent <= 0:
            raise ValueError("path-loss exponents must be positive")
        if self.breakpoint_m <= self.reference_distance_m:
            raise ValueError("breakpoint must exceed the reference distance")
        # The near segment and its loss at the breakpoint depend on the
        # frozen fields alone: build them once, not per call.
        near = LogDistancePathLoss(
            self.near_exponent, self.reference_loss_db, self.reference_distance_m
        )
        object.__setattr__(self, "_near", near)
        object.__setattr__(self, "_at_break_db", near.loss_db(self.breakpoint_m))

    def loss_db(self, distance_m: float) -> float:
        d = _check_distance(distance_m)
        if d <= self.breakpoint_m:
            return self._near.loss_db(d)
        return self._at_break_db + 10.0 * self.far_exponent * math.log10(
            d / self.breakpoint_m
        )


@dataclass(frozen=True)
class TwoRayGroundPathLoss:
    """Two-ray ground-reflection model for low-altitude links.

    Valid beyond the crossover distance ``4 pi h_t h_r / lambda``; below
    it we fall back to free space.  Relevant for the quadrocopter tests
    flown at only 10 m altitude.
    """

    tx_height_m: float = 10.0
    rx_height_m: float = 10.0
    frequency_hz: float = 5.2e9

    def __post_init__(self) -> None:
        if self.tx_height_m <= 0 or self.rx_height_m <= 0:
            raise ValueError("antenna heights must be positive")

    @property
    def crossover_distance_m(self) -> float:
        """Distance beyond which the two-ray approximation applies."""
        wavelength = SPEED_OF_LIGHT / self.frequency_hz
        return 4.0 * math.pi * self.tx_height_m * self.rx_height_m / wavelength

    def loss_db(self, distance_m: float) -> float:
        d = _check_distance(distance_m)
        if d < self.crossover_distance_m:
            return FreeSpacePathLoss(self.frequency_hz).loss_db(d)
        return 40.0 * math.log10(d) - 20.0 * math.log10(
            self.tx_height_m * self.rx_height_m
        )


class ObstacleLoss:
    """Wraps a path-loss model with a fixed excess loss (walls, foliage).

    This is the extension flagged in the paper's discussion: "to account
    also for walls and other obstacles, our model requires an
    extension".  The excess is added on top of the base model.
    """

    def __init__(self, base: PathLossModel, excess_db: float) -> None:
        if excess_db < 0:
            raise ValueError("excess loss must be non-negative")
        self._base = base
        self.excess_db = excess_db

    def loss_db(self, distance_m: float) -> float:
        """Base loss plus the obstacle excess."""
        return self._base.loss_db(distance_m) + self.excess_db

"""Throughput-vs-distance models ``s(d)`` consumed by the delay model.

The paper feeds its optimisation with logarithmic fits of the measured
median throughput.  The library accepts anything implementing
:class:`ThroughputModel`; three implementations cover the use cases:

* :class:`LogFitThroughput` — the paper's ``a log2(d) + b`` law.
* :class:`TableThroughput` — interpolation over measured medians
  (used to replay Figure 1 with the digitised experiment rates).
* :class:`SpeedScaledThroughput` — wraps a base model with the
  empirical speed decay of Fig. 7 (right), ``s(d, v) = s(d) e^{-v/v0}``,
  enabling the 'move and transmit' and mixed strategies the paper
  flags as an extension.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Protocol, Tuple

import numpy as np

__all__ = [
    "ThroughputModel",
    "LogFitThroughput",
    "TableThroughput",
    "SpeedScaledThroughput",
    "MIN_THROUGHPUT_BPS",
    "throughput_bps_array",
]

#: Floor preventing division by zero where a fit extrapolates to <= 0.
MIN_THROUGHPUT_BPS = 1e3


def throughput_bps_array(
    model: "ThroughputModel", distances_m: np.ndarray
) -> np.ndarray:
    """``s(d)`` over an array of distances for any throughput model.

    Uses the model's vectorised ``throughput_bps_array`` when it has
    one, else falls back to a scalar loop — the batch engine calls this
    for models outside the built-in trio.
    """
    vectorised = getattr(model, "throughput_bps_array", None)
    if vectorised is not None:
        return vectorised(distances_m)
    flat = np.asarray(distances_m, dtype=float).reshape(-1)
    out = np.array([model.throughput_bps(float(d)) for d in flat])
    return out.reshape(np.shape(distances_m))


class ThroughputModel(Protocol):
    """Maps distance (m) — and optionally speed — to throughput (bit/s)."""

    def throughput_bps(self, distance_m: float) -> float:
        """Stationary ('hover and transmit') throughput at ``distance_m``."""
        ...

    def throughput_bps_moving(self, distance_m: float, speed_mps: float) -> float:
        """Throughput while moving at ``speed_mps``."""
        ...


class LogFitThroughput:
    """``s(d) = 1e6 (slope log2 d + intercept)`` bit/s, clamped positive.

    With the paper's coefficients:
    ``LogFitThroughput(-5.56, 49.0)`` (airplane) and
    ``LogFitThroughput(-10.5, 73.0)`` (quadrocopter).
    """

    def __init__(
        self,
        slope_mbps_per_octave: float,
        intercept_mbps: float,
        speed_scale_mps: float = 7.0,
    ) -> None:
        if speed_scale_mps <= 0:
            raise ValueError("speed_scale_mps must be positive")
        self.slope_mbps_per_octave = slope_mbps_per_octave
        self.intercept_mbps = intercept_mbps
        self.speed_scale_mps = speed_scale_mps

    def throughput_bps(self, distance_m: float) -> float:
        """Evaluate the fit at ``distance_m`` (clamped at a tiny floor)."""
        if distance_m <= 0:
            raise ValueError(f"distance must be positive, got {distance_m}")
        mbps = (
            self.slope_mbps_per_octave * math.log2(distance_m)
            + self.intercept_mbps
        )
        return max(MIN_THROUGHPUT_BPS, mbps * 1e6)

    def throughput_bps_array(self, distances_m: np.ndarray) -> np.ndarray:
        """Vectorised fit evaluation (batch-engine hot path)."""
        d = np.asarray(distances_m, dtype=float)
        if np.any(d <= 0):
            raise ValueError("distances must be positive")
        mbps = self.slope_mbps_per_octave * np.log2(d) + self.intercept_mbps
        return np.maximum(MIN_THROUGHPUT_BPS, mbps * 1e6)

    def cache_key(self) -> Tuple:
        """Hashable identity for memoising solver results."""
        return (
            "logfit",
            self.slope_mbps_per_octave,
            self.intercept_mbps,
            self.speed_scale_mps,
        )

    def throughput_bps_moving(self, distance_m: float, speed_mps: float) -> float:
        """Hover throughput scaled by the empirical speed decay."""
        if speed_mps < 0:
            raise ValueError("speed must be non-negative")
        return max(
            MIN_THROUGHPUT_BPS,
            self.throughput_bps(distance_m)
            * math.exp(-speed_mps / self.speed_scale_mps),
        )


class TableThroughput:
    """Linear interpolation over (distance, throughput) medians.

    Outside the table range the endpoints extend flat, which is the
    conservative choice for replaying a specific experiment.
    """

    def __init__(
        self, table_bps: Dict[float, float], speed_scale_mps: float = 7.0
    ) -> None:
        if len(table_bps) < 1:
            raise ValueError("table must contain at least one point")
        if any(d <= 0 for d in table_bps):
            raise ValueError("distances must be positive")
        if any(s <= 0 for s in table_bps.values()):
            raise ValueError("throughputs must be positive")
        if speed_scale_mps <= 0:
            raise ValueError("speed_scale_mps must be positive")
        items = sorted(table_bps.items())
        self._distances = np.array([d for d, _ in items], dtype=float)
        self._rates = np.array([s for _, s in items], dtype=float)
        self.speed_scale_mps = speed_scale_mps

    def throughput_bps(self, distance_m: float) -> float:
        """Interpolated throughput (flat extrapolation at the ends)."""
        if distance_m <= 0:
            raise ValueError(f"distance must be positive, got {distance_m}")
        return float(np.interp(distance_m, self._distances, self._rates))

    def throughput_bps_array(self, distances_m: np.ndarray) -> np.ndarray:
        """Vectorised interpolation (batch-engine hot path)."""
        d = np.asarray(distances_m, dtype=float)
        if np.any(d <= 0):
            raise ValueError("distances must be positive")
        return np.interp(d, self._distances, self._rates)

    def cache_key(self) -> Tuple:
        """Hashable identity for memoising solver results."""
        return (
            "table",
            tuple(self._distances.tolist()),
            tuple(self._rates.tolist()),
            self.speed_scale_mps,
        )

    def throughput_bps_moving(self, distance_m: float, speed_mps: float) -> float:
        """Interpolated throughput with the exponential speed decay."""
        if speed_mps < 0:
            raise ValueError("speed must be non-negative")
        return max(
            MIN_THROUGHPUT_BPS,
            self.throughput_bps(distance_m)
            * math.exp(-speed_mps / self.speed_scale_mps),
        )


class SpeedScaledThroughput:
    """Wraps any hover model with an explicit mobility decay.

    ``s(d, v) = s(d) * exp(-v / speed_scale)``, the decay fitted to the
    Fig. 7 (right) speed sweep.  Also usable with a custom decay.
    """

    def __init__(self, base: ThroughputModel, speed_scale_mps: float = 7.0) -> None:
        if speed_scale_mps <= 0:
            raise ValueError("speed_scale_mps must be positive")
        self._base = base
        self.speed_scale_mps = speed_scale_mps

    def throughput_bps(self, distance_m: float) -> float:
        """Hover throughput of the wrapped model."""
        return self._base.throughput_bps(distance_m)

    def throughput_bps_array(self, distances_m: np.ndarray) -> np.ndarray:
        """Vectorised hover throughput of the wrapped model."""
        return throughput_bps_array(self._base, distances_m)

    def cache_key(self) -> Optional[Tuple]:
        """Hashable identity; ``None`` when the base model has none."""
        base_key = getattr(self._base, "cache_key", None)
        if base_key is None:
            return None
        key = base_key()
        if key is None:
            return None
        return ("speedscaled", key, self.speed_scale_mps)

    def throughput_bps_moving(self, distance_m: float, speed_mps: float) -> float:
        """Base throughput scaled by ``exp(-v / speed_scale)``."""
        if speed_mps < 0:
            raise ValueError("speed must be non-negative")
        return max(
            MIN_THROUGHPUT_BPS,
            self._base.throughput_bps(distance_m)
            * math.exp(-speed_mps / self.speed_scale_mps),
        )

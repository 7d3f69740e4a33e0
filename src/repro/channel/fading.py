"""Fading processes for the aerial channel.

Two time scales matter for the paper's observations:

* **Slow attitude/orientation fading** — banking airplanes and tilting
  quadrocopters swing their planar antennas through nulls.  Modelled as
  a first-order Gauss-Markov (exponentially correlated) process in dB
  with occasional deep *dropouts* (orientation nulls), the main reason
  auto-rate adaptation collapses in the air.
* **Fast multipath fading** — Rician small-scale fading whose coherence
  time shrinks with relative speed (Doppler), the reason 'move and
  transmit' underperforms.

Each process has a *batched* twin (:class:`BatchGaussMarkovShadowing`,
:class:`BatchRicianFading`) that evolves R independent replicas in
lockstep NumPy.  The scalar classes route their transcendental math
through the same NumPy ufuncs so a batch of one replica consuming the
same stream is bit-identical to the scalar process — the foundation of
the lockstep-equivalence guarantee of
:class:`~repro.net.batchlink.BatchWirelessLink`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..sim.random import SegmentedGenerator

__all__ = [
    "ShadowingConfig",
    "GaussMarkovShadowing",
    "BatchGaussMarkovShadowing",
    "RicianFading",
    "BatchRicianFading",
    "doppler_coherence_time_s",
]


def doppler_coherence_time_s(
    relative_speed_mps: float, frequency_hz: float = 5.2e9
) -> float:
    """Channel coherence time from the classic ``0.423 / f_d`` rule.

    ``f_d = v / lambda`` is the maximum Doppler shift.  For v = 8 m/s at
    5.2 GHz this gives roughly 3 ms — far below any rate-adaptation
    update interval, which is why moving transmitters fare so poorly.
    """
    if relative_speed_mps < 0:
        raise ValueError("speed must be non-negative")
    wavelength = 299_792_458.0 / frequency_hz
    doppler_hz = relative_speed_mps / wavelength
    if doppler_hz <= 1e-9:
        return float("inf")
    return 0.423 / doppler_hz


def _memo_matches(key: "float | np.ndarray", values, n_replicas: int) -> bool:
    """Whether per-replica ``values`` equal the memo ``key`` element-wise.

    ``key`` is a float (the memo was filled from a scalar) or a private
    array copy, so a caller who rewrites an input array in place
    between calls misses.  Compares as ``np.array_equal`` of both sides
    expanded to ``(n_replicas,)``, but a Python scalar against a float
    key is one float comparison and an array is one reduction.  Values
    of any other shape never match, so the caller's miss path validates
    them.
    """
    if isinstance(key, float) and isinstance(values, (int, float)):
        return float(values) == key
    arr = np.asarray(values, dtype=float)
    if arr.shape != () and arr.shape != (n_replicas,):
        return False
    return bool((arr == key).all())


@dataclass(frozen=True)
class ShadowingConfig:
    """Parameters of the slow attitude/orientation fading process."""

    sigma_db: float = 4.0
    #: Correlation time of the attitude swings (seconds).
    coherence_time_s: float = 0.5
    #: Probability that a coherence epoch is an orientation null.
    dropout_probability: float = 0.05
    #: Extra attenuation during a null (dB).
    dropout_depth_db: float = 15.0

    def __post_init__(self) -> None:
        if self.sigma_db < 0:
            raise ValueError("sigma_db must be non-negative")
        if self.coherence_time_s <= 0:
            raise ValueError("coherence_time_s must be positive")
        if not 0.0 <= self.dropout_probability <= 1.0:
            raise ValueError("dropout_probability must be in [0, 1]")
        if self.dropout_depth_db < 0:
            raise ValueError("dropout_depth_db must be non-negative")


class GaussMarkovShadowing:
    """Exponentially correlated log-normal shadowing with dropouts.

    ``sample(now)`` returns the current shadowing term in dB (negative =
    fade).  Between calls the process decorrelates with the configured
    coherence time; dropout epochs are redrawn whenever the process has
    decorrelated by more than one coherence time.
    """

    def __init__(self, config: ShadowingConfig, rng: np.random.Generator) -> None:
        self._config = config
        self._rng = rng
        self._value = float(rng.normal(0.0, config.sigma_db)) if config.sigma_db else 0.0
        self._in_dropout = bool(rng.random() < config.dropout_probability)
        self._last_time: float | None = None
        self._epoch_elapsed = 0.0
        # (alpha, drive) of the last step length: a link samples at a
        # fixed epoch, so the step length mostly repeats.
        self._step_key: float | None = None
        self._alpha = self._drive = 0.0

    @property
    def config(self) -> ShadowingConfig:
        """The process parameters (fixed: the step memo depends on them)."""
        return self._config

    def sample(self, now_s: float) -> float:
        """Shadowing value (dB) at time ``now_s`` (non-decreasing calls)."""
        cfg = self._config
        if self._last_time is not None:
            dt = max(0.0, now_s - self._last_time)
            if cfg.sigma_db > 0:
                if dt != self._step_key:
                    # np.exp (not math.exp) so the batched twin matches
                    # bit for bit — NumPy's scalar and array ufunc paths
                    # agree, libm's does not always.
                    alpha = float(np.exp(-dt / cfg.coherence_time_s))
                    self._alpha = alpha
                    self._drive = cfg.sigma_db * math.sqrt(
                        max(0.0, 1.0 - alpha * alpha)
                    )
                    self._step_key = dt
                self._value = self._alpha * self._value + float(
                    self._rng.normal(0.0, 1.0)
                ) * self._drive
            self._epoch_elapsed += dt
            if self._epoch_elapsed >= cfg.coherence_time_s:
                self._epoch_elapsed = 0.0
                self._in_dropout = bool(
                    self._rng.random() < cfg.dropout_probability
                )
        self._last_time = now_s
        value = self._value
        if self._in_dropout:
            value -= cfg.dropout_depth_db
        return value


class BatchGaussMarkovShadowing:
    """R independent Gauss-Markov shadowing replicas stepped in lockstep.

    All replicas share one generator (or one per segment of a
    :class:`~repro.sim.random.SegmentedGenerator`) and draw ``(R,)``
    arrays per step, so a batch with ``n_replicas == 1`` consumes the
    stream exactly as the scalar :class:`GaussMarkovShadowing` does and
    reproduces it bit for bit.  Dropout epochs are redrawn per replica
    only when that replica's fading clock has decorrelated — masked
    draws keep the stream consumption identical in the R = 1 case.
    """

    def __init__(
        self,
        config: ShadowingConfig,
        rng: "np.random.Generator | SegmentedGenerator",
        n_replicas: int,
    ) -> None:
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        self._config = config
        self.n_replicas = n_replicas
        self._rng = rng = SegmentedGenerator.of(rng, n_replicas)
        if config.sigma_db:
            self._value = rng.normal(0.0, config.sigma_db)
        else:
            self._value = np.zeros(n_replicas)
        self._in_dropout = rng.random() < config.dropout_probability
        self._last_time: "np.ndarray | None" = None
        self._epoch_elapsed = np.zeros(n_replicas)

    @property
    def config(self) -> ShadowingConfig:
        """The process parameters, shared by every replica."""
        return self._config

    def sample(self, now_s: np.ndarray) -> np.ndarray:
        """Per-replica shadowing (dB) at the per-replica clocks ``now_s``."""
        now = np.asarray(now_s, dtype=float)
        if now.shape != (self.n_replicas,):
            raise ValueError(
                f"now_s must have shape ({self.n_replicas},), got {now.shape}"
            )
        return self._advance(now.copy())

    def _advance(self, now: np.ndarray) -> np.ndarray:
        """:meth:`sample` on a validated ``(R,)`` float clock it now owns.

        ``now`` is kept as the last-sample time without a copy, so the
        caller must never write to it afterwards.
        :class:`~repro.channel.channel.BatchAerialChannel` rebinds its
        fading clock to a fresh array every epoch and calls this
        directly.
        """
        cfg = self._config
        if self._last_time is not None:
            dt = np.maximum(0.0, now - self._last_time)
            if cfg.sigma_db > 0:
                alpha = np.exp(-dt / cfg.coherence_time_s)
                drive = cfg.sigma_db * np.sqrt(
                    np.maximum(0.0, 1.0 - alpha * alpha)
                )
                self._value = alpha * self._value + self._rng.normal(
                    0.0, 1.0
                ) * drive
            self._epoch_elapsed += dt
            expired = self._epoch_elapsed >= cfg.coherence_time_s
            if expired.any():
                self._epoch_elapsed[expired] = 0.0
                self._in_dropout[expired] = (
                    self._rng.random(mask=expired) < cfg.dropout_probability
                )
        self._last_time = now
        return np.where(
            self._in_dropout, self._value - cfg.dropout_depth_db, self._value
        )


class RicianFading:
    """Small-scale Rician fading sampled per transmission burst.

    The K-factor (ratio of line-of-sight to scattered power) shrinks
    with relative speed: a fast-moving airframe sweeps through the
    ground-reflection interference pattern and its attitude jitters,
    scattering more energy off the direct path.

    ``sample_db(speed)`` returns the instantaneous fading gain in dB
    relative to the mean channel.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        k_factor_hover_db: float = 12.0,
        k_factor_floor_db: float = 0.0,
        speed_scale_mps: float = 6.0,
    ) -> None:
        if speed_scale_mps <= 0:
            raise ValueError("speed_scale_mps must be positive")
        self._rng = rng
        self._k_hover_db = k_factor_hover_db
        self._k_floor_db = k_factor_floor_db
        self._speed_scale_mps = speed_scale_mps
        # LOS amplitude nu and scatter sigma at the last speed.
        self._speed_key: float | None = None
        self._nu = self._scale = 0.0

    # Read-only: the envelope memo depends on them.
    @property
    def k_factor_hover_db(self) -> float:
        """Rician K-factor (dB) at zero speed."""
        return self._k_hover_db

    @property
    def k_factor_floor_db(self) -> float:
        """Rician K-factor (dB) the speed decay approaches."""
        return self._k_floor_db

    @property
    def speed_scale_mps(self) -> float:
        """Speed over which the K-factor's excess over the floor falls by e."""
        return self._speed_scale_mps

    def k_factor_db(self, relative_speed_mps: float) -> float:
        """Rician K-factor (dB) at the given relative speed."""
        if relative_speed_mps < 0:
            raise ValueError("speed must be non-negative")
        span = self.k_factor_hover_db - self.k_factor_floor_db
        return self.k_factor_floor_db + span * float(np.exp(
            -relative_speed_mps / self.speed_scale_mps
        ))

    def sample_db(self, relative_speed_mps: float = 0.0) -> float:
        """One fading realisation (dB), unit mean power."""
        if relative_speed_mps != self._speed_key:
            # Both depend on the speed alone (and the speed is checked
            # on its first use), so they change only with its value.
            k_lin = float(
                np.power(10.0, self.k_factor_db(relative_speed_mps) / 10.0)
            )
            # Rician envelope power: LOS amplitude nu, scatter sigma^2
            # per component, normalised to unit mean power.
            sigma2 = 1.0 / (2.0 * (k_lin + 1.0))
            self._nu = math.sqrt(k_lin / (k_lin + 1.0))
            self._scale = math.sqrt(sigma2)
            self._speed_key = relative_speed_mps
        x = float(self._rng.normal(self._nu, self._scale))
        y = float(self._rng.normal(0.0, self._scale))
        power = x * x + y * y
        return 10.0 * float(np.log10(max(power, 1e-12)))


class BatchRicianFading:
    """R lockstep Rician fading replicas sharing one (segmented) generator.

    Mirrors :class:`RicianFading` draw for draw: each step consumes one
    standard normal per replica for the in-phase component and one for
    the quadrature component, so ``n_replicas == 1`` is bit-identical
    to the scalar process on the same stream.
    """

    def __init__(
        self,
        rng: "np.random.Generator | SegmentedGenerator",
        n_replicas: int,
        k_factor_hover_db: float = 12.0,
        k_factor_floor_db: float = 0.0,
        speed_scale_mps: float = 6.0,
    ) -> None:
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        if speed_scale_mps <= 0:
            raise ValueError("speed_scale_mps must be positive")
        self._rng = SegmentedGenerator.of(rng, n_replicas)
        self.n_replicas = n_replicas
        self._k_hover_db = k_factor_hover_db
        self._k_floor_db = k_factor_floor_db
        self._speed_scale_mps = speed_scale_mps
        self._speed_key: "float | np.ndarray | None" = None
        self._nu = self._scale = np.zeros(0)

    # Read-only: the envelope memo depends on them.
    @property
    def k_factor_hover_db(self) -> float:
        """Rician K-factor (dB) at zero speed."""
        return self._k_hover_db

    @property
    def k_factor_floor_db(self) -> float:
        """Rician K-factor (dB) the speed decay approaches."""
        return self._k_floor_db

    @property
    def speed_scale_mps(self) -> float:
        """Speed over which the K-factor's excess over the floor falls by e."""
        return self._speed_scale_mps

    def k_factor_db(self, relative_speed_mps: np.ndarray) -> np.ndarray:
        """Per-replica Rician K-factor (dB) at the given relative speeds."""
        speeds = np.asarray(relative_speed_mps, dtype=float)
        if np.any(speeds < 0):
            raise ValueError("speed must be non-negative")
        span = self.k_factor_hover_db - self.k_factor_floor_db
        return self.k_factor_floor_db + span * np.exp(
            -speeds / self.speed_scale_mps
        )

    def sample_db(self, relative_speed_mps: np.ndarray) -> np.ndarray:
        """One fading realisation (dB) per replica, unit mean power."""
        nu, scale = self._envelope(relative_speed_mps)
        # Same composition as Generator.normal(loc, scale): loc+scale*z.
        x = nu + scale * self._rng.normal(0.0, 1.0)
        y = scale * self._rng.normal(0.0, 1.0)
        power = x * x + y * y
        return 10.0 * np.log10(np.maximum(power, 1e-12))

    def _envelope(self, relative_speed_mps) -> "tuple[np.ndarray, np.ndarray]":
        """(LOS amplitude nu, scatter sigma) at these speeds.

        Both depend on the speed alone, and a campaign holds the speed
        fixed, so they are recomputed (and the speeds validated) only
        when the speed values change.
        """
        if self._speed_key is not None and _memo_matches(
            self._speed_key, relative_speed_mps, self.n_replicas
        ):
            return self._nu, self._scale
        speeds = np.asarray(relative_speed_mps, dtype=float)
        k_lin = np.power(10.0, self.k_factor_db(speeds) / 10.0)
        sigma2 = 1.0 / (2.0 * (k_lin + 1.0))
        self._nu = np.sqrt(k_lin / (k_lin + 1.0))
        self._scale = np.sqrt(sigma2)
        self._speed_key = float(speeds) if speeds.ndim == 0 else speeds.copy()
        return self._nu, self._scale

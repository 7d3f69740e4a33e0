"""The aerial channel: profiles and the stateful SNR sampler.

A :class:`ChannelProfile` bundles everything static about a link class
(path loss, link budget, fading statistics, mobility penalty); an
:class:`AerialChannel` instance adds the time-evolving fading state and
produces per-burst SNR samples for the PHY.

Three calibrated profiles are provided:

* :func:`airplane_profile` — two Swinglets at 80-100 m altitude.
  Dual-slope path loss (gentle to ~160 m, steep beyond) with a 14 dB
  aerial SNR ceiling; reproduces the paper's Fig. 5/6 medians.
* :func:`quadrocopter_profile` — two Arducopters hovering at 10 m.
  Ground proximity steepens the effective distance law; smaller
  shadowing variance (hovering is stabler than banking flight).
* :func:`indoor_profile` — the authors' indoor sanity check
  (~176 Mb/s with 802.11n); no aerial ceiling, benign fading.

Calibration note: the reference losses and the SNR ceilings are *fitted*
so the simulated auto-rate medians track the paper's logarithmic
throughput fits (Section 4); they are not free-space values.  See
DESIGN.md for the substitution rationale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..sim.random import RandomStreams, SegmentedStreams
from .fading import (
    BatchGaussMarkovShadowing,
    BatchRicianFading,
    GaussMarkovShadowing,
    RicianFading,
    ShadowingConfig,
    _memo_matches,
)
from .linkbudget import LinkBudget
from .mobility import SpeedPenalty
from .pathloss import (
    DualSlopePathLoss,
    FreeSpacePathLoss,
    LogDistancePathLoss,
    PathLossModel,
)

__all__ = [
    "ChannelProfile",
    "AerialChannel",
    "BatchAerialChannel",
    "airplane_profile",
    "quadrocopter_profile",
    "indoor_profile",
]


@dataclass(frozen=True)
class ChannelProfile:
    """Static description of one link class."""

    name: str
    pathloss: PathLossModel
    budget: LinkBudget
    shadowing: ShadowingConfig
    speed_penalty: SpeedPenalty = SpeedPenalty()
    rician_k_hover_db: float = 12.0
    rician_k_floor_db: float = 0.0
    rician_speed_scale_mps: float = 6.0
    #: Motion accelerates the attitude dynamics: the shadowing process
    #: decorrelates faster by ``1 + v / fading_clock_speed_scale_mps``.
    #: ``inf`` disables the effect (fixed-wing cruise is attitude-steady;
    #: its calibration already embodies in-flight dynamics).
    fading_clock_speed_scale_mps: float = float("inf")
    #: Minimum distance the sampler accepts (collision-safety floor).
    min_distance_m: float = 1.0

    def mean_snr_db(self, distance_m: float, relative_speed_mps: float = 0.0) -> float:
        """Mean SNR at this distance/speed, before fading."""
        return self._distance_snr_db(distance_m) - self.speed_penalty.penalty_db(
            relative_speed_mps
        )

    def _distance_snr_db(self, distance_m: float) -> float:
        """Mean SNR at this distance before the speed penalty."""
        distance = max(distance_m, self.min_distance_m)
        return self.budget.snr_db(self.pathloss.loss_db(distance))


class AerialChannel:
    """Stateful channel: mean SNR plus correlated fading realisations.

    One instance models one directed link.  ``sample_snr_db`` must be
    called with non-decreasing timestamps; each call returns the SNR
    seen by one transmission burst (an A-MPDU).
    """

    def __init__(
        self,
        profile: ChannelProfile,
        streams: Optional[RandomStreams] = None,
        stream_name: str = "channel",
    ) -> None:
        self._profile = profile
        streams = streams if streams is not None else RandomStreams(seed=0)
        self._shadowing = GaussMarkovShadowing(
            profile.shadowing, streams.get(f"{stream_name}.shadowing")
        )
        self._rician = RicianFading(
            streams.get(f"{stream_name}.rician"),
            k_factor_hover_db=profile.rician_k_hover_db,
            k_factor_floor_db=profile.rician_k_floor_db,
            speed_scale_mps=profile.rician_speed_scale_mps,
        )
        self._last_time: Optional[float] = None
        self._fading_clock = 0.0
        # Memo of the last (distance, speed), the scalar twin of
        # BatchAerialChannel's: the mean SNR, and the speed-derived
        # penalty and fading-clock warp, which an approach at constant
        # speed keeps while the distance changes every epoch.
        self._memo_distance: Optional[float] = None
        self._memo_speed: Optional[float] = None
        self._mean = 0.0
        self._penalty = 0.0
        self._warp = 1.0

    @property
    def profile(self) -> ChannelProfile:
        """The static link class (fixed: the mean-SNR memo depends on it)."""
        return self._profile

    def mean_snr_db(self, distance_m: float, relative_speed_mps: float = 0.0) -> float:
        """Mean (large-scale) SNR; delegates to the profile.

        Memoised on the last (distance, speed): a hovering link asks for
        the same mean every epoch, and the oracle's hint asks twice.
        """
        if (
            distance_m != self._memo_distance
            or relative_speed_mps != self._memo_speed
        ):
            # ChannelProfile.mean_snr_db, with the speed terms reused
            # while the speed is unchanged.
            profile = self._profile
            snr = profile._distance_snr_db(distance_m)
            if relative_speed_mps != self._memo_speed:
                self._penalty = profile.speed_penalty.penalty_db(
                    relative_speed_mps
                )
                scale = profile.fading_clock_speed_scale_mps
                self._warp = 1.0 + (
                    relative_speed_mps / scale if scale != float("inf") else 0.0
                )
                self._memo_speed = relative_speed_mps
            self._mean = snr - self._penalty
            self._memo_distance = distance_m
        return self._mean

    def sample_snr_db(
        self,
        now_s: float,
        distance_m: float,
        relative_speed_mps: float = 0.0,
    ) -> float:
        """One SNR realisation at time ``now_s``.

        Mean SNR (with the mobility penalty) plus correlated shadowing
        plus a fresh small-scale Rician draw whose K-factor shrinks with
        speed.
        """
        mean = self.mean_snr_db(distance_m, relative_speed_mps)
        # Motion accelerates the attitude dynamics: advance the fading
        # clock faster than wall time so the shadowing decorrelates more
        # quickly while the platform translates.
        if self._last_time is None:
            self._fading_clock = now_s
        else:
            # The warp was refreshed with the mean for this speed.
            self._fading_clock += max(0.0, now_s - self._last_time) * self._warp
        self._last_time = now_s
        shadow = self._shadowing.sample(self._fading_clock)
        fast = self._rician.sample_db(relative_speed_mps)
        return mean + shadow + fast


class BatchAerialChannel:
    """R independent replicas of one link class, sampled in lockstep.

    Each replica has its own shadowing/Rician fading state; all draw
    ``(R,)`` arrays from the same named streams an :class:`AerialChannel`
    would use, so a batch of one replica is bit-identical to the scalar
    channel for the same :class:`~repro.sim.random.RandomStreams` seed.
    With :class:`~repro.sim.random.SegmentedStreams` each block of
    replicas draws from its own registry, and the batch equals those
    blocks run as separate batches.

    The mean (large-scale) SNR is a pure function of ``(distance,
    speed)`` and is evaluated through the scalar
    :meth:`ChannelProfile.mean_snr_db` with a memo on the last inputs —
    campaigns hold distance and speed constant per replica, so the mean
    is computed once and every subsequent epoch is a cache hit (the
    ``mean_cache_hits`` counter surfaces as the campaign's
    ``channel.mean_cache_hits`` obs metric).  The speed-derived
    fading-clock warp is refreshed with the memo, so a hit leaves only
    the per-epoch fading work.
    """

    def __init__(
        self,
        profile: ChannelProfile,
        n_replicas: int,
        streams: "RandomStreams | SegmentedStreams | None" = None,
        stream_name: str = "channel",
    ) -> None:
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        self._profile = profile
        self.n_replicas = n_replicas
        streams = streams if streams is not None else RandomStreams(seed=0)
        self._shadowing = BatchGaussMarkovShadowing(
            profile.shadowing, streams.get(f"{stream_name}.shadowing"), n_replicas
        )
        self._rician = BatchRicianFading(
            streams.get(f"{stream_name}.rician"),
            n_replicas,
            k_factor_hover_db=profile.rician_k_hover_db,
            k_factor_floor_db=profile.rician_k_floor_db,
            speed_scale_mps=profile.rician_speed_scale_mps,
        )
        self._last_time: Optional[float] = None
        self._fading_clock = np.zeros(n_replicas)
        # Memo of the last (distance, speed): keys as _memo_matches
        # takes them, the read-only mean, and the per-replica speeds and
        # fading-clock warp derived from the same speed.
        self._memo_distance: "float | np.ndarray | None" = None
        self._memo_speed: "float | np.ndarray | None" = None
        self._mean = np.zeros(0)
        self._speeds = np.zeros(n_replicas)
        self._warp: "float | np.ndarray" = 1.0
        self.mean_cache_hits = 0
        self.mean_cache_misses = 0

    @property
    def profile(self) -> ChannelProfile:
        """The static link class (fixed: the mean-SNR memo depends on it)."""
        return self._profile

    def _as_replica_array(self, values, name: str) -> np.ndarray:
        """A private ``(R,)`` float copy of a scalar or per-replica input."""
        arr = np.array(values, dtype=float)
        if arr.ndim == 0:
            arr = np.full(self.n_replicas, float(arr))
        if arr.shape != (self.n_replicas,):
            raise ValueError(
                f"{name} must be scalar or shape ({self.n_replicas},), "
                f"got {arr.shape}"
            )
        return arr

    def mean_snr_db_batch(
        self, distance_m, relative_speed_mps=0.0
    ) -> np.ndarray:
        """Per-replica mean SNR, memoised on the last (distance, speed).

        The result is read-only: every hit returns the same array.
        """
        n = self.n_replicas
        if (
            self._memo_distance is not None
            and _memo_matches(self._memo_distance, distance_m, n)
            and _memo_matches(self._memo_speed, relative_speed_mps, n)
        ):
            self.mean_cache_hits += 1
            return self._mean
        d = self._as_replica_array(distance_m, "distance_m")
        v = self._as_replica_array(relative_speed_mps, "relative_speed_mps")
        # Scalar evaluation keeps the batch bit-identical to the scalar
        # channel; the memo makes it O(R) once instead of per epoch.
        mean = np.array([self.profile.mean_snr_db(d[i], v[i]) for i in range(n)])
        mean.flags.writeable = False
        scale = self.profile.fading_clock_speed_scale_mps
        self._warp = 1.0 + (v / scale if scale != float("inf") else 0.0)
        self._speeds = v
        self._memo_distance = float(d[0]) if np.ndim(distance_m) == 0 else d
        self._memo_speed = (
            float(v[0]) if np.ndim(relative_speed_mps) == 0 else v
        )
        self._mean = mean
        self.mean_cache_misses += 1
        return mean

    def sample_snr_db_batch(
        self,
        now_s: float,
        distance_m,
        relative_speed_mps=0.0,
    ) -> np.ndarray:
        """One SNR realisation per replica at the shared time ``now_s``."""
        mean = self.mean_snr_db_batch(distance_m, relative_speed_mps)
        if self._last_time is None:
            self._fading_clock = np.full(self.n_replicas, float(now_s))
        else:
            dt = max(0.0, now_s - self._last_time)
            self._fading_clock = self._fading_clock + dt * self._warp
        self._last_time = now_s
        # The clock is rebound to a fresh array every epoch, so the
        # shadowing may keep it without the public sample()'s copy.
        shadow = self._shadowing._advance(self._fading_clock)
        fast = self._rician.sample_db(self._speeds)
        return mean + shadow + fast


# ----------------------------------------------------------------------
# Calibrated profiles
# ----------------------------------------------------------------------

def airplane_profile() -> ChannelProfile:
    """Two fixed-wing Swinglets, 80-100 m altitude, 5 GHz / 40 MHz.

    Calibrated so that the fly-by campaign's auto-rate medians
    reproduce the paper's airplane fit ``s(d) = 1e6 (-5.56 log2 d + 49)``
    — measured: slope -5.3, intercept 46.1, R^2 = 0.94 — and the best
    fixed MCS per distance matches Fig. 6 (MCS3 to ~180 m, MCS1 at
    200-220 m, MCS8 from 240 m).
    """
    return ChannelProfile(
        name="airplane",
        pathloss=DualSlopePathLoss(
            near_exponent=0.912,
            far_exponent=3.58,
            breakpoint_m=210.0,
            reference_loss_db=83.11,
        ),
        budget=LinkBudget(snr_cap_db=17.0),
        shadowing=ShadowingConfig(
            sigma_db=4.5,
            coherence_time_s=0.25,
            dropout_probability=0.12,
            dropout_depth_db=15.0,
        ),
        # The airplane fit was measured *in flight* (relative speeds of
        # 15-26 m/s), so motion effects are already embodied in the
        # path-loss/shadowing calibration; no extra speed penalty.
        speed_penalty=SpeedPenalty(slope_db_per_mps=0.0, max_penalty_db=0.0),
        rician_k_hover_db=10.0,
        min_distance_m=20.0,
    )


def quadrocopter_profile() -> ChannelProfile:
    """Two Arducopters hovering at 10 m altitude, 5 GHz / 40 MHz.

    Calibrated so the simulated auto-rate (ARF) medians reproduce the
    paper's quadrocopter fit ``s(d) = 1e6 (-10.5 log2 d + 73)`` —
    measured: slope -10.3, intercept 70.8, R^2 = 1.00.  Hovering is
    calmer than banking flight (smaller shadowing variance, fewer
    dropouts), matching the lower variability of Fig. 7 vs Fig. 5.
    """
    return ChannelProfile(
        name="quadrocopter",
        pathloss=LogDistancePathLoss(exponent=1.246, reference_loss_db=83.6),
        budget=LinkBudget(snr_cap_db=20.0),
        shadowing=ShadowingConfig(
            sigma_db=3.0,
            coherence_time_s=0.5,
            dropout_probability=0.06,
            dropout_depth_db=14.0,
        ),
        speed_penalty=SpeedPenalty(slope_db_per_mps=0.9),
        rician_k_hover_db=12.0,
        rician_speed_scale_mps=8.0,
        fading_clock_speed_scale_mps=3.0,
        min_distance_m=5.0,
    )


def indoor_profile() -> ChannelProfile:
    """Benign indoor reference link (the authors' ~176 Mb/s lab test)."""
    return ChannelProfile(
        name="indoor",
        pathloss=FreeSpacePathLoss(),
        budget=LinkBudget(snr_cap_db=35.0),
        shadowing=ShadowingConfig(
            sigma_db=2.0,
            coherence_time_s=2.0,
            dropout_probability=0.0,
            dropout_depth_db=0.0,
        ),
        speed_penalty=SpeedPenalty(slope_db_per_mps=0.0, max_penalty_db=0.0),
        rician_k_hover_db=15.0,
        min_distance_m=1.0,
    )

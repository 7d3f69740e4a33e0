"""The wireless link engine: channel x rate control x MAC.

:class:`WirelessLink` is the hybrid (epoch-based) simulation engine the
measurement campaigns and strategy replays run on.  Time advances in
short *epochs* (default 20 ms).  Per epoch the engine:

1. samples the channel SNR (correlated shadowing + fast fading),
2. asks the rate controller for an MCS (auto-rate sees no SNR; the
   oracle receives the mean-SNR hint),
3. computes the subframe PER from the error model,
4. packs as many A-MPDU exchanges as fit in the epoch and draws the
   delivered subframe count binomially,
5. feeds the outcome back to the controller.

This reproduces per-second iperf readings faithfully while staying
orders of magnitude faster than per-MPDU simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..channel.channel import AerialChannel
from ..faults.outage import OutageSchedule
from ..mac.aggregation import AmpduConfig, AmpduLink
from ..phy.error import ErrorModel
from ..phy.phy80211n import PhyConfig
from ..phy.rate_control import RateController
from ..sim.random import RandomStreams

__all__ = ["LinkStepResult", "WirelessLink"]


@dataclass(frozen=True)
class LinkStepResult:
    """Outcome of one epoch of link activity."""

    bytes_delivered: int
    subframes_sent: int
    subframes_delivered: int
    mcs_index: int
    snr_db: float
    airtime_s: float

    @property
    def delivery_ratio(self) -> float:
        """Fraction of sent subframes that were acknowledged."""
        if self.subframes_sent == 0:
            return 0.0
        return self.subframes_delivered / self.subframes_sent


class WirelessLink:
    """One directed 802.11n link between two UAVs (or UAV and ground)."""

    def __init__(
        self,
        channel: AerialChannel,
        controller: RateController,
        error_model: Optional[ErrorModel] = None,
        phy: PhyConfig = PhyConfig(),
        ampdu: Optional[AmpduConfig] = None,
        streams: Optional[RandomStreams] = None,
        epoch_s: float = 0.02,
        stream_name: str = "link",
        outage: Optional[OutageSchedule] = None,
    ) -> None:
        if epoch_s <= 0:
            raise ValueError("epoch_s must be positive")
        self.channel = channel
        self.controller = controller
        self.error_model = error_model if error_model is not None else ErrorModel()
        self.phy = phy
        self._mac = AmpduLink(ampdu if ampdu is not None else AmpduConfig(), phy)
        streams = streams if streams is not None else RandomStreams(seed=0)
        self._rng = streams.get(f"{stream_name}.delivery")
        self.epoch_s = epoch_s
        # An empty schedule is normalised away so the fault-free code
        # path is byte-for-byte the pre-fault one.
        if outage is not None and outage.is_empty:
            outage = None
        self._outage = outage
        self._oracle_hints = hasattr(controller, "expected_goodput_bps")
        # The layout is frozen: read its derived sizes once.
        layout = self._mac.config.layout
        self._subframe_bytes = layout.subframe_bytes
        self._app_payload_bytes = layout.app_payload_bytes
        # The last time is_blacked_out found the link clear, so a step
        # at that same time need not ask the schedule again.
        self._clear_at_s: Optional[float] = None

    # Read-only: the cached layout sizes and the outage memo depend on
    # them.
    @property
    def mac(self) -> AmpduLink:
        """The A-MPDU airtime and delivery model."""
        return self._mac

    @property
    def outage(self) -> Optional[OutageSchedule]:
        """The injected blackout windows (``None``: fault-free)."""
        return self._outage

    def is_blacked_out(self, now_s: float) -> bool:
        """Whether an injected outage silences the link at ``now_s``."""
        if self._outage is None:
            return False
        if self._outage.is_out(now_s):
            return True
        self._clear_at_s = now_s
        return False

    # ------------------------------------------------------------------
    def step(
        self,
        now_s: float,
        distance_m: float,
        relative_speed_mps: float = 0.0,
        duration_s: Optional[float] = None,
        backlog_bytes: Optional[int] = None,
    ) -> LinkStepResult:
        """Run one epoch (or ``duration_s``) of transmissions.

        Durations longer than one epoch are subdivided so fading and
        rate-control dynamics stay at the epoch granularity regardless
        of the caller's tick.  ``backlog_bytes`` bounds delivery for
        finite transfers; ``None`` means saturated (iperf-style)
        traffic.
        """
        dt = self.epoch_s if duration_s is None else duration_s
        if dt <= 0:
            raise ValueError("duration must be positive")
        if dt > self.epoch_s * 1.5:
            return self._step_subdivided(
                now_s, distance_m, relative_speed_mps, dt, backlog_bytes
            )
        channel = self.channel
        snr = channel.sample_snr_db(now_s, distance_m, relative_speed_mps)
        hint = (
            channel.mean_snr_db(distance_m, relative_speed_mps)
            if self._oracle_hints
            else None
        )
        mcs = self.controller.select(now_s, snr_hint_db=hint)
        outage = self._outage
        if (
            outage is not None
            and now_s != self._clear_at_s
            and outage.is_out(now_s)
        ):
            # Blacked out: the channel and controller state evolved as
            # usual, but no subframes are attempted, no delivery
            # randomness is consumed and no feedback is given —
            # mirroring the backlog-drained early return below.
            return LinkStepResult(0, 0, 0, mcs, snr, 0.0)
        per = self.error_model.per(snr, mcs, self._subframe_bytes)

        mac = self._mac
        n_sub = mac.subframes_for_mcs(mcs)
        if backlog_bytes is not None:
            if backlog_bytes <= 0:
                return LinkStepResult(0, 0, 0, mcs, snr, 0.0)
            needed = -(-backlog_bytes // self._app_payload_bytes)
            n_sub = max(1, min(n_sub, needed))
        burst_airtime = mac.burst_airtime_s(mcs, n_sub)
        n_bursts = max(1, int(dt / burst_airtime))
        total_sub = n_bursts * n_sub
        if backlog_bytes is not None:
            # Allow retransmission headroom: cap attempts at twice the
            # backlog plus slack, so a draining queue does not inflate
            # the subframe count artificially.
            total_sub = min(total_sub, max(2 * needed, n_sub))
        delivered_sub = int(self._rng.binomial(total_sub, max(0.0, 1.0 - per)))
        payload = delivered_sub * self._app_payload_bytes
        if backlog_bytes is not None:
            payload = min(payload, backlog_bytes)
        self.controller.feedback(now_s, mcs, total_sub, delivered_sub)
        return LinkStepResult(
            payload, total_sub, delivered_sub, mcs, snr,
            min(dt, n_bursts * burst_airtime),
        )

    def _step_subdivided(
        self,
        now_s: float,
        distance_m: float,
        relative_speed_mps: float,
        duration_s: float,
        backlog_bytes: Optional[int],
    ) -> LinkStepResult:
        """Aggregate several epoch-sized steps into one result."""
        n = max(1, int(round(duration_s / self.epoch_s)))
        sub_dt = duration_s / n
        total_bytes = 0
        total_sent = 0
        total_delivered = 0
        total_air = 0.0
        last_mcs = 0
        snr_sum = 0.0
        remaining = backlog_bytes
        for i in range(n):
            step = self.step(
                now_s + i * sub_dt,
                distance_m=distance_m,
                relative_speed_mps=relative_speed_mps,
                duration_s=sub_dt,
                backlog_bytes=remaining,
            )
            total_bytes += step.bytes_delivered
            total_sent += step.subframes_sent
            total_delivered += step.subframes_delivered
            total_air += step.airtime_s
            last_mcs = step.mcs_index
            snr_sum += step.snr_db
            if remaining is not None:
                remaining -= step.bytes_delivered
                if remaining <= 0:
                    break
        return LinkStepResult(
            bytes_delivered=total_bytes,
            subframes_sent=total_sent,
            subframes_delivered=total_delivered,
            mcs_index=last_mcs,
            snr_db=snr_sum / max(1, min(n, i + 1)),
            airtime_s=total_air,
        )

    # ------------------------------------------------------------------
    def expected_goodput_bps(
        self, distance_m: float, relative_speed_mps: float = 0.0, mcs_index: Optional[int] = None
    ) -> float:
        """Analytic mean goodput at the mean SNR (no fading), for planners."""
        snr = self.channel.mean_snr_db(distance_m, relative_speed_mps)
        if mcs_index is None:
            mcs_index = self.controller.select(0.0, snr_hint_db=snr)
        per = self.error_model.per(snr, mcs_index, self._subframe_bytes)
        return self._mac.expected_goodput_bps(mcs_index, per)

"""A-MPDU aggregation and the burst airtime model.

The testbed enabled A-MPDU aggregation with a default of 14 subframes
and block acknowledgements.  One *burst* here is a full exchange:

``DIFS + backoff + aggregate PPDU + SIFS + BlockAck``

The paper also notes the embedded system could starve the aggregation
queue at high PHY rates ("the embedded system may not fill the buffer
fast enough, resulting in a lower number of A-MPDU sub-frames"); the
:class:`AmpduConfig` models that with a host throughput ceiling that
shrinks the aggregate at high rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..phy.phy80211n import PhyConfig, ppdu_duration_s
from .dcf import DcfTiming, legacy_frame_duration_s
from .frames import BLOCK_ACK_BYTES, MpduLayout

__all__ = ["AmpduConfig", "BurstOutcome", "AmpduLink"]


@dataclass(frozen=True)
class AmpduConfig:
    """Aggregation parameters (testbed defaults)."""

    max_subframes: int = 14
    layout: MpduLayout = MpduLayout()
    #: Host (embedded CPU/USB) ceiling on sustained offered load, bit/s.
    #: ``inf`` disables the starvation effect.
    host_ceiling_bps: float = 90e6
    block_ack_rate_bps: float = 24e6

    def __post_init__(self) -> None:
        if self.max_subframes < 1:
            raise ValueError("max_subframes must be >= 1")
        if self.host_ceiling_bps <= 0:
            raise ValueError("host_ceiling_bps must be positive")
        if self.block_ack_rate_bps <= 0:
            raise ValueError("block_ack_rate_bps must be positive")

    def subframes_for_rate(self, phy_rate_bps: float) -> int:
        """Aggregate size after host starvation at the given PHY rate.

        At PHY rates above the host ceiling the sender cannot refill the
        queue fast enough, so the aggregate shrinks proportionally.
        """
        if phy_rate_bps <= 0:
            raise ValueError("phy_rate_bps must be positive")
        if phy_rate_bps <= self.host_ceiling_bps:
            return self.max_subframes
        scaled = self.max_subframes * self.host_ceiling_bps / phy_rate_bps
        return max(1, int(scaled))


@dataclass(frozen=True)
class BurstOutcome:
    """Result of one A-MPDU exchange."""

    mcs_index: int
    subframes_sent: int
    subframes_delivered: int
    payload_bytes_delivered: int
    airtime_s: float

    @property
    def delivery_ratio(self) -> float:
        """Fraction of subframes acknowledged."""
        if self.subframes_sent == 0:
            return 0.0
        return self.subframes_delivered / self.subframes_sent


class AmpduLink:
    """Airtime and delivery model for A-MPDU bursts on one link.

    ``config``, ``phy`` and ``dcf`` are frozen and fixed at
    construction, so the per-MCS aggregate size and the burst airtime
    of each (MCS, aggregate size) pair are computed once per link.
    """

    def __init__(
        self,
        config: AmpduConfig = AmpduConfig(),
        phy: PhyConfig = PhyConfig(),
        dcf: DcfTiming = DcfTiming(),
    ) -> None:
        self._config = config
        self._phy = phy
        self._dcf = dcf
        self._subframes: Dict[int, int] = {}
        self._airtime: Dict[Tuple[int, int], float] = {}

    @property
    def config(self) -> AmpduConfig:
        """Aggregation parameters."""
        return self._config

    @property
    def phy(self) -> PhyConfig:
        """PHY configuration the airtimes are charged at."""
        return self._phy

    @property
    def dcf(self) -> DcfTiming:
        """Contention timing charged per exchange."""
        return self._dcf

    # ------------------------------------------------------------------
    def subframes_for_mcs(self, mcs_index: int) -> int:
        """Aggregate size at ``MCS{mcs_index}``'s PHY rate (host starvation)."""
        n = self._subframes.get(mcs_index)
        if n is None:
            n = self._config.subframes_for_rate(self._phy.data_rate_bps(mcs_index))
            self._subframes[mcs_index] = n
        return n

    def burst_airtime_s(self, mcs_index: int, n_subframes: int) -> float:
        """Full exchange duration for an ``n_subframes`` aggregate."""
        key = (mcs_index, n_subframes)
        airtime = self._airtime.get(key)
        if airtime is not None:
            return airtime
        if n_subframes < 1:
            raise ValueError("n_subframes must be >= 1")
        psdu_bytes = n_subframes * self._config.layout.subframe_bytes
        data = ppdu_duration_s(psdu_bytes, mcs_index, self._phy)
        back = legacy_frame_duration_s(
            BLOCK_ACK_BYTES, self._config.block_ack_rate_bps
        )
        airtime = self._dcf.exchange_overhead_s() + data + self._dcf.sifs_s + back
        # Bounded: at most one entry per (MCS, aggregate size) a link
        # can send; larger aggregates are computed on every call.
        if n_subframes <= self._config.max_subframes:
            self._airtime[key] = airtime
        return airtime

    def expected_goodput_bps(self, mcs_index: int, subframe_per: float) -> float:
        """Long-run application goodput at a constant subframe PER.

        Lost subframes are selectively retransmitted thanks to the block
        ACK, so goodput scales with ``1 - PER`` rather than collapsing
        on any single loss — the key benefit of A-MPDU the paper relies
        on.
        """
        if not 0.0 <= subframe_per <= 1.0:
            raise ValueError("subframe_per must be within [0, 1]")
        n = self.subframes_for_mcs(mcs_index)
        airtime = self.burst_airtime_s(mcs_index, n)
        payload_bits = n * self.config.layout.app_payload_bytes * 8
        return payload_bits * (1.0 - subframe_per) / airtime

    # ------------------------------------------------------------------
    def transmit_burst(
        self,
        rng: np.random.Generator,
        mcs_index: int,
        subframe_per: float,
        backlog_bytes: int | None = None,
    ) -> BurstOutcome:
        """Simulate one exchange; losses are i.i.d. across subframes.

        ``backlog_bytes`` bounds the aggregate when the sender's queue is
        nearly drained.
        """
        if not 0.0 <= subframe_per <= 1.0:
            raise ValueError("subframe_per must be within [0, 1]")
        n = self.subframes_for_mcs(mcs_index)
        if backlog_bytes is not None:
            if backlog_bytes <= 0:
                return BurstOutcome(mcs_index, 0, 0, 0, 0.0)
            needed = math.ceil(
                backlog_bytes / self.config.layout.app_payload_bytes
            )
            n = max(1, min(n, needed))
        delivered = int(rng.binomial(n, 1.0 - subframe_per))
        payload = delivered * self.config.layout.app_payload_bytes
        if backlog_bytes is not None:
            payload = min(payload, backlog_bytes)
        return BurstOutcome(
            mcs_index=mcs_index,
            subframes_sent=n,
            subframes_delivered=delivered,
            payload_bytes_delivered=payload,
            airtime_s=self.burst_airtime_s(mcs_index, n),
        )

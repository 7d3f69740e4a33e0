"""Per-A-MPDU event-driven link engine.

The fluid engine (:class:`~repro.net.link.WirelessLink`) aggregates
whole epochs; this engine plays every A-MPDU exchange as a discrete
event on the simulation kernel, with per-subframe Bernoulli losses and
true selective-repeat retransmission through the
:class:`~repro.mac.blockack.BlockAckScoreboard`.  It is slower but
exposes quantities the fluid model cannot: per-MPDU delivery latency,
retransmission counts, and head-of-line dynamics.

The test suite cross-validates the two engines: their goodput agrees
within a small factor under identical conditions, which is the main
correctness argument for using the fast engine in the campaigns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..channel.channel import AerialChannel
from ..mac.aggregation import AmpduConfig, AmpduLink
from ..mac.blockack import BlockAckScoreboard
from ..phy.error import ErrorModel
from ..phy.phy80211n import PhyConfig
from ..phy.rate_control import RateController
from ..sim.kernel import Simulator
from ..sim.monitor import SummaryStats
from ..sim.random import RandomStreams

__all__ = ["DetailedTransferResult", "DetailedLink"]


@dataclass
class DetailedTransferResult:
    """Outcome of one event-driven transfer."""

    completion_time_s: float
    bursts: int
    subframes_sent: int
    subframes_delivered: int
    retransmissions: int
    mpdu_latencies_s: List[float] = field(default_factory=list)

    @property
    def delivery_ratio(self) -> float:
        """Acknowledged / transmitted subframes."""
        if self.subframes_sent == 0:
            return 0.0
        return self.subframes_delivered / self.subframes_sent

    def latency_stats(self) -> SummaryStats:
        """Boxplot summary of per-MPDU delivery latency."""
        return SummaryStats.from_samples(self.mpdu_latencies_s)


class DetailedLink:
    """Event-driven counterpart of :class:`~repro.net.link.WirelessLink`."""

    def __init__(
        self,
        channel: AerialChannel,
        controller: RateController,
        error_model: Optional[ErrorModel] = None,
        phy: PhyConfig = PhyConfig(),
        ampdu: Optional[AmpduConfig] = None,
        streams: Optional[RandomStreams] = None,
        window_size: int = 64,
        stream_name: str = "detailed",
    ) -> None:
        self.channel = channel
        self.controller = controller
        self.error_model = error_model if error_model is not None else ErrorModel()
        self.phy = phy
        self.mac = AmpduLink(ampdu if ampdu is not None else AmpduConfig(), phy)
        streams = streams if streams is not None else RandomStreams(seed=0)
        self._rng = streams.get(f"{stream_name}.losses")
        self.window_size = window_size
        self._oracle_hints = hasattr(controller, "expected_goodput_bps")

    # ------------------------------------------------------------------
    def transfer(
        self,
        data_bytes: int,
        distance_fn: Callable[[float], float],
        speed_fn: Optional[Callable[[float], float]] = None,
        start_s: float = 0.0,
        deadline_s: float = 600.0,
    ) -> DetailedTransferResult:
        """Deliver ``data_bytes`` burst by burst; returns full accounting."""
        if data_bytes <= 0:
            raise ValueError("data_bytes must be positive")
        if deadline_s <= 0:
            raise ValueError("deadline must be positive")
        layout = self.mac.config.layout
        total_mpdus = math.ceil(data_bytes / layout.app_payload_bytes)
        sim = Simulator(start_time=start_s)
        scoreboard = BlockAckScoreboard(window_size=self.window_size)
        first_tx_time: Dict[int, float] = {}
        attempts: Dict[int, int] = {}
        latencies: List[float] = []
        stats = {
            "bursts": 0,
            "sent": 0,
            "delivered": 0,
            "retx": 0,
            "done_at": None,
        }
        end_time = start_s + deadline_s

        def burst() -> None:
            if scoreboard.completed >= total_mpdus:
                stats["done_at"] = sim.now
                return
            if sim.now >= end_time:
                return
            now = sim.now
            distance = distance_fn(now)
            speed = speed_fn(now) if speed_fn is not None else 0.0
            snr = self.channel.sample_snr_db(now, distance, speed)
            hint = (
                self.channel.mean_snr_db(distance, speed)
                if self._oracle_hints
                else None
            )
            mcs = self.controller.select(now, snr_hint_db=hint)
            n_max = self.mac.subframes_for_mcs(mcs)
            remaining = total_mpdus - scoreboard.completed
            batch = scoreboard.next_batch(min(n_max, self.window_size))
            batch = [seq for seq in batch if seq < total_mpdus][: max(1, remaining)]
            if not batch:
                # Window stalled on unacked heads: retransmit the head.
                batch = [scoreboard.window_start]
            per = self.error_model.per(snr, mcs, layout.subframe_bytes)
            delivered = []
            for seq in batch:
                if seq not in first_tx_time:
                    first_tx_time[seq] = now
                attempts[seq] = attempts.get(seq, 0) + 1
                if attempts[seq] > 1:
                    stats["retx"] += 1
                if self._rng.random() >= per:
                    delivered.append(seq)
            newly = scoreboard.acknowledge(delivered)
            airtime = self.mac.burst_airtime_s(mcs, len(batch))
            stats["bursts"] += 1
            stats["sent"] += len(batch)
            stats["delivered"] += len(delivered)
            self.controller.feedback(now, mcs, len(batch), len(delivered))
            for seq in delivered:
                latencies.append(now + airtime - first_tx_time[seq])
            sim.schedule_in(airtime, burst)

        sim.schedule(start_s, burst)
        sim.run(until=end_time)
        completion = (
            stats["done_at"] if stats["done_at"] is not None else end_time
        )
        return DetailedTransferResult(
            completion_time_s=float(completion),
            bursts=stats["bursts"],
            subframes_sent=stats["sent"],
            subframes_delivered=stats["delivered"],
            retransmissions=stats["retx"],
            mpdu_latencies_s=latencies,
        )

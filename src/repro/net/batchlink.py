"""Replica-batched wireless link engine.

:class:`BatchWirelessLink` steps R independent replicas of the
epoch-based :class:`~repro.net.link.WirelessLink` pipeline in lockstep
NumPy: one batched channel draw, one vectorised rate-control decision,
one vectorised subframe-PER evaluation and one binomial draw per epoch
deliver the outcome of R links at once.  Measurement campaigns are
embarrassingly parallel across (seed, distance, speed) combinations,
so this is where their wall-clock goes from minutes to seconds.

Equivalence contract: with ``n_replicas == 1`` and the same
:class:`~repro.sim.random.RandomStreams` seed and stream names, the
batched engine consumes the random streams exactly as the scalar
engine does and reproduces its :class:`LinkStepResult` series bit for
bit (see ``tests/net/test_batchlink.py``).  With R > 1 the replicas
share one stream per subsystem, drawing ``(R,)`` blocks per epoch —
statistically equivalent to R independently seeded scalar runs.  On
:class:`~repro.sim.random.SegmentedStreams` several replica blocks,
each with its own registry, step as one batch and each block's values
equal its run as a batch of its own.

Per-MCS quantities that the scalar engine recomputes per epoch (PHY
rate, aggregate size after host starvation, burst airtime) are pure
functions of the MCS index and the subframe count, so they are
precomputed once into lookup tables with the *scalar* code — keeping
the batch bit-identical while making the per-epoch cost one fancy
index instead of a Python call chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..channel.channel import BatchAerialChannel
from ..faults.outage import BatchOutageSchedule
from ..mac.aggregation import AmpduConfig, AmpduLink
from ..phy.error import ErrorModel
from ..phy.mcs import MCS_TABLE
from ..phy.phy80211n import PhyConfig
from ..phy.rate_control import BatchRateController
from ..sim.random import RandomStreams, SegmentedGenerator, SegmentedStreams
from .link import LinkStepResult

__all__ = ["BatchLinkStepResult", "BatchWirelessLink"]


@dataclass(frozen=True)
class BatchLinkStepResult:
    """Outcome of one epoch across all replicas (parallel arrays)."""

    bytes_delivered: np.ndarray
    subframes_sent: np.ndarray
    subframes_delivered: np.ndarray
    mcs_index: np.ndarray
    snr_db: np.ndarray
    airtime_s: np.ndarray

    @property
    def n_replicas(self) -> int:
        """Number of replicas in this batch."""
        return int(self.bytes_delivered.shape[0])

    @property
    def delivery_ratio(self) -> np.ndarray:
        """Per-replica fraction of sent subframes acknowledged."""
        sent = np.maximum(self.subframes_sent, 1)
        return np.where(
            self.subframes_sent == 0, 0.0, self.subframes_delivered / sent
        )

    def result(self, replica: int) -> LinkStepResult:
        """Materialise one replica's outcome as a scalar result."""
        return LinkStepResult(
            bytes_delivered=int(self.bytes_delivered[replica]),
            subframes_sent=int(self.subframes_sent[replica]),
            subframes_delivered=int(self.subframes_delivered[replica]),
            mcs_index=int(self.mcs_index[replica]),
            snr_db=float(self.snr_db[replica]),
            airtime_s=float(self.airtime_s[replica]),
        )


class BatchWirelessLink:
    """R directed 802.11n links stepped in lockstep (one per replica)."""

    def __init__(
        self,
        channel: BatchAerialChannel,
        controller: BatchRateController,
        error_model: Optional[ErrorModel] = None,
        phy: PhyConfig = PhyConfig(),
        ampdu: Optional[AmpduConfig] = None,
        streams: "RandomStreams | SegmentedStreams | None" = None,
        epoch_s: float = 0.02,
        stream_name: str = "link",
        outage: Optional[BatchOutageSchedule] = None,
    ) -> None:
        if epoch_s <= 0:
            raise ValueError("epoch_s must be positive")
        if controller.n_replicas != channel.n_replicas:
            raise ValueError(
                f"controller has {controller.n_replicas} replicas, "
                f"channel has {channel.n_replicas}"
            )
        self.channel = channel
        self.controller = controller
        self.n_replicas = channel.n_replicas
        self.error_model = error_model if error_model is not None else ErrorModel()
        self.phy = phy
        self._mac = AmpduLink(ampdu if ampdu is not None else AmpduConfig(), phy)
        streams = streams if streams is not None else RandomStreams(seed=0)
        self._rng = SegmentedGenerator.of(
            streams.get(f"{stream_name}.delivery"), self.n_replicas
        )
        self.epoch_s = epoch_s
        if outage is not None:
            if outage.n_replicas != self.n_replicas:
                raise ValueError(
                    f"outage schedule has {outage.n_replicas} replicas, "
                    f"link has {self.n_replicas}"
                )
            # An empty schedule is normalised away so the fault-free
            # code path is byte-for-byte the pre-fault one.
            if outage.is_empty:
                outage = None
        self._outage = outage
        #: Per-replica epochs spent blacked out by injected outages.
        self.outage_epochs = np.zeros(self.n_replicas, dtype=np.int64)
        self._oracle_hints = hasattr(controller, "expected_goodput_bps")
        # Per-MCS lookup tables built with the scalar MAC/PHY code, so
        # batched epochs charge exactly the scalar airtimes.
        indices = sorted(MCS_TABLE)
        if indices != list(range(len(indices))):
            raise ValueError("MCS table must be contiguous from 0")
        layout = self.mac.config.layout
        self._rate_table = np.array(
            [phy.data_rate_bps(i) for i in indices]
        )
        self._nsub_table = np.array(
            [self.mac.config.subframes_for_rate(r) for r in self._rate_table],
            dtype=np.int64,
        )
        max_sub = self.mac.config.max_subframes
        self._airtime_table = np.array(
            [
                [self.mac.burst_airtime_s(i, n) for n in range(1, max_sub + 1)]
                for i in indices
            ]
        )
        self._app_payload_bytes = layout.app_payload_bytes
        self._subframe_bytes = layout.subframe_bytes

    # Read-only, as on the scalar twin: the per-MCS tables above are
    # built from ``mac``.
    @property
    def mac(self) -> AmpduLink:
        """The A-MPDU airtime and delivery model."""
        return self._mac

    @property
    def outage(self) -> Optional[BatchOutageSchedule]:
        """The per-replica blackout windows (``None``: fault-free)."""
        return self._outage

    @property
    def outage_replica_epochs(self) -> int:
        """Replica-epochs spent blacked out by injected outages so far."""
        return int(self.outage_epochs.sum())

    def is_blacked_out(self, now_s: float) -> np.ndarray:
        """Per-replica injected-outage mask at ``now_s``."""
        if self.outage is None:
            return np.zeros(self.n_replicas, dtype=bool)
        return self.outage.is_out(now_s)

    # ------------------------------------------------------------------
    def step(
        self,
        now_s: float,
        distance_m,
        relative_speed_mps=0.0,
        duration_s: Optional[float] = None,
        backlog_bytes=None,
    ) -> BatchLinkStepResult:
        """Run one epoch (or ``duration_s``) across all replicas.

        Mirrors :meth:`WirelessLink.step`: longer durations are
        subdivided into epoch-sized sub-steps, ``backlog_bytes`` (a
        scalar or per-replica array) bounds delivery for finite
        transfers, ``None`` means saturated traffic.
        """
        dt = self.epoch_s if duration_s is None else duration_s
        if dt <= 0:
            raise ValueError("duration must be positive")
        if dt > self.epoch_s * 1.5:
            return self._step_subdivided(
                now_s, distance_m, relative_speed_mps, dt, backlog_bytes
            )
        backlog = self._as_backlog(backlog_bytes)

        snr = self.channel.sample_snr_db_batch(
            now_s, distance_m, relative_speed_mps
        )
        hint = (
            self.channel.mean_snr_db_batch(distance_m, relative_speed_mps)
            if self._oracle_hints
            else None
        )
        mcs = self.controller.select(now_s, snr_hint_db=hint)
        per = self.error_model.per_array(snr, mcs, self._subframe_bytes)

        n_sub = self._nsub_table[mcs]
        active = None
        if backlog is not None:
            active = backlog > 0
            needed = np.maximum(-(-backlog // self._app_payload_bytes), 1)
            n_sub = np.maximum(1, np.minimum(n_sub, needed))
        # Injected-outage replicas are excluded from the sending mask the
        # same way drained ones are, so — like the scalar twin — they
        # attempt no subframes and consume no delivery randomness while
        # the channel and controller state keep evolving.
        out = None
        if self.outage is not None:
            out = self.outage.is_out(now_s)
            if out.any():
                self.outage_epochs += out
            else:
                out = None
        sending = active
        if out is not None:
            sending = ~out if sending is None else (sending & ~out)
        airtime = self._airtime_table[mcs, n_sub - 1]
        n_bursts = np.maximum(1, (dt / airtime).astype(np.int64))
        total_sub = n_bursts * n_sub
        if backlog is not None:
            max_needed = -(-np.maximum(backlog, 0) // self._app_payload_bytes)
            # Retransmission headroom, as in the scalar engine: cap
            # attempts at twice the backlog plus slack.
            total_sub = np.minimum(
                total_sub, np.maximum(2 * max_needed, n_sub)
            )
        if sending is not None:
            total_sub = np.where(sending, total_sub, 0)

        p = np.maximum(0.0, 1.0 - per)
        if sending is None:
            delivered = self._rng.binomial(total_sub, p)
        else:
            delivered = np.zeros(self.n_replicas, dtype=np.int64)
            if sending.any():
                delivered[sending] = self._rng.binomial(
                    total_sub, p, mask=sending
                )
        payload = delivered * self._app_payload_bytes
        if backlog is not None:
            payload = np.minimum(payload, np.maximum(backlog, 0))

        self.controller.feedback(now_s, mcs, total_sub, delivered)

        result_air = np.minimum(dt, n_bursts * airtime)
        if sending is not None:
            result_air = np.where(sending, result_air, 0.0)
        # Every array here is fresh for this epoch except ``mcs``, which
        # a controller may return read-only from its own state.
        return BatchLinkStepResult(
            bytes_delivered=payload.astype(np.int64, copy=False),
            subframes_sent=total_sub.astype(np.int64, copy=False),
            subframes_delivered=delivered.astype(np.int64, copy=False),
            mcs_index=np.asarray(mcs, dtype=np.int64),
            snr_db=snr,
            airtime_s=result_air,
        )

    def _as_backlog(self, backlog_bytes) -> Optional[np.ndarray]:
        if backlog_bytes is None:
            return None
        arr = np.asarray(backlog_bytes, dtype=np.int64)
        if arr.ndim == 0:
            arr = np.full(self.n_replicas, int(arr), dtype=np.int64)
        if arr.shape != (self.n_replicas,):
            raise ValueError(
                f"backlog_bytes must be scalar or shape ({self.n_replicas},)"
            )
        return arr

    def _step_subdivided(
        self,
        now_s: float,
        distance_m,
        relative_speed_mps,
        duration_s: float,
        backlog_bytes,
    ) -> BatchLinkStepResult:
        """Aggregate several epoch-sized steps into one result."""
        n = max(1, int(round(duration_s / self.epoch_s)))
        sub_dt = duration_s / n
        total_bytes = np.zeros(self.n_replicas, dtype=np.int64)
        total_sent = np.zeros(self.n_replicas, dtype=np.int64)
        total_delivered = np.zeros(self.n_replicas, dtype=np.int64)
        total_air = np.zeros(self.n_replicas)
        last_mcs = np.zeros(self.n_replicas, dtype=np.int64)
        snr_sum = np.zeros(self.n_replicas)
        remaining = self._as_backlog(backlog_bytes)
        executed = 0
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
            executed = i + 1
            if remaining is not None:
                remaining = remaining - step.bytes_delivered
                if np.all(remaining <= 0):
                    break
        return BatchLinkStepResult(
            bytes_delivered=total_bytes,
            subframes_sent=total_sent,
            subframes_delivered=total_delivered,
            mcs_index=last_mcs,
            snr_db=snr_sum / max(1, executed),
            airtime_s=total_air,
        )

    # ------------------------------------------------------------------
    def expected_goodput_bps(
        self, distance_m, relative_speed_mps=0.0, mcs_index=None
    ) -> np.ndarray:
        """Per-replica analytic mean goodput at the mean SNR (no fading)."""
        snr = self.channel.mean_snr_db_batch(distance_m, relative_speed_mps)
        if mcs_index is None:
            mcs = self.controller.select(0.0, snr_hint_db=snr)
        else:
            mcs = np.broadcast_to(
                np.asarray(mcs_index, dtype=np.int64), (self.n_replicas,)
            )
        per = self.error_model.per_array(snr, mcs, self._subframe_bytes)
        n = self._nsub_table[mcs]
        airtime = self._airtime_table[mcs, n - 1]
        payload_bits = n * self._app_payload_bytes * 8
        return payload_bits * (1.0 - per) / airtime

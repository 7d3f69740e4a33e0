"""Packet and batch abstractions.

The sensing task produces *image batches* (``Mdata`` in the paper); the
transport slices them into UDP datagrams.  These classes keep the byte
accounting honest end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

__all__ = ["Datagram", "ImageBatch"]


@dataclass(frozen=True)
class Datagram:
    """One UDP datagram belonging to a batch."""

    batch_id: int
    sequence: int
    payload_bytes: int

    def __post_init__(self) -> None:
        if self.payload_bytes <= 0:
            raise ValueError("payload_bytes must be positive")
        if self.sequence < 0:
            raise ValueError("sequence must be non-negative")


@dataclass
class ImageBatch:
    """A batch of collected imagery awaiting delivery."""

    batch_id: int
    total_bytes: int
    created_at_s: float = 0.0
    delivered_bytes: int = 0

    def __post_init__(self) -> None:
        if self.total_bytes <= 0:
            raise ValueError("total_bytes must be positive")

    @property
    def remaining_bytes(self) -> int:
        """Bytes still to deliver."""
        return self.total_bytes - self.delivered_bytes

    @property
    def complete(self) -> bool:
        """Whether everything has been delivered."""
        return self.delivered_bytes >= self.total_bytes

    @property
    def delivered_fraction(self) -> float:
        """Fraction of the batch delivered, in [0, 1]."""
        return min(1.0, self.delivered_bytes / self.total_bytes)

    def deliver(self, nbytes: int) -> int:
        """Record delivery of up to ``nbytes``; returns bytes accepted."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        accepted = min(nbytes, self.remaining_bytes)
        self.delivered_bytes += accepted
        return accepted

    def datagrams(self, payload_bytes: int = 1472) -> List[Datagram]:
        """Slice the batch into datagrams of ``payload_bytes`` each."""
        if payload_bytes <= 0:
            raise ValueError("payload_bytes must be positive")
        count = math.ceil(self.total_bytes / payload_bytes)
        out: List[Datagram] = []
        remaining = self.total_bytes
        for seq in range(count):
            size = min(payload_bytes, remaining)
            out.append(Datagram(self.batch_id, seq, size))
            remaining -= size
        return out

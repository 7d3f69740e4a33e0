"""A byte-accounted FIFO of image batches awaiting delivery.

The sensing loop enqueues batches; the transfer engine drains them in
order.  Used by the end-to-end mission simulations where a UAV collects
several batches before each rendezvous.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from .packets import ImageBatch

__all__ = ["BatchQueue"]


class BatchQueue:
    """FIFO of :class:`ImageBatch` with aggregate byte accounting."""

    def __init__(self, capacity_bytes: Optional[int] = None) -> None:
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive when given")
        self._queue: Deque[ImageBatch] = deque()
        self.capacity_bytes = capacity_bytes
        self.dropped_batches = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def backlog_bytes(self) -> int:
        """Total undelivered bytes across all queued batches."""
        return sum(batch.remaining_bytes for batch in self._queue)

    @property
    def empty(self) -> bool:
        """True when nothing remains to deliver."""
        return self.backlog_bytes == 0

    def enqueue(self, batch: ImageBatch) -> bool:
        """Add a batch; returns False (and counts a drop) when full."""
        if (
            self.capacity_bytes is not None
            and self.backlog_bytes + batch.remaining_bytes > self.capacity_bytes
        ):
            self.dropped_batches += 1
            return False
        self._queue.append(batch)
        return True

    def head(self) -> Optional[ImageBatch]:
        """The oldest incomplete batch, or ``None``."""
        while self._queue and self._queue[0].complete:
            self._queue.popleft()
        return self._queue[0] if self._queue else None

    def deliver(self, nbytes: int) -> int:
        """Drain up to ``nbytes`` from the queue head(s); returns accepted."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        remaining = nbytes
        accepted = 0
        while remaining > 0:
            batch = self.head()
            if batch is None:
                break
            taken = batch.deliver(remaining)
            accepted += taken
            remaining -= taken
        return accepted

    def batches(self) -> List[ImageBatch]:
        """Snapshot of queued batches (including completed, pre-cleanup)."""
        return list(self._queue)

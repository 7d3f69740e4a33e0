"""Adaptive dispatch sharding for the execution backend.

Before :mod:`repro.exec`, every parallel call site carried its own
chunking heuristic: the campaign runner dispatched one pool task per
replica block and the relay runner one per (tiny) shard.
:class:`ShardPlanner` replaces both with one cost model:

* aim for **8–16 dispatch chunks per worker**, so stragglers cannot
  leave the pool idle at the tail of a map;
* **floor the chunk duration** so tiny tasks are grouped until a chunk
  is worth the submit/pickle round trip;
* estimate per-item cost from the chunk wall-clock the workers
  themselves record (an EWMA per task *family*, seeded by the first
  serial or pooled run).

Dispatch chunking is **result-neutral by construction**: the planner
only groups already-fixed determinism units (campaign and relay
shards) into pool submissions.  It never changes
``block_size`` — RNG streams fork on shard indices, so the
determinism-bearing shard layout belongs to the config, not to the
scheduler.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

__all__ = ["ShardPlanner"]


class ShardPlanner:
    """EWMA per-item cost model driving dispatch-chunk sizes."""

    #: Aim for this many chunks per worker (middle of the 8–16 band).
    target_chunks_per_worker = 12
    #: A chunk below this estimated duration is not worth a round trip.
    min_chunk_seconds = 0.005
    #: Cost assumed for a family never observed before.
    default_item_seconds = 0.02
    #: EWMA smoothing weight for new observations.
    alpha = 0.5

    def __init__(self) -> None:
        self._item_seconds: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def observe(self, family: str, n_items: int, seconds: float) -> None:
        """Fold one timing observation into the family's EWMA."""
        if n_items <= 0 or seconds < 0:
            return
        cost = seconds / n_items
        prior = self._item_seconds.get(family)
        self._item_seconds[family] = (
            cost
            if prior is None
            else self.alpha * cost + (1.0 - self.alpha) * prior
        )

    def item_seconds(self, family: str) -> float:
        """Current per-item cost estimate for ``family``."""
        return self._item_seconds.get(family, self.default_item_seconds)

    # ------------------------------------------------------------------
    def chunk_size(self, family: str, n_items: int, workers: int) -> int:
        """Items per dispatch chunk for a map of ``n_items`` tasks."""
        if n_items <= 0:
            return 1
        workers = max(1, workers)
        ideal = math.ceil(n_items / (workers * self.target_chunks_per_worker))
        cost = max(self.item_seconds(family), 1e-9)
        floor = math.ceil(self.min_chunk_seconds / cost)
        size = max(ideal, floor)
        # Never fewer chunks than workers (when there is enough work):
        # a single fat chunk would serialise the whole map.
        return max(1, min(size, math.ceil(n_items / workers)))

    def chunk_slices(
        self, family: str, n_items: int, workers: int,
        chunk_items: Optional[int] = None,
    ) -> "list[range]":
        """Contiguous index ranges covering ``range(n_items)``.

        Contiguity is what keeps merges trivially ordered: chunk *i*
        holds task indices ``start..stop`` and results are reassembled
        by global index, so completion order never matters.
        """
        size = (
            max(1, int(chunk_items))
            if chunk_items is not None
            else self.chunk_size(family, n_items, workers)
        )
        return [
            range(start, min(start + size, n_items))
            for start in range(0, n_items, size)
        ]

"""Thread-safe LRU memoisation for solved Eq. 2 instances.

The batch engine's scalar ``solve`` keys each solved instance by the
scenario's full parameter tuple (throughput-law identity, distance
bounds, speed, data size, failure rate) plus the solver settings, so
repeated solves — a mission planner re-planning the same geometry every
episode — hit the cache instead of the solver.  ``functools.lru_cache``
is not used because the memo is per engine, is cleared and inspected
through the engine, and stores plain row tuples.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional

__all__ = ["CacheInfo", "LruCache"]


@dataclass(frozen=True)
class CacheInfo:
    """Hit/miss counters, mirroring ``functools.lru_cache`` info."""

    hits: int
    misses: int
    maxsize: int
    currsize: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LruCache:
    """A small thread-safe least-recently-used mapping."""

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize < 0:
            raise ValueError("maxsize must be non-negative")
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value, refreshed as most-recent, or ``None``."""
        if self.maxsize == 0:
            return None
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses += 1
                return None
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh an entry, evicting the least-recently used."""
        if self.maxsize == 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._data.clear()
            self._hits = 0
            self._misses = 0

    def info(self) -> CacheInfo:
        """Current hit/miss statistics."""
        with self._lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                maxsize=self.maxsize,
                currsize=len(self._data),
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

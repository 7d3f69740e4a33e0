"""Thread-safe LRU memoisation for solved Eq. 2 instances.

The batch engine keys each solved instance by the scenario's full
parameter tuple (throughput-law identity, distance bounds, speed,
data size, failure rate) plus the solver settings, so repeated sweeps
— a mission planner re-planning the same geometry every episode, a
figure regenerator re-running a sweep — hit the cache instead of the
solver.  ``functools.lru_cache`` is not used because entries are
inserted from worker threads and from vectorised batch passes, not
through a single call boundary.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, List, Optional, Sequence, Tuple

__all__ = ["CacheInfo", "LruCache"]

_MISSING = object()


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

    def get_many(self, keys: Sequence[Optional[Hashable]]) -> List[Optional[Any]]:
        """:meth:`get` for each key under one lock acquisition.

        ``None`` keys (uncacheable instances) yield ``None`` and are not
        counted; counters and recency end exactly as the per-key loop
        would leave them.
        """
        if self.maxsize == 0:
            return [None] * len(keys)
        values: List[Optional[Any]] = []
        append = values.append
        hits = misses = 0
        with self._lock:
            data = self._data
            lookup = data.get
            refresh = data.move_to_end
            for key in keys:
                if key is None:
                    append(None)
                    continue
                value = lookup(key, _MISSING)
                if value is _MISSING:
                    misses += 1
                    append(None)
                else:
                    refresh(key)
                    hits += 1
                    append(value)
            self._hits += hits
            self._misses += misses
        return values

    def put_many(self, items: Iterable[Tuple[Optional[Hashable], Any]]) -> None:
        """:meth:`put` for each ``(key, value)`` under one lock.

        ``None`` keys are skipped.  Evicting once at the end leaves the
        same entries in the same order as evicting after every insert:
        either way the survivors are the ``maxsize`` most recent keys.
        """
        if self.maxsize == 0:
            return
        with self._lock:
            data = self._data
            refresh = data.move_to_end
            for key, value in items:
                if key is not None:
                    data[key] = value
                    refresh(key)
            while len(data) > self.maxsize:
                data.popitem(last=False)

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

"""repro.engine — fleet-scale batch solving of the paper's Eq. 2.

It runs the Eq. 2 kernel :func:`~repro.core.optimizer.argmax_utility`
(shared with :class:`~repro.core.optimizer.DistanceOptimizer`) over
N-scenario batches, with LRU memoisation and chunked thread-pool
fan-out.  See :class:`BatchSolverEngine`.
"""

from .batch import BatchResult, BatchSolverEngine, default_engine
from .cache import CacheInfo, LruCache

__all__ = [
    "BatchResult",
    "BatchSolverEngine",
    "CacheInfo",
    "LruCache",
    "default_engine",
]

"""repro.engine — fleet-scale batch solving of the paper's Eq. 2.

It runs the Eq. 2 kernels over N-scenario batches, with LRU
memoisation and chunked thread-pool fan-out: the exact
:func:`~repro.core.optimizer.certified_argmax` on falling log-law rows,
and the grid kernel :func:`~repro.core.optimizer.argmax_utility`
(shared with :class:`~repro.core.optimizer.DistanceOptimizer`) on the
rest.  See :class:`BatchSolverEngine`.
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

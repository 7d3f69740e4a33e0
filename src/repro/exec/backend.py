"""The process-wide execution backend: one pool, many call sites.

Every parallel stage in the pipeline — measurement campaigns and relay
campaigns — used to build a fresh executor per invocation.
:class:`ExecBackend` owns **persistent, lazily-spawned** pools
instead: the first ``map`` pays the fork, every later one reuses the
warm workers (the ``exec.pool_reuse`` counter records how often that
pays off).

Contracts the backend guarantees:

* **Ordered, deterministic merges.**  ``map`` returns results in task
  order regardless of pool completion order; dispatch chunks are
  contiguous index ranges reassembled by global chunk index.
* **Byte-identical serial vs. pooled.**  Results travel home as plain
  pickle, which is exact; workers are pure functions of their pickled
  arguments, and the backend's own counters never touch result values
  — so manifests built from pooled runs match the serial ones byte for
  byte.
* **Crash recovery.**  A worker death breaks a
  ``ProcessPoolExecutor`` permanently; the backend disposes the broken
  pool, respawns, and resubmits exactly the chunks that never
  delivered.  Re-running a chunk is safe *because* workers are pure.
  After :data:`ExecBackend.max_respawns` breakages the remaining
  chunks run serially in the parent — degraded, never wrong.
* **Fork safety.**  Pools are guarded by the owning PID: a forked
  child (including our own workers) that touches the backend gets
  fresh state instead of the parent's executor handles.

Worker count resolution: explicit ``max_workers`` argument, else
:func:`configure`'s value (the CLI ``--jobs`` flag), else the
``REPRO_EXEC_WORKERS`` environment variable, else ``os.cpu_count()``.
``configure(serial=True)`` (the CLI ``--serial`` flag) forces every
``map`` onto the in-process path.

Backend counters (``exec.pool_reuse``, ``exec.respawns``,
``exec.shards``, ...) live on the backend object and in
:func:`counters_snapshot` — deliberately *not* in
:class:`~repro.obs.RunManifest` documents, whose cache-invariant
sections must not vary with worker count or pool state.
"""

from __future__ import annotations

import atexit
import os
from concurrent import futures
from typing import Callable, Dict, List, Optional, Sequence

from ..perf import wall_clock
from .sharding import ShardPlanner

__all__ = [
    "ExecBackend",
    "MapReport",
    "backend_for",
    "configure",
    "counters_snapshot",
    "default_backend",
    "resolve_workers",
    "shutdown",
]

_COUNTER_NAMES = (
    "exec.pool_reuse",
    "exec.pool_spawns",
    "exec.respawns",
    "exec.shards",
    "exec.serial_tasks",
)


def _fresh_counters() -> Dict[str, int]:
    return {name: 0 for name in _COUNTER_NAMES}


def _run_chunk(fn: Callable, tasks: Sequence) -> tuple:
    """One pool submission: run ``fn`` over a contiguous task chunk.

    Returns ``(seconds, outs)``: the chunk's wall-clock (the planner's
    cost model feeds on it) and the results, which travel home as
    plain pickle.
    """
    start = wall_clock()
    outs = [fn(task) for task in tasks]
    return wall_clock() - start, outs


class MapReport:
    """How one ``map`` call executed (for tests and benchmarks)."""

    __slots__ = ("pooled", "chunks", "tasks", "respawns")

    def __init__(
        self, pooled: bool, chunks: int, tasks: int, respawns: int = 0
    ) -> None:
        self.pooled = pooled
        self.chunks = chunks
        self.tasks = tasks
        self.respawns = respawns


class ExecBackend:
    """Persistent process/thread pools with deterministic ``map``."""

    #: Pool breakages tolerated per ``map`` before the remaining
    #: chunks run serially in the parent.
    max_respawns = 2

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers
        self.counters = _fresh_counters()
        self.planner = ShardPlanner()
        self._pool: Optional[futures.ProcessPoolExecutor] = None
        self._thread_pools: Dict[int, futures.ThreadPoolExecutor] = {}
        self._pid = os.getpid()
        self._pool_unavailable = False

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """The resolved process-pool width."""
        return resolve_workers(self.max_workers)

    def lanes(self, parallel: Optional[bool] = None) -> int:
        """How many tasks a ``map`` with this ``parallel`` runs at once.

        1 where ``map`` runs in-process (``parallel=False``,
        ``configure(serial=True)``, a pool that could not start),
        else the pool width.  Callers that pack work into tasks size
        their task count by it.
        """
        self._fork_guard()
        if parallel is False or _state().force_serial or self._pool_unavailable:
            return 1
        return self.workers

    def _fork_guard(self) -> None:
        """Drop pools inherited through ``fork`` — they belong to the
        parent process and must be neither used nor shut down here."""
        if os.getpid() != self._pid:
            self._pool = None
            self._thread_pools = {}
            self._pid = os.getpid()
            self._pool_unavailable = False

    def _ensure_pool(self) -> futures.ProcessPoolExecutor:
        self._fork_guard()
        if self._pool is None:
            self._pool = futures.ProcessPoolExecutor(
                max_workers=self.workers
            )
            self.counters["exec.pool_spawns"] += 1
        return self._pool

    def _dispose_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    def shutdown(self) -> None:
        """Tear down every pool this backend owns (idempotent)."""
        self._fork_guard()
        self._dispose_pool()
        pools, self._thread_pools = self._thread_pools, {}
        for pool in pools.values():
            pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable,
        tasks: Sequence,
        parallel: Optional[bool] = None,
        family: str = "default",
        with_report: bool = False,
    ):
        """Run ``fn`` over ``tasks``; results in task order.

        ``parallel=None`` auto-enables the pool when there are several
        tasks and more than one worker; ``True``/``False`` force it.
        ``configure(serial=True)`` and pool-startup failure both
        degrade to the exact in-process path.  ``family`` names the
        task population for the adaptive shard planner.  With
        ``with_report=True`` returns ``(results, MapReport)``.
        """
        tasks = list(tasks)
        if parallel is None:
            parallel = len(tasks) > 1 and self.workers > 1
        if _state().force_serial:
            parallel = False
        if not parallel or len(tasks) < 2:
            results, report = self._map_serial(fn, tasks, family)
        else:
            results, report = self._map_pooled(fn, tasks, family)
        return (results, report) if with_report else results

    def _map_serial(self, fn, tasks, family):
        start = wall_clock()
        results = [fn(task) for task in tasks]
        self.planner.observe(family, len(tasks), wall_clock() - start)
        self.counters["exec.serial_tasks"] += len(tasks)
        return results, MapReport(pooled=False, chunks=0, tasks=len(tasks))

    def _map_pooled(self, fn, tasks, family):
        self._fork_guard()
        if self._pool_unavailable:
            return self._map_serial(fn, tasks, family)
        reused = self._pool is not None
        slices = self.planner.chunk_slices(family, len(tasks), self.workers)
        done: List[Optional[list]] = [None] * len(slices)
        pending = set(range(len(slices)))
        respawns = 0
        while pending:
            try:
                pool = self._ensure_pool()
                submitted = {
                    pool.submit(
                        _run_chunk, fn, [tasks[i] for i in slices[ci]]
                    ): ci
                    for ci in sorted(pending)
                }
                for fut in futures.as_completed(submitted):
                    ci = submitted[fut]
                    seconds, outs = fut.result()
                    self.planner.observe(family, len(slices[ci]), seconds)
                    done[ci] = outs
                    pending.discard(ci)
            except (OSError, PermissionError):
                # Pool could not start (or died un-politely).  If it
                # never delivered anything this environment simply has
                # no pools; either way, finish in the parent.
                self._dispose_pool()
                if not reused and len(pending) == len(slices):
                    self._pool_unavailable = True
                    return self._map_serial(fn, tasks, family)
                self._run_in_parent(fn, tasks, slices, pending, done)
            except futures.process.BrokenProcessPool:
                self._dispose_pool()
                respawns += 1
                self.counters["exec.respawns"] += 1
                if respawns > self.max_respawns:
                    # Degrade, never fail: finish the undelivered
                    # chunks in the parent.  Purity of the workers
                    # makes the re-run bit-identical.
                    self._run_in_parent(fn, tasks, slices, pending, done)
        if reused:
            self.counters["exec.pool_reuse"] += 1
        self.counters["exec.shards"] += len(tasks)
        return [out for outs in done for out in outs], MapReport(
            pooled=True,
            chunks=len(slices),
            tasks=len(tasks),
            respawns=respawns,
        )

    def _run_in_parent(self, fn, tasks, slices, pending, done) -> None:
        """Degraded path: run every undelivered chunk in the parent."""
        for ci in sorted(pending):
            done[ci] = [fn(tasks[i]) for i in slices[ci]]
            self.counters["exec.serial_tasks"] += len(slices[ci])
        pending.clear()

    # ------------------------------------------------------------------
    def thread_map(
        self,
        fn: Callable,
        tasks: Sequence,
        max_workers: Optional[int] = None,
    ) -> list:
        """Ordered ``map`` on a persistent thread pool.

        For GIL-releasing NumPy stages; no stage of the package calls
        it (the batch engine solves serially).  Pools are cached per
        width so callers pinning ``max_workers`` keep getting the width
        they asked for.  When a task raises, the tasks not yet started
        are cancelled and the running ones finish before the error
        propagates, so a failed call leaves no work behind.
        """
        self._fork_guard()
        key = int(max_workers) if max_workers else 0
        pool = self._thread_pools.get(key)
        if pool is None:
            pool = futures.ThreadPoolExecutor(max_workers=max_workers)
            self._thread_pools[key] = pool
        else:
            self.counters["exec.pool_reuse"] += 1
        submitted = [pool.submit(fn, task) for task in tasks]
        try:
            return [future.result() for future in submitted]
        except BaseException:
            for future in submitted:
                future.cancel()
            futures.wait(submitted)
            raise


# ----------------------------------------------------------------------
# Process-global registry
# ----------------------------------------------------------------------

class _State:
    def __init__(self) -> None:
        self.pid = os.getpid()
        self.default: Optional[ExecBackend] = None
        self.sized: Dict[int, ExecBackend] = {}
        self.workers: Optional[int] = None
        self.force_serial = False


_STATE = _State()


def _state() -> _State:
    """The per-process registry (forked children start fresh)."""
    global _STATE
    if _STATE.pid != os.getpid():
        _STATE = _State()
    return _STATE


def resolve_workers(explicit: Optional[int] = None) -> int:
    """Worker count: explicit arg > configure() > env > cpu count."""
    if explicit is not None:
        return max(1, int(explicit))
    state = _state()
    if state.workers is not None:
        return max(1, state.workers)
    raw = os.environ.get("REPRO_EXEC_WORKERS")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


def default_backend() -> ExecBackend:
    """The lazily-created process-wide backend."""
    state = _state()
    if state.default is None:
        state.default = ExecBackend()
    return state.default


def backend_for(max_workers: Optional[int] = None) -> ExecBackend:
    """A persistent backend pinned to ``max_workers`` processes.

    ``None`` is the default backend.  Width-pinned backends are cached
    per width, so repeated calls with the same ``max_workers`` reuse
    one warm pool instead of spawning per call.
    """
    if max_workers is None:
        return default_backend()
    state = _state()
    width = max(1, int(max_workers))
    backend = state.sized.get(width)
    if backend is None:
        backend = ExecBackend(max_workers=width)
        state.sized[width] = backend
    return backend


def configure(
    workers: Optional[int] = None,
    serial: Optional[bool] = None,
) -> None:
    """Set process-global defaults (the CLI ``--jobs``/``--serial``).

    ``workers`` overrides the default backend's width for pools not
    yet spawned (a live default pool is disposed so the next map picks
    the new width up).  ``serial=True`` forces every backend onto the
    in-process path; ``serial=False`` re-enables pools.  ``None``
    leaves either setting unchanged.
    """
    state = _state()
    if workers is not None:
        state.workers = max(1, int(workers))
        if state.default is not None:
            state.default._dispose_pool()
    if serial is not None:
        state.force_serial = bool(serial)


def shutdown() -> None:
    """Tear down every registered backend's pools (idempotent)."""
    state = _state()
    backends = list(state.sized.values())
    if state.default is not None:
        backends.append(state.default)
    for backend in backends:
        backend.shutdown()


# Persistent pools must not outlive the interpreter's orderly phase:
# executor machinery garbage-collected during module teardown trips
# over already-cleared globals.  Registered once at import; fires only
# in the process that imported us (forked children re-register).
atexit.register(shutdown)


def counters_snapshot() -> Dict[str, int]:
    """Summed ``exec.*`` counters across all registered backends."""
    state = _state()
    total = _fresh_counters()
    backends = list(state.sized.values())
    if state.default is not None:
        backends.append(state.default)
    for backend in backends:
        for name, value in backend.counters.items():
            total[name] = total.get(name, 0) + value
    return total

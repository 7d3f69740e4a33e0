"""``repro.exec`` — the process-wide execution backend.

One persistent worker pool shared by every parallel stage in the
pipeline (measurement campaigns, relay campaigns), with:

* lazily-spawned, PID-guarded ``ProcessPoolExecutor``/
  ``ThreadPoolExecutor`` pools and an explicit :func:`shutdown`;
* results that travel home as plain pickle (exact, so serial and
  pooled maps agree bit for bit);
* adaptive dispatch sharding (:class:`~repro.exec.sharding.ShardPlanner`)
  seeded from the chunk wall-clock the workers report;
* crash recovery — broken pools respawn and undelivered chunks
  re-run deterministically.

Execution here is **result-neutral by contract**: serial and pooled
maps produce byte-identical outputs for any worker count (pinned by
the invariance suites), which is why ``repro.exec`` sits with
``repro.perf``/``repro.obs`` on the RL108 fingerprint prune list.
Knobs: ``REPRO_EXEC_WORKERS`` / :func:`configure` (the CLI
``--jobs``/``--serial`` flags); see docs/PERFORMANCE.md.
"""

from .backend import (
    ExecBackend,
    MapReport,
    backend_for,
    configure,
    counters_snapshot,
    default_backend,
    resolve_workers,
    shutdown,
)
from .sharding import ShardPlanner

__all__ = [
    "ExecBackend",
    "MapReport",
    "ShardPlanner",
    "backend_for",
    "configure",
    "counters_snapshot",
    "default_backend",
    "resolve_workers",
    "shutdown",
]

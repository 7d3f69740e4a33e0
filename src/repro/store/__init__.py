"""Persistent content-addressed result store and incremental execution.

See docs/PERFORMANCE.md ("Result store & incremental sweeps") for the
key-derivation, invalidation, and eviction story.  The store is opt-in
(``REPRO_CACHE_DIR`` / ``REPRO_CACHE=1``; ``REPRO_NO_CACHE=1`` wins)
and degrades to plain recomputation on any filesystem trouble.
"""

from .atomic import FileLock, atomic_write_bytes, atomic_write_text
from .fingerprint import (
    CAMPAIGN_CODE_MODULES,
    CHAOS_CODE_MODULES,
    RELAY_CODE_MODULES,
    SOLVER_CODE_MODULES,
    STORE_SCHEMA_VERSION,
    canonical_json,
    code_fingerprint,
    config_key,
)
from .incremental import (
    StoreReport,
    record_store_metrics,
    solve_batch_incremental,
    solve_incremental,
    sweep_incremental,
)
from .store import (
    DEFAULT_MAX_BYTES,
    ResultStore,
    cache_enabled_by_env,
    default_cache_dir,
    default_store,
    resolve_store,
)

__all__ = [
    "CAMPAIGN_CODE_MODULES",
    "CHAOS_CODE_MODULES",
    "DEFAULT_MAX_BYTES",
    "FileLock",
    "RELAY_CODE_MODULES",
    "ResultStore",
    "SOLVER_CODE_MODULES",
    "STORE_SCHEMA_VERSION",
    "StoreReport",
    "atomic_write_bytes",
    "atomic_write_text",
    "cache_enabled_by_env",
    "canonical_json",
    "code_fingerprint",
    "config_key",
    "default_cache_dir",
    "default_store",
    "record_store_metrics",
    "resolve_store",
    "solve_batch_incremental",
    "solve_incremental",
    "sweep_incremental",
]

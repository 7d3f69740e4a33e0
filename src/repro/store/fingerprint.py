"""Deterministic cache keys for the persistent result store.

A store key must change whenever *anything* that shapes the result
changes, and only then.  Four ingredients go into every key:

* a **canonical-JSON config fingerprint** of the problem parameters
  (scenario/solver/campaign/fault-plan fields, plus the seed where one
  exists) — ``json.dumps`` with sorted keys and compact separators, so
  semantically equal configs serialise to identical bytes, and float
  values round-trip exactly through ``repr``;
* the **store schema version** (:data:`STORE_SCHEMA_VERSION`), bumped
  on any change to the entry payload layout;
* a **code fingerprint** of the modules that produce the result, so a
  code change silently invalidates every stale entry instead of
  serving results a fixed bug would no longer produce;
* the **NumPy build** (:func:`numpy_build`): its version and the SIMD
  targets its loops dispatch to on this CPU, since both shape the last
  bits of ``log``, ``exp`` and ``power`` — a key pins one NumPy build
  on one SIMD path, so a store shared across hosts or upgrades never
  serves another path's bits.

The code fingerprint hashes the *source bytes* of the named modules
(packages are walked recursively, sorted), which over-invalidates on
comment-only edits — the safe direction — and is computed once per
process per module set; the NumPy build once per process.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

__all__ = [
    "STORE_SCHEMA_VERSION",
    "CAMPAIGN_CODE_MODULES",
    "CHAOS_CODE_MODULES",
    "RELAY_CODE_MODULES",
    "SOLVER_CODE_MODULES",
    "canonical_json",
    "code_fingerprint",
    "config_key",
    "numpy_build",
]

#: Bumped on any backwards-incompatible change to store entry payloads.
STORE_SCHEMA_VERSION = 2

# The four result tuples below must cover the static import closure
# of their entry module — reprolint rule RL108 (fingerprint-
# completeness) verifies this on every lint run, so a new import in
# the engine/campaign/chaos/relay path fails CI until it is
# fingerprinted.

#: Modules whose source shapes an Eq. 2 decision (point/sweep entries).
SOLVER_CODE_MODULES = (
    "repro.engine.batch",
    "repro.engine.cache",
    "repro.core.optimizer",
    "repro.core.throughput",
    "repro.core.utility",
    "repro.core.delay",
    "repro.core.failure",
    "repro.core.scenario",
    "repro.core.mission",
    "repro.airframe.platform",
    "repro.measurements.datasets",
)

#: Modules/packages whose source shapes a campaign shard's samples.
CAMPAIGN_CODE_MODULES = (
    "repro.measurements.batch",
    "repro.net",
    "repro.phy",
    "repro.channel",
    "repro.faults",
    "repro.sim",
    "repro.mac",
)

#: Modules/packages whose source shapes a chaos run.
CHAOS_CODE_MODULES = (
    "repro.faults",
    "repro.net",
    "repro.phy",
    "repro.channel",
    "repro.sim",
    "repro.mission.ferry",
    "repro.core",
    "repro.engine",
    "repro.airframe",
    "repro.geo.coords",
    "repro.mac",
    "repro.measurements.datasets",
)

#: Modules whose source shapes a relay-chain decision: the relay
#: model/solvers plus the full single-link solver closure they chain.
RELAY_CODE_MODULES = (
    "repro.relay.batch",
    "repro.relay.solver",
    "repro.relay.chain",
    "repro.engine.batch",
    "repro.engine.cache",
    "repro.core.optimizer",
    "repro.core.throughput",
    "repro.core.utility",
    "repro.core.delay",
    "repro.core.failure",
    "repro.core.scenario",
    "repro.core.mission",
    "repro.airframe.platform",
    "repro.measurements.datasets",
)

_CODE_FP_CACHE: Dict[Tuple[str, ...], str] = {}


def canonical_json(payload: object) -> str:
    """The one canonical JSON encoding: sorted keys, compact, exact.

    Floats serialise via ``repr`` (shortest round-trip), so equal
    values always produce equal bytes and decoded values are
    bit-identical to what was stored.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def _module_sources(spec: str) -> Iterable[Path]:
    """Source files of one module spec (packages walked recursively)."""
    module = importlib.import_module(spec)
    module_file = getattr(module, "__file__", None)
    if module_file is None:  # pragma: no cover - namespace package guard
        return []
    path = Path(module_file)
    if path.name == "__init__.py":
        return sorted(path.parent.rglob("*.py"))
    return [path]


def code_fingerprint(modules: Tuple[str, ...]) -> str:
    """SHA-256 over the source bytes of ``modules`` (cached per process).

    Unimportable or unreadable modules contribute their name plus a
    missing-marker instead of raising — a half-installed tree should
    fingerprint *differently*, not crash the cache layer.
    """
    cached = _CODE_FP_CACHE.get(modules)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for spec in modules:
        digest.update(spec.encode("utf-8"))
        try:
            for source in _module_sources(spec):
                digest.update(source.name.encode("utf-8"))
                digest.update(source.read_bytes())
        except (ImportError, OSError):
            digest.update(b"<missing>")
    fingerprint = digest.hexdigest()
    _CODE_FP_CACHE[modules] = fingerprint
    return fingerprint


@lru_cache(maxsize=None)
def numpy_build() -> Dict[str, object]:
    """NumPy's version and its active dispatch targets (once per process).

    The targets are the entries of ``__cpu_dispatch__`` that
    ``__cpu_features__`` reports enabled — the "found" SIMD extensions
    of ``np.show_runtime()``, after any ``NPY_DISABLE_CPU_FEATURES``.
    """
    import numpy
    from numpy._core._multiarray_umath import (
        __cpu_dispatch__,
        __cpu_features__,
    )

    return {
        "version": numpy.__version__,
        "simd": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)],
    }


def config_key(
    kind: str,
    config: object,
    code_modules: Tuple[str, ...],
    extra_bytes: Optional[bytes] = None,
) -> str:
    """The store key for one result: SHA-256 over the canonical parts.

    ``config`` must be canonical-JSON-able (dicts/lists/tuples of
    scalars).  ``extra_bytes`` appends raw bytes that are already
    canonical (e.g. the ``tobytes()`` of a float64 sweep-value array)
    without paying a JSON encode for them.
    """
    digest = hashlib.sha256()
    digest.update(
        canonical_json(
            {
                "kind": kind,
                "schema": STORE_SCHEMA_VERSION,
                "code": code_fingerprint(code_modules),
                "numpy": numpy_build(),
                "config": config,
            }
        ).encode("utf-8")
    )
    if extra_bytes is not None:
        digest.update(extra_bytes)
    return digest.hexdigest()

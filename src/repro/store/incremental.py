"""Incremental Eq. 2 execution on top of the persistent result store.

The flow mirrors the batch engine's in-memory memoisation, one level
up and durable across processes: requested points are partitioned into
*cached* and *missing* groups, only the missing ones are dispatched to
the engine (in a single ``solve_batch`` call, so a fully cold run
executes exactly the code path an uncached run would), and results are
merged back in request order.

Granularity
-----------
Entries hold *groups* of solved points, not single points: a warm
re-run of an 8k-point sweep must cost a handful of file reads, not 8k.
Small batches (``<= _POINT_GROUP_LIMIT`` points) use groups of one so
planner-style workloads get true point-level reuse; large batches use
groups of ``_GROUP_SIZE`` (2048) points.

Entry layout
------------
An entry's body is a few bytes of JSON: ``n``, ``tolerance_m`` and the
ordered names of the nine :class:`~repro.engine.batch.BatchResult`
columns.  The numbers travel in the entry's raw tail (see
:mod:`repro.store.store`): the nine columns back to back as
little-endian float64, ``9 · n · 8`` bytes.  A warm read views them
with one ``np.frombuffer(...).reshape(9, n)`` — exact round-trip, no
decoding of any number.

Keys
----
``(code fingerprint of the solver modules, store schema version,
engine settings, the points' full parameter tuples)`` — see
:mod:`repro.store.fingerprint`.  Sweep groups hash the base scenario's
tuple plus the swept field and the raw value block (``tobytes()``), so
key computation for a dense sweep costs microseconds per group instead
of a JSON encode per point.  A sweep of a key field stays one
:class:`~repro.core.scenario.ScenarioSweep` through keys, engine and
merge, so no sweep constructs its variant scenarios.

Identity contract
-----------------
A fully-warm run returns bit-identical results to the cold run that
populated the store (pinned by golden tests and the ``cache-smoke`` CI
job).  Partially-warm runs re-solve only the missing points; the Eq. 2
kernel is row-local, so those come out bit-identical to an all-cold
run too, whatever batch they are solved in.  The engine's
``chunk_size`` is scheduling only and is in no key.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .fingerprint import SOLVER_CODE_MODULES, config_key
from .store import Entry, ResultStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.optimizer import OptimalDecision
    from ..core.scenario import Scenario
    from ..engine.batch import BatchResult, BatchSolverEngine
    from ..obs import ObsContext

__all__ = [
    "StoreReport",
    "record_store_metrics",
    "solve_batch_incremental",
    "solve_incremental",
    "sweep_incremental",
]

#: Batches up to this size use one store entry per point (maximum
#: reuse); larger batches use one entry per ``_GROUP_SIZE`` points
#: (fast warm reads for dense sweeps).
_POINT_GROUP_LIMIT = 256
_GROUP_SIZE = 2048


@lru_cache(maxsize=None)
def _columns() -> Tuple[str, ...]:
    """:class:`BatchResult`'s column names, in field order.

    Resolved on first use, so importing this module does not load the
    engine.
    """
    from ..engine.batch import BatchResult

    return tuple(f.name for f in fields(BatchResult) if f.name != "tolerance_m")


@dataclass(frozen=True)
class StoreReport:
    """How one request split across the store and the engine."""

    enabled: bool
    points: int = 0
    warm_points: int = 0
    entry_hits: int = 0
    entry_misses: int = 0

    @property
    def cold_points(self) -> int:
        """Points that had to be dispatched to the engine."""
        return self.points - self.warm_points


def _maybe_span(obs: Optional["ObsContext"], name: str, **attrs):
    if obs is not None and obs.tracer is not None:
        return obs.tracer.span(name, **attrs)
    return nullcontext()


def record_store_metrics(
    obs: Optional["ObsContext"],
    store: ResultStore,
    before: Dict[str, int],
    report: Optional[StoreReport] = None,
) -> None:
    """Fold the store-counter deltas since ``before`` into ``obs``.

    Emits ``store.hits`` / ``store.misses`` / ``store.evictions`` /
    ``store.corrupt`` / ``store.errors`` / ``store.bytes_read`` /
    ``store.bytes_written`` counters, plus point-level provenance
    (``store.points.warm`` / ``store.points.cold``) when a
    :class:`StoreReport` is given — this is what lands in the run's
    :class:`~repro.obs.RunManifest` metrics section.
    """
    if obs is None or obs.metrics is None:
        return
    after = store.snapshot_counters()
    for name, value in sorted(after.items()):
        delta = value - before.get(name, 0)
        if delta:
            obs.metrics.counter(f"store.{name}").inc(delta)
    if report is not None and report.enabled:
        if report.warm_points:
            obs.metrics.counter("store.points.warm").inc(report.warm_points)
        if report.cold_points:
            obs.metrics.counter("store.points.cold").inc(report.cold_points)


# ----------------------------------------------------------------------
# Entry codec
# ----------------------------------------------------------------------

#: One decoded group: its columns (views of the entry's tail) and tolerance.
Group = Tuple[Dict[str, np.ndarray], float]


def _group_entry(
    result: "BatchResult", start: int, stop: int
) -> Tuple[dict, bytes]:
    """``(body, tail)`` of the entry for rows ``[start, stop)``."""
    names = _columns()
    body = {
        "n": stop - start,
        "tolerance_m": float(result.tolerance_m),
        "columns": list(names),
    }
    tail = np.stack(
        [getattr(result, name)[start:stop] for name in names], dtype="<f8"
    ).tobytes()
    return body, tail


def _decode_group(entry: Optional[Entry]) -> Optional[Group]:
    """Columns + tolerance of one entry, or ``None`` if missing or malformed.

    Refuses any column list but :func:`_columns`' and any tail that is
    not exactly ``9 · n`` float64 values.
    """
    if entry is None:
        return None
    body, tail = entry
    names = _columns()
    try:
        n = body["n"]
        tolerance = float(body["tolerance_m"])
        ok = (
            type(n) is int
            and body["columns"] == list(names)
            and len(tail) == len(names) * n * 8
        )
    except (KeyError, TypeError, ValueError):
        return None
    if not ok:
        return None
    rows = np.frombuffer(tail, dtype="<f8").reshape(len(names), n)
    return dict(zip(names, rows)), tolerance


# ----------------------------------------------------------------------
# Key builders
# ----------------------------------------------------------------------

def _engine_settings(engine: "BatchSolverEngine") -> List[float]:
    return [engine.grid_step_m, engine.refine_tolerance_m]


def _group_key(
    engine: "BatchSolverEngine", point_keys: List[tuple]
) -> str:
    return config_key(
        "eq2.group",
        {"engine": _engine_settings(engine), "points": point_keys},
        SOLVER_CODE_MODULES,
    )


def _sweep_group_key(
    engine: "BatchSolverEngine",
    base_key: tuple,
    field: str,
    values: np.ndarray,
) -> str:
    return config_key(
        "eq2.sweep",
        {
            "engine": _engine_settings(engine),
            "base": base_key,
            "field": field,
            "n": int(values.shape[0]),
        },
        SOLVER_CODE_MODULES,
        extra_bytes=np.ascontiguousarray(values, dtype="<f8").tobytes(),
    )


# ----------------------------------------------------------------------
# Merging machinery shared by the batch and sweep paths
# ----------------------------------------------------------------------

def _assemble(
    n: int,
    groups: List[Tuple[int, int]],
    decoded: List[Optional[Group]],
    solved: Optional["BatchResult"],
    missing: List[int],
) -> "BatchResult":
    """Merge cached groups and freshly solved groups in request order."""
    from ..engine.batch import BatchResult

    names = _columns()
    columns = {name: np.empty(n, dtype=float) for name in names}
    tolerance = 1e-6
    cursor = 0
    for gi, (start, stop) in enumerate(groups):
        if decoded[gi] is not None:
            cached_columns, cached_tol = decoded[gi]
            for name in names:
                columns[name][start:stop] = cached_columns[name]
            tolerance = max(tolerance, cached_tol)
    if solved is not None:
        tolerance = max(tolerance, solved.tolerance_m)
        for gi in missing:
            start, stop = groups[gi]
            width = stop - start
            for name in names:
                columns[name][start:stop] = getattr(solved, name)[
                    cursor:cursor + width
                ]
            cursor += width
    return BatchResult(tolerance_m=tolerance, **columns)


def _fetch_groups(
    store: ResultStore,
    keys: List[str],
    refresh: bool,
    obs: Optional["ObsContext"],
) -> List[Optional[Group]]:
    """Decode every cached group (None = miss), batching LRU touches."""
    decoded: List[Optional[Group]] = []
    touched: List[str] = []
    with _maybe_span(obs, "store.get", groups=len(keys)):
        for key in keys:
            if refresh:
                decoded.append(None)
                continue
            entry = _decode_group(store.get(key, touch=False))
            decoded.append(entry)
            if entry is not None:
                touched.append(key)
        if touched:
            store.touch_many(touched)
    return decoded


def _store_groups(
    store: ResultStore,
    keys: List[str],
    groups: List[Tuple[int, int]],
    missing: List[int],
    solved: "BatchResult",
    obs: Optional["ObsContext"],
) -> None:
    """Persist freshly solved groups (sliced out of ``solved``)."""
    with _maybe_span(obs, "store.put", groups=len(missing)):
        items, tails = {}, {}
        cursor = 0
        for gi in missing:
            start, stop = groups[gi]
            width = stop - start
            items[keys[gi]], tails[keys[gi]] = _group_entry(
                solved, cursor, cursor + width
            )
            cursor += width
        store.put_many(items, tails)


def _run_groups(
    engine: "BatchSolverEngine",
    store: ResultStore,
    keys: List[str],
    groups: List[Tuple[int, int]],
    n: int,
    missing_scenarios_for: "callable",
    parallel: Optional[bool],
    obs: Optional["ObsContext"],
    refresh: bool,
) -> Tuple["BatchResult", StoreReport]:
    """The shared fetch → dispatch-missing → merge → persist pipeline.

    ``missing_scenarios_for(missing_group_indices)`` returns the
    scenarios of just the missing groups (for a sweep, the
    :class:`~repro.core.scenario.ScenarioSweep` of their values), so a
    fully-warm run never builds them at all.
    """
    before = store.snapshot_counters()
    decoded = _fetch_groups(store, keys, refresh, obs)
    missing = [gi for gi, entry in enumerate(decoded) if entry is None]
    warm_points = sum(
        groups[gi][1] - groups[gi][0]
        for gi in range(len(groups))
        if decoded[gi] is not None
    )
    solved: Optional["BatchResult"] = None
    if missing:
        to_solve = missing_scenarios_for(missing)
        solved = engine.solve_batch(to_solve, parallel=parallel, obs=obs)
        _store_groups(store, keys, groups, missing, solved, obs)
    result = _assemble(n, groups, decoded, solved, missing)
    report = StoreReport(
        enabled=True,
        points=n,
        warm_points=warm_points,
        entry_hits=len(groups) - len(missing),
        entry_misses=len(missing),
    )
    record_store_metrics(obs, store, before, report)
    return result, report


def _group_bounds(n: int, group_size: int) -> List[Tuple[int, int]]:
    return [
        (start, min(start + group_size, n))
        for start in range(0, n, group_size)
    ]


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------

def solve_incremental(
    engine: "BatchSolverEngine",
    scenario: "Scenario",
    store: ResultStore,
    obs: Optional["ObsContext"] = None,
    refresh: bool = False,
) -> Tuple["OptimalDecision", StoreReport]:
    """One Eq. 2 solve backed by the persistent store.

    The entry is the same group-of-one record ``solve_batch`` uses for
    small batches, so single solves and fleet solves share warm
    results.
    """
    from ..core.optimizer import OptimalDecision

    with _maybe_span(obs, "store.key", points=1):
        point = engine.point_key(scenario)
    if point is None:
        return engine.solve(scenario, obs=obs), StoreReport(enabled=False)
    before = store.snapshot_counters()
    key = _group_key(engine, [point])
    entry = None if refresh else _decode_group(store.get(key))
    if entry is not None:
        columns, tolerance = entry
        decision = OptimalDecision(
            tolerance_m=tolerance,
            **{name: float(columns[name][0]) for name in _columns()},
        )
        report = StoreReport(
            enabled=True, points=1, warm_points=1, entry_hits=1
        )
        record_store_metrics(obs, store, before, report)
        return decision, report
    decision = engine.solve(scenario, obs=obs)
    from ..engine.batch import BatchResult

    store.put(key, *_group_entry(BatchResult.from_decisions([decision]), 0, 1))
    report = StoreReport(enabled=True, points=1, entry_misses=1)
    record_store_metrics(obs, store, before, report)
    return decision, report


def solve_batch_incremental(
    engine: "BatchSolverEngine",
    scenarios: Iterable["Scenario"],
    store: ResultStore,
    parallel: Optional[bool] = None,
    obs: Optional["ObsContext"] = None,
    refresh: bool = False,
) -> Tuple["BatchResult", StoreReport]:
    """``engine.solve_batch`` with cached groups served from the store."""
    scenario_list = list(scenarios)
    n = len(scenario_list)
    with _maybe_span(obs, "store.key", points=n):
        points = [engine.point_key(s) for s in scenario_list]
    if n == 0 or any(point is None for point in points):
        result = engine.solve_batch(scenario_list, parallel=parallel, obs=obs)
        return result, StoreReport(enabled=False, points=n)
    group_size = 1 if n <= _POINT_GROUP_LIMIT else _GROUP_SIZE
    groups = _group_bounds(n, group_size)
    keys = [
        _group_key(engine, points[start:stop]) for start, stop in groups
    ]

    def missing_scenarios_for(missing: List[int]) -> List["Scenario"]:
        return [
            s
            for gi in missing
            for s in scenario_list[groups[gi][0]:groups[gi][1]]
        ]

    return _run_groups(
        engine, store, keys, groups, n,
        missing_scenarios_for, parallel, obs, refresh,
    )


def sweep_incremental(
    engine: "BatchSolverEngine",
    scenario: "Scenario",
    param: str,
    values: Iterable[float],
    store: ResultStore,
    obs: Optional["ObsContext"] = None,
    refresh: bool = False,
) -> Tuple["BatchResult", StoreReport]:
    """``engine.sweep`` with cached value-blocks served from the store.

    Group keys hash the base scenario's parameter tuple plus the swept
    field and the raw float64 block of values, so a fully-warm sweep
    costs a few hashes and file reads — no variant construction, no
    solver work.  ``param`` accepts the same spellings as
    :meth:`Scenario.with_`; the alias is canonicalised (including the
    ``mdata_mb`` MB→bits conversion) so equivalent sweeps share
    entries.  Sweeps that :func:`~repro.core.scenario.sweep_rows`
    cannot hold as a column (``name``, ``throughput``, non-numeric
    values) take the per-point :func:`solve_batch_incremental` path.
    """
    from ..core.scenario import ScenarioSweep, sweep_rows

    rows = sweep_rows(scenario, param, values)
    if not isinstance(rows, ScenarioSweep):
        return solve_batch_incremental(
            engine, rows, store, obs=obs, refresh=refresh
        )
    n = len(rows)
    with _maybe_span(obs, "store.key", points=n):
        base_key = engine.point_key(scenario)
        if base_key is None:
            result = engine.solve_batch(rows, obs=obs)
            return result, StoreReport(enabled=False, points=n)
        group_size = 1 if n <= _POINT_GROUP_LIMIT else _GROUP_SIZE
        groups = _group_bounds(n, group_size)
        keys = [
            _sweep_group_key(
                engine, base_key, rows.field, rows.values[start:stop]
            )
            for start, stop in groups
        ]

    def missing_scenarios_for(missing: List[int]) -> ScenarioSweep:
        return rows.take(
            np.concatenate([np.arange(*groups[gi]) for gi in missing])
        )

    return _run_groups(
        engine, store, keys, groups, n,
        missing_scenarios_for, None, obs, refresh,
    )

"""Vectorised fleet-scale solver for Eq. 2 (``dopt = argmax U(d)``).

The fleet-scale workloads the related work frames (thousands of
``(Mdata, v, rho, d0)`` instances per request stream) are solved N
scenarios per NumPy pass, through the one Eq. 2 kernel
:func:`~repro.core.optimizer.argmax_utility`:

1. **Stacked grid scan** — scenarios become parameter arrays; the
   utility ``U(d) = exp(-rho (d0 - d)) / ((d0 - d)/v + Mdata/s(d))``
   is evaluated on an ``N x G`` matrix of distances, each row on its
   own span-sized grid, bracketing each instance's argmax.
2. **Vectorised ternary search** — every bracket is shrunk
   simultaneously by comparing interior utility probes.
3. **Non-concave rows** — instances whose refinement loses to their
   grid candidate (the edge cases the paper warns about) get one
   vectorised rescan of their bracket on a finer sub-grid; there is no
   scalar fallback.
4. **Memoisation** — solved instances are cached by their full
   parameter tuple in an LRU, so planners re-solving the same geometry
   and repeated sweeps cost one hash lookup.
5. **Chunked fan-out** — very large batches are split into chunks
   solved on the persistent :mod:`repro.exec` thread pool (NumPy
   releases the GIL for the heavy array ops).  Every kernel step is
   row-local, so ``chunk_size`` is scheduling only: ``solve_batch(xs)[i]``
   is bit-identical to ``solve(xs[i])`` under any chunking and order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.optimizer import OptimalDecision, argmax_utility
from ..core.throughput import (
    LogFitThroughput,
    MIN_THROUGHPUT_BPS,
    throughput_bps_array,
)
from .cache import CacheInfo, LruCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.scenario import Scenario
    from ..obs import ObsContext

__all__ = ["BatchResult", "BatchSolverEngine", "default_engine"]

#: Fixed bucket edges for the batch-size histogram; registration-time
#: constants so shard merges stay deterministic (see repro.obs.metrics).
_BATCH_SIZE_EDGES = (1.0, 8.0, 64.0, 512.0, 4096.0)


@dataclass(frozen=True)
class BatchResult:
    """NumPy-backed container of N solved Eq. 2 instances.

    Columns are parallel arrays; iterating (or indexing) materialises
    :class:`OptimalDecision` objects on demand, so scalar call sites
    can consume batch output unchanged.
    """

    distance_m: np.ndarray
    utility: np.ndarray
    cdelay_s: np.ndarray
    shipping_s: np.ndarray
    transmission_s: np.ndarray
    discount: np.ndarray
    contact_distance_m: np.ndarray
    speed_mps: np.ndarray
    data_bits: np.ndarray
    tolerance_m: float

    @classmethod
    def from_decisions(cls, decisions: Sequence[OptimalDecision]) -> "BatchResult":
        """Stack scalar decisions into one batch container."""
        tol = max((d.tolerance_m for d in decisions), default=1e-6)
        return cls(
            distance_m=np.array([d.distance_m for d in decisions]),
            utility=np.array([d.utility for d in decisions]),
            cdelay_s=np.array([d.cdelay_s for d in decisions]),
            shipping_s=np.array([d.shipping_s for d in decisions]),
            transmission_s=np.array([d.transmission_s for d in decisions]),
            discount=np.array([d.discount for d in decisions]),
            contact_distance_m=np.array(
                [d.contact_distance_m for d in decisions]
            ),
            speed_mps=np.array([d.speed_mps for d in decisions]),
            data_bits=np.array([d.data_bits for d in decisions]),
            tolerance_m=tol,
        )

    def __len__(self) -> int:
        return int(self.distance_m.shape[0])

    def __getitem__(self, index: int) -> OptimalDecision:
        return OptimalDecision(
            distance_m=float(self.distance_m[index]),
            utility=float(self.utility[index]),
            cdelay_s=float(self.cdelay_s[index]),
            shipping_s=float(self.shipping_s[index]),
            transmission_s=float(self.transmission_s[index]),
            discount=float(self.discount[index]),
            contact_distance_m=float(self.contact_distance_m[index]),
            speed_mps=float(self.speed_mps[index]),
            data_bits=float(self.data_bits[index]),
            tolerance_m=self.tolerance_m,
        )

    def __iter__(self) -> Iterator[OptimalDecision]:
        for index in range(len(self)):
            yield self[index]

    def decisions(self) -> List[OptimalDecision]:
        """Every row as an :class:`OptimalDecision`."""
        return list(self)

    def to_dicts(self) -> List[dict]:
        """JSON-ready mapping per row (CLI ``--json`` output)."""
        return [decision.to_dict() for decision in self]


class _Params:
    """Stacked parameter arrays for one chunk of scenarios."""

    def __init__(self, scenarios: Sequence["Scenario"]) -> None:
        self.scenarios = scenarios
        self.models = [s.throughput for s in scenarios]
        self.dmin = np.array([s.min_distance_m for s in scenarios])
        self.d0 = np.array([s.contact_distance_m for s in scenarios])
        self.v = np.array([s.cruise_speed_mps for s in scenarios])
        self.bits = np.array([s.data_bits for s in scenarios])
        self.rho = np.array([s.failure_rate_per_m for s in scenarios])
        # Scenarios on the paper's log-fit law vectorise fully; anything
        # else falls back to a row-wise (still array-valued) evaluation.
        logfit = np.array(
            [type(m) is LogFitThroughput for m in self.models], dtype=bool
        )
        self.logfit_mask = logfit
        self.slope = np.array(
            [getattr(m, "slope_mbps_per_octave", 0.0) for m in self.models]
        )
        self.intercept = np.array(
            [getattr(m, "intercept_mbps", 0.0) for m in self.models]
        )
        self.other_rows = np.nonzero(~logfit)[0]

    def __len__(self) -> int:
        return len(self.scenarios)

    # ------------------------------------------------------------------
    def throughput(self, d: np.ndarray) -> np.ndarray:
        """``s(d)`` for row-aligned distances ``d`` of shape (N,) or (N, G)."""
        s = np.empty_like(d)
        if self.logfit_mask.any():
            slope = self.slope[self.logfit_mask]
            intercept = self.intercept[self.logfit_mask]
            if d.ndim == 2:
                slope = slope[:, None]
                intercept = intercept[:, None]
            mbps = slope * np.log2(d[self.logfit_mask]) + intercept
            s[self.logfit_mask] = np.maximum(MIN_THROUGHPUT_BPS, mbps * 1e6)
        for i in self.other_rows:
            s[i] = throughput_bps_array(self.models[i], d[i])
        return s

    def utility(self, d: np.ndarray) -> np.ndarray:
        """``U(d)`` (Eq. 1) for row-aligned distances, vectorised."""
        if d.ndim == 2:
            d0, v, bits, rho = (
                self.d0[:, None], self.v[:, None],
                self.bits[:, None], self.rho[:, None],
            )
        else:
            d0, v, bits, rho = self.d0, self.v, self.bits, self.rho
        gap = np.maximum(0.0, d0 - d)
        cdelay = gap / v + bits / self.throughput(d)
        return np.exp(-rho * gap) / cdelay

    def breakdown(self, d: np.ndarray) -> Tuple[np.ndarray, ...]:
        """(utility, cdelay, shipping, transmission, discount) at ``d``."""
        gap = np.maximum(0.0, self.d0 - d)
        shipping = gap / self.v
        transmission = self.bits / self.throughput(d)
        cdelay = shipping + transmission
        discount = np.exp(-self.rho * gap)
        return discount / cdelay, cdelay, shipping, transmission, discount


class BatchSolverEngine:
    """Vectorised, memoised, optionally parallel solver of Eq. 2 fleets."""

    def __init__(
        self,
        grid_step_m: float = 1.0,
        refine_tolerance_m: float = 1e-4,
        cache_size: int = 4096,
        chunk_size: int = 2048,
        max_workers: Optional[int] = None,
    ) -> None:
        if grid_step_m <= 0:
            raise ValueError("grid_step_m must be positive")
        if refine_tolerance_m <= 0:
            raise ValueError("refine_tolerance_m must be positive")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.grid_step_m = grid_step_m
        self.refine_tolerance_m = refine_tolerance_m
        self.chunk_size = chunk_size
        self.max_workers = max_workers
        self._cache = LruCache(cache_size)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def solve(
        self,
        scenario: "Scenario",
        obs: Optional["ObsContext"] = None,
    ) -> OptimalDecision:
        """Solve one scenario (memoised; same answer as the batch path).

        ``obs`` records an ``engine.solve`` span, cache hit/miss
        counters and a ``decision.eq2`` event; ``None`` (the default)
        leaves the solve path untouched.
        """
        if obs is None:
            decision, _ = self._solve_one(scenario)
            return decision
        span = None
        if obs.tracer is not None:
            span = obs.tracer.span("engine.solve")
            span.__enter__()
        try:
            decision, hit = self._solve_one(scenario)
        finally:
            if span is not None:
                span.__exit__(None, None, None)
        if obs.metrics is not None:
            name = "engine.cache.hits" if hit else "engine.cache.misses"
            obs.metrics.counter(name).inc()
        if obs.events is not None:
            obs.events.emit(
                "decision.eq2",
                0.0,
                distance_m=decision.distance_m,
                utility=decision.utility,
                defer=decision.distance_m < decision.contact_distance_m,
            )
        return decision

    def _solve_one(
        self, scenario: "Scenario"
    ) -> Tuple[OptimalDecision, bool]:
        """One memoised solve; returns ``(decision, was_cache_hit)``."""
        key = self._key(scenario)
        if key is not None:
            cached = self._cache.get(key)
            if cached is not None:
                return cached, True
        decision = self._solve_chunk([scenario])[0]
        if key is not None:
            self._cache.put(key, decision)
        return decision, False

    def solve_batch(
        self,
        scenarios: Iterable["Scenario"],
        parallel: Optional[bool] = None,
        obs: Optional["ObsContext"] = None,
    ) -> BatchResult:
        """Solve N scenarios in vectorised passes.

        ``parallel=None`` auto-enables the thread-pool fan-out once the
        batch spans several chunks; ``True``/``False`` force it.
        ``obs`` records an ``engine.solve_batch`` span plus cache and
        batch-size metrics; ``None`` leaves the hot path untouched.
        """
        scenario_list = list(scenarios)
        if obs is not None and obs.tracer is not None:
            with obs.tracer.span(
                "engine.solve_batch", n=len(scenario_list)
            ):
                return self._solve_batch(scenario_list, parallel, obs)
        return self._solve_batch(scenario_list, parallel, obs)

    def _solve_batch(
        self,
        scenario_list: List["Scenario"],
        parallel: Optional[bool],
        obs: Optional["ObsContext"],
    ) -> BatchResult:
        results: List[Optional[OptimalDecision]] = [None] * len(scenario_list)
        keys = [self._key(s) for s in scenario_list]
        miss_idx = []
        for i, key in enumerate(keys):
            cached = self._cache.get(key) if key is not None else None
            if cached is not None:
                results[i] = cached
            else:
                miss_idx.append(i)

        if miss_idx:
            misses = [scenario_list[i] for i in miss_idx]
            chunks = [
                misses[start:start + self.chunk_size]
                for start in range(0, len(misses), self.chunk_size)
            ]
            if parallel is None:
                # Threads only pay off with real cores to run NumPy's
                # GIL-released array ops on; on one CPU they just add
                # contention around the vectorised chunks.
                parallel = len(chunks) > 1 and (os.cpu_count() or 1) > 1
            if parallel and len(chunks) > 1:
                from ..exec import default_backend

                solved_chunks = default_backend().thread_map(
                    self._solve_chunk, chunks, max_workers=self.max_workers
                )
            else:
                solved_chunks = [self._solve_chunk(chunk) for chunk in chunks]
            solved = [d for chunk in solved_chunks for d in chunk]
            for i, decision in zip(miss_idx, solved):
                results[i] = decision
                if keys[i] is not None:
                    self._cache.put(keys[i], decision)

        if obs is not None and obs.metrics is not None:
            metrics = obs.metrics
            hits = len(scenario_list) - len(miss_idx)
            if hits:
                metrics.counter("engine.cache.hits").inc(hits)
            if miss_idx:
                metrics.counter("engine.cache.misses").inc(len(miss_idx))
            metrics.counter("engine.batches").inc()
            metrics.histogram(
                "engine.batch.size", _BATCH_SIZE_EDGES
            ).observe(len(scenario_list))
        return BatchResult.from_decisions(results)  # type: ignore[arg-type]

    def breakdown_at(
        self,
        scenarios: Sequence["Scenario"],
        distances_m: Sequence[float],
    ) -> Tuple[np.ndarray, ...]:
        """Eq. 1 breakdown at fixed distances, no optimisation.

        Row ``i`` evaluates ``scenarios[i]`` at ``distances_m[i]``;
        returns ``(utility, cdelay, shipping, transmission, discount)``
        arrays.  Every operation is elementwise, so the same
        (scenario, distance) pair produces bit-identical numbers
        whether evaluated alone or inside a fleet — the guarantee the
        relay solvers' candidate evaluation builds on.
        """
        scenario_list = list(scenarios)
        d = np.asarray(distances_m, dtype=float)
        if d.ndim != 1 or d.shape[0] != len(scenario_list):
            raise ValueError(
                "distances_m must be 1-D and row-aligned with scenarios"
            )
        return _Params(scenario_list).breakdown(d)

    def sweep(
        self,
        scenario: "Scenario",
        param: str,
        values: Iterable[float],
        obs: Optional["ObsContext"] = None,
    ) -> BatchResult:
        """Solve ``scenario`` with ``param`` swept over ``values``.

        ``param`` is any override :meth:`Scenario.with_` accepts
        (``mdata_mb``, ``speed_mps``, ``rho_per_m``, ``d0_m``, or a raw
        dataclass field name).
        """
        variants = [scenario.with_(**{param: value}) for value in values]
        return self.solve_batch(variants, obs=obs)

    def utility_curves(
        self, scenarios: Sequence["Scenario"], n_points: int = 200
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(distances, U)`` as N x G matrices (vectorised Fig. 8 curves)."""
        if n_points < 2:
            raise ValueError("n_points must be >= 2")
        params = _Params(list(scenarios))
        t = np.linspace(0.0, 1.0, n_points)
        distances = params.dmin[:, None] + t[None, :] * (
            params.d0 - params.dmin
        )[:, None]
        return distances, params.utility(distances)

    def cache_info(self) -> CacheInfo:
        """Memoisation statistics."""
        return self._cache.info()

    def cache_clear(self) -> None:
        """Drop all memoised decisions."""
        self._cache.clear()

    def point_key(self, scenario: "Scenario") -> Optional[tuple]:
        """The scenario's full parameter tuple under this engine's
        settings, or ``None`` when the throughput law is uncacheable.

        This is the identity the persistent result store hashes
        (:mod:`repro.store.fingerprint`); it is exactly the in-memory
        memoisation key, exposed as API.
        """
        return self._key(scenario)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _key(self, scenario: "Scenario") -> Optional[tuple]:
        """Memoisation key, or ``None`` for uncacheable throughput laws."""
        key_fn = getattr(scenario, "cache_key", None)
        base = key_fn() if key_fn is not None else None
        if base is None:
            return None
        return (base, self.grid_step_m, self.refine_tolerance_m)

    def _solve_chunk(
        self, scenarios: Sequence["Scenario"]
    ) -> List[OptimalDecision]:
        """The Eq. 2 kernel over one chunk of scenarios."""
        for s in scenarios:
            if s.cruise_speed_mps <= 0:
                raise ValueError("speed must be positive (Eq. 2 constraint)")
            if s.data_bits <= 0:
                raise ValueError("data size must be positive (Eq. 2 constraint)")
            if s.contact_distance_m < s.min_distance_m:
                raise ValueError(
                    f"contact distance {s.contact_distance_m} below the "
                    f"floor {s.min_distance_m}"
                )
        params = _Params(scenarios)
        best = argmax_utility(
            params.dmin,
            params.d0,
            params.utility,
            self.grid_step_m,
            self.refine_tolerance_m,
        )
        utility, cdelay, shipping, transmission, discount = params.breakdown(best)
        tolerance = max(self.refine_tolerance_m, 1e-6)
        return [
            OptimalDecision(
                distance_m=float(best[i]),
                utility=float(utility[i]),
                cdelay_s=float(cdelay[i]),
                shipping_s=float(shipping[i]),
                transmission_s=float(transmission[i]),
                discount=float(discount[i]),
                contact_distance_m=float(params.d0[i]),
                speed_mps=float(params.v[i]),
                data_bits=float(params.bits[i]),
                tolerance_m=tolerance,
            )
            for i in range(len(params))
        ]


_DEFAULT_ENGINE: Optional[BatchSolverEngine] = None


def default_engine() -> BatchSolverEngine:
    """The process-wide shared engine (lazily created).

    ``Scenario.solve()``, the planners, and the figure regenerators all
    share this instance so their memoised decisions compound.
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = BatchSolverEngine()
    return _DEFAULT_ENGINE

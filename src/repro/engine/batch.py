"""Vectorised fleet-scale solver for Eq. 2 (``dopt = argmax U(d)``).

The fleet-scale workloads the related work frames (thousands of
``(Mdata, v, rho, d0)`` instances per request stream) are solved N
scenarios per NumPy pass.  Scenarios become parameter arrays, and the
utility ``U(d) = exp(-rho (d0 - d)) / ((d0 - d)/v + Mdata/s(d))`` is
evaluated on row-aligned distance arrays:

1. **Exact log-law rows** — rows on a falling log-law fit (both of the
   paper's) go to :func:`~repro.core.optimizer.certified_argmax`: a
   per-row branch-and-bound over distance cells, vectorised over
   (row, cell) pairs, proves where ``d log U/dd`` can change sign, and
   a safeguarded Newton solve finds each interior maximum.
2. **Grid kernel** — every other row (table, speed-scaled and rising
   log-law laws) and every row the certificate cannot settle goes to
   :func:`~repro.core.optimizer.argmax_utility`: a stacked grid scan on
   each row's own span-sized grid brackets the argmax, and a
   vectorised ternary search shrinks every bracket at once.
3. **Non-concave rows** — grid rows whose refinement loses to their
   grid candidate (the edge cases the paper warns about) get one
   vectorised rescan of their bracket on a finer sub-grid; there is no
   scalar fallback.  Both kernels share one boundary-snap rule.
4. **Serial chunked passes** — a batch is solved in ``chunk_size``
   slices, one after another, each written into one ``(9, n)`` result
   block whose rows become the :class:`BatchResult` columns.  A batch
   neither builds memo keys nor reads or writes the memo, and fans out
   to no threads: since the exact kernel, keying, memo writes and the
   thread hand-off cost more than the kernel itself (docs/PERFORMANCE.md,
   "Serial batch passes").  Every kernel step is row-local, so
   ``chunk_size`` is scheduling only: ``solve_batch(xs)[i]`` is
   bit-identical to ``solve(xs[i])`` under any chunking and order.
5. **Scalar memo** — :meth:`BatchSolverEngine.solve` caches solved
   instances by their full parameter tuple in an LRU of plain 9-float
   row tuples, so planners re-solving the same geometry one scenario
   at a time cost one hash lookup.
6. **Columnar sweeps** — a one-parameter sweep arrives as one
   :class:`~repro.core.scenario.ScenarioSweep` (a base scenario plus a
   float64 column), not a list of scenarios.  Its parameter columns
   are the base's values broadcast around the swept column, and its
   chunks are slices of that column; a row is built as a
   :class:`~repro.core.scenario.Scenario` only to raise a validation
   error.  Columns and results equal those of the per-value ``with_``
   list.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields
from typing import (
    TYPE_CHECKING,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.optimizer import OptimalDecision, argmax_utility, certified_argmax
from ..core.scenario import ScenarioSweep, require_finite, sweep_rows
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


#: Result columns per row: every :class:`BatchResult` field but
#: ``tolerance_m``, in field order.  A solved chunk's block rows and a
#: memoised row tuple follow this order.
_N_COLUMNS = len(fields(BatchResult)) - 1


class _Params:
    """Stacked parameter arrays for one chunk of scenarios."""

    def __init__(
        self, scenarios: "Union[Sequence[Scenario], ScenarioSweep]"
    ) -> None:
        self.scenarios = scenarios
        if isinstance(scenarios, ScenarioSweep):
            # One model and four broadcast base values around the
            # swept column.
            model = scenarios.base.throughput
            n = len(scenarios)
            self.models = [model] * n
            self.dmin = scenarios.column("min_distance_m")
            self.d0 = scenarios.column("contact_distance_m")
            self.v = scenarios.column("cruise_speed_mps")
            self.bits = scenarios.column("data_bits_override")
            self.rho = scenarios.column("failure_rate_per_m")
            logfit = np.full(n, type(model) is LogFitThroughput)
            self.slope = np.full(
                n, getattr(model, "slope_mbps_per_octave", 0.0)
            )
            self.intercept = np.full(
                n, getattr(model, "intercept_mbps", 0.0)
            )
        else:
            self.models = [s.throughput for s in scenarios]
            self.dmin = np.array([s.min_distance_m for s in scenarios])
            self.d0 = np.array([s.contact_distance_m for s in scenarios])
            self.v = np.array([s.cruise_speed_mps for s in scenarios])
            self.bits = np.array([s.data_bits for s in scenarios])
            self.rho = np.array([s.failure_rate_per_m for s in scenarios])
            logfit = np.array(
                [type(m) is LogFitThroughput for m in self.models], dtype=bool
            )
            self.slope = np.array(
                [getattr(m, "slope_mbps_per_octave", 0.0) for m in self.models]
            )
            self.intercept = np.array(
                [getattr(m, "intercept_mbps", 0.0) for m in self.models]
            )
        # Scenarios on the paper's log-fit law vectorise fully; anything
        # else falls back to a row-wise (still array-valued) evaluation.
        self.logfit_mask = logfit
        self.other_rows = np.nonzero(~logfit)[0]

    def __len__(self) -> int:
        return len(self.dmin)

    def take(self, rows: np.ndarray) -> "_Params":
        """The rows ``rows`` (indices) as their own parameter block."""
        sub = copy.copy(self)
        sub.models = [self.models[i] for i in rows.tolist()]
        for name in (
            "dmin", "d0", "v", "bits", "rho", "slope", "intercept", "logfit_mask"
        ):
            setattr(sub, name, getattr(self, name)[rows])
        sub.other_rows = np.nonzero(~sub.logfit_mask)[0]
        return sub

    def validate(self) -> None:
        """Raise the Eq. 2 constraint error of the first offending row."""
        bad = (
            (self.v <= 0)
            | (self.bits <= 0)
            | (self.d0 < self.dmin)
            | ~np.isfinite((self.dmin, self.d0, self.v, self.bits, self.rho)).all(
                axis=0
            )
        )
        if bad.any():
            _check_scenario(self.scenarios[int(np.argmax(bad))])

    # ------------------------------------------------------------------
    def throughput(self, d: np.ndarray) -> np.ndarray:
        """``s(d)`` for row-aligned distances ``d`` of shape (N,) or (N, G)."""
        logfit, slope, intercept = self.logfit_mask, self.slope, self.intercept
        if d.ndim == 2:
            logfit = logfit[:, None]
            slope = slope[:, None]
            intercept = intercept[:, None]
        # The log-fit law over the whole block, in place.  Other rows
        # skip the log (their ``d`` may be any value), have slope and
        # intercept 0, and are overwritten row by row below.
        s = np.zeros_like(d)
        np.log2(d, out=s, where=logfit)
        s *= slope
        s += intercept
        s *= 1e6
        np.maximum(MIN_THROUGHPUT_BPS, s, out=s)
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
        # Eq. 1 term by term into three temporaries; in-place ufuncs
        # round exactly as the out-of-place expression would.
        gap = np.subtract(d0, d)
        np.maximum(0.0, gap, out=gap)
        cdelay = gap / v
        transmission = self.throughput(d)
        cdelay += np.divide(bits, transmission, out=transmission)
        u = np.multiply(-rho, gap, out=gap)
        np.exp(u, out=u)
        u /= cdelay
        return u

    def breakdown(self, d: np.ndarray) -> Tuple[np.ndarray, ...]:
        """(utility, cdelay, shipping, transmission, discount) at ``d``."""
        gap = np.maximum(0.0, self.d0 - d)
        shipping = gap / self.v
        transmission = self.bits / self.throughput(d)
        cdelay = shipping + transmission
        discount = np.exp(-self.rho * gap)
        return discount / cdelay, cdelay, shipping, transmission, discount


class BatchSolverEngine:
    """Vectorised solver of Eq. 2 fleets, with a memo for scalar solves.

    ``max_workers`` is accepted and validated for callers that still
    pass it, and has no effect: batches run serially (module docstring,
    point 4).
    """

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
        row = self._cache.get(key) if key is not None else None
        hit = row is not None
        if not hit:
            row = tuple(self._solve_chunk([scenario])[0][:, 0].tolist())
            if key is not None:
                self._cache.put(key, row)
        return OptimalDecision(*row, tolerance_m=self._tolerance_m()), hit

    def solve_batch(
        self,
        scenarios: Iterable["Scenario"],
        obs: Optional["ObsContext"] = None,
    ) -> BatchResult:
        """Solve N scenarios in serial vectorised passes of ``chunk_size``.

        ``scenarios`` may be a :class:`~repro.core.scenario.ScenarioSweep`,
        which is solved without building its rows.  The memo is neither
        read nor written.  ``obs`` records an ``engine.solve_batch`` span
        plus batch-size metrics; ``None`` leaves the hot path untouched.
        """
        if not isinstance(scenarios, ScenarioSweep):
            scenarios = list(scenarios)
        if obs is not None and obs.tracer is not None:
            with obs.tracer.span("engine.solve_batch", n=len(scenarios)):
                return self._solve_batch(scenarios, obs)
        return self._solve_batch(scenarios, obs)

    def _solve_batch(
        self,
        scenario_list: "Union[List[Scenario], ScenarioSweep]",
        obs: Optional["ObsContext"],
    ) -> BatchResult:
        n = len(scenario_list)
        block = np.empty((_N_COLUMNS, n))
        rescan_rows = uncertified_rows = 0
        for start in range(0, n, self.chunk_size):
            stop = start + self.chunk_size
            block[:, start:stop], rescans, uncertified = self._solve_chunk(
                scenario_list[start:stop]
            )
            rescan_rows += rescans
            uncertified_rows += uncertified

        if obs is not None and obs.metrics is not None:
            metrics = obs.metrics
            if rescan_rows:
                metrics.counter("engine.rescan_rows").inc(rescan_rows)
            if uncertified_rows:
                metrics.counter("engine.uncertified_rows").inc(uncertified_rows)
            metrics.counter("engine.batches").inc()
            metrics.histogram(
                "engine.batch.size", _BATCH_SIZE_EDGES
            ).observe(n)
        # Columns are views of the block's rows.  An empty batch keeps
        # the 1e-6 m default resolution.
        tolerance = self._tolerance_m() if n else 1e-6
        return BatchResult(*block, tolerance_m=tolerance)

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
        dataclass field name).  Sweeps of a key field over real numbers
        are solved as one :class:`~repro.core.scenario.ScenarioSweep`.
        """
        return self.solve_batch(sweep_rows(scenario, param, values), obs=obs)

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

    def _tolerance_m(self) -> float:
        """Resolution stamped on every decision this engine solves."""
        return max(self.refine_tolerance_m, 1e-6)

    def _solve_chunk(
        self, scenarios: Sequence["Scenario"]
    ) -> Tuple[np.ndarray, int, int]:
        """The Eq. 2 kernels over one chunk of scenarios.

        Falling log-law rows take the exact
        :func:`~repro.core.optimizer.certified_argmax`; every row it
        cannot certify, and every other row, takes the grid kernel
        :func:`~repro.core.optimizer.argmax_utility`.  Returns the
        ``(9, n)`` result block (rows in :class:`BatchResult` field
        order), how many rows took the grid kernel's non-concave rescan
        and how many took the grid kernel at all (uncertified rows).
        """
        params = _Params(scenarios)
        params.validate()
        best = np.empty(len(params))
        grid = ~(params.logfit_mask & (params.slope < 0.0))
        exact = np.nonzero(~grid)[0]
        if exact.size:
            sub = params if exact.size == len(params) else params.take(exact)
            found, certified = certified_argmax(
                sub.dmin, sub.d0, sub.v, sub.bits, sub.rho,
                sub.slope, sub.intercept, sub.utility,
                self.refine_tolerance_m,
            )
            best[exact] = found
            grid[exact[~certified]] = True
        rest = np.nonzero(grid)[0]
        rescan_rows = 0
        if rest.size:
            sub = params if rest.size == len(params) else params.take(rest)
            best[rest], rescan_rows = argmax_utility(
                sub.dmin,
                sub.d0,
                sub.utility,
                self.grid_step_m,
                self.refine_tolerance_m,
            )
        block = np.stack(
            (best, *params.breakdown(best), params.d0, params.v, params.bits)
        )
        return block, rescan_rows, int(rest.size)


def _check_scenario(s: "Scenario") -> None:
    """The Eq. 2 constraints, checked in order on one scenario."""
    if s.cruise_speed_mps <= 0:
        raise ValueError("speed must be positive (Eq. 2 constraint)")
    if s.data_bits <= 0:
        raise ValueError("data size must be positive (Eq. 2 constraint)")
    if s.contact_distance_m < s.min_distance_m:
        raise ValueError(
            f"contact distance {s.contact_distance_m} below the "
            f"floor {s.min_distance_m}"
        )
    require_finite(
        (
            s.min_distance_m,
            s.contact_distance_m,
            s.cruise_speed_mps,
            s.data_bits,
            s.failure_rate_per_m,
        )
    )


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

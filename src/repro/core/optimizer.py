"""Solving Eq. 2: ``dopt = argmax U(d)``, ``d_min <= d <= d0``.

The paper notes ``U`` is approximately concave for small rho but not in
general, so a pure local method is unsafe.  :func:`argmax_utility` is
the one Eq. 2 kernel: a dense grid scan brackets each row's global
maximum, a vectorised ternary search refines the bracket, and rows
whose bracket turns out non-unimodal are rescanned on a finer sub-grid.
Every step depends on the row alone, so a row's answer never depends
on which other rows share its batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from .utility import DelayedGratificationUtility, UtilityBreakdown

__all__ = ["OptimalDecision", "DistanceOptimizer", "argmax_utility"]

#: Hard ceiling on grid columns per row, so one huge-span scenario
#: cannot blow up a batch's memory.
_MAX_GRID_POINTS = 4096

#: Sub-grid points used to rescan a non-unimodal bracket.
_RESCAN_POINTS = 65

#: Grid cells (rows x columns) evaluated per pass of the bracketing scan.
_SCAN_CELLS = 1 << 17

#: Relative utility slack for snapping to a boundary: the flat regions
#: near d0 otherwise leave the solution a hair inside the range,
#: muddying the 'transmit immediately' case with model-noise-level gains.
_SNAP_REL = 1e-4

_Utility = Callable[[np.ndarray], np.ndarray]


def _points(
    lo: np.ndarray, width: np.ndarray, n: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Point ``j`` of the grid ``np.linspace(lo, lo + width, n)``, bit
    for bit; ``j >= n - 1`` gives the last point.  Arguments broadcast."""
    last = n - 1
    t = np.where(j >= last, 1.0, j * (1.0 / last))
    return lo + t * width


def _scan(
    utility: _Utility, lo: np.ndarray, width: np.ndarray, n: np.ndarray
) -> "tuple[np.ndarray, ...]":
    """``(k, d, U, bracket_lo, bracket_hi)`` for the first argmax ``k``
    of each row's ``n``-point grid over ``[lo, lo + width]``.

    Columns are evaluated in blocks of about ``_SCAN_CELLS`` cells, so
    the working set stays bounded whatever the spans.
    """
    rows = np.arange(len(n))
    k = np.zeros(len(n), dtype=np.int64)
    best_u = np.full(len(n), -np.inf)
    columns = int(n.max(initial=0))
    block = max(1, _SCAN_CELLS // max(1, len(n)))
    for start in range(0, columns, block):
        j = np.arange(start, min(start + block, columns))
        values = utility(_points(lo[:, None], width[:, None], n[:, None], j))
        block_k = np.argmax(values, axis=1)
        block_u = values[rows, block_k]
        better = block_u > best_u  # strict: the first maximum wins
        k = np.where(better, start + block_k, k)
        best_u = np.where(better, block_u, best_u)
    return (
        k,
        _points(lo, width, n, k),
        best_u,
        _points(lo, width, n, np.maximum(k - 1, 0)),
        _points(lo, width, n, np.minimum(k + 1, n - 1)),
    )


def _refine(
    utility: _Utility, lo: np.ndarray, hi: np.ndarray, active: np.ndarray, tol: float
) -> "tuple[np.ndarray, np.ndarray]":
    """Shrink every active bracket at once by comparing two interior
    probes; returns the bracket midpoints and their utilities."""
    active = active & (hi - lo > tol)
    # Width shrinks by 1/3 per pass; the cap only guards against a
    # tolerance below floating-point resolution of the bracket.
    for _ in range(200):
        if not active.any():
            break
        width = hi - lo
        m1 = lo + width / 3.0
        m2 = hi - width / 3.0
        go_right = utility(m1) < utility(m2)
        lo = np.where(active & go_right, m1, lo)
        hi = np.where(active & ~go_right, m2, hi)
        active = active & (hi - lo > tol)
    refined = 0.5 * (lo + hi)
    return refined, utility(refined)


def argmax_utility(
    d_min: np.ndarray,
    d0: np.ndarray,
    utility: _Utility,
    grid_step_m: float,
    tolerance_m: float,
) -> np.ndarray:
    """Each row's ``argmax U(d)`` over ``[d_min[i], d0[i]]`` (Eq. 2).

    ``utility`` evaluates ``U`` elementwise on row-aligned distances of
    shape (N,) or (N, G).  Row ``i`` scans its own grid of
    ``min(4096, max(3, ceil(span/step) + 1))`` points, so its answer is
    bit-identical whatever rows share the call.
    """
    span = d0 - d_min
    n = np.minimum(
        _MAX_GRID_POINTS, np.maximum(3, np.ceil(span / grid_step_m) + 1)
    ).astype(np.int64)
    k, grid_best_d, grid_best_u, lo, hi = _scan(utility, d_min, span, n)

    # Degenerate range: the whole feasible interval is narrower than
    # the refinement tolerance — pin d_min.
    degenerate = span <= tolerance_m
    refined, refined_u = _refine(utility, lo, hi, ~degenerate, tolerance_m)
    # The refinement must never lose to the grid candidate.
    improved = (~degenerate) & (refined_u >= grid_best_u)
    best = np.where(
        improved, refined, np.where(degenerate, d_min, grid_best_d)
    )

    # Non-concave rows: an *interior* bracket whose refinement lost to
    # its own grid point hides several peaks.  Rescan it on a fixed
    # sub-grid and refine around the sub-grid argmax.  Boundary-argmax
    # rows are excluded: there a monotone curve legitimately converges
    # just inside the bracket and the grid endpoint stays the answer.
    suspect = (
        (~degenerate)
        & (k > 0)
        & (k < n - 1)
        & (refined_u < grid_best_u * (1.0 - 1e-9))
    )
    if suspect.any():
        _, sub_d, sub_u, sub_lo, sub_hi = _scan(
            utility, lo, hi - lo, np.full(len(n), _RESCAN_POINTS)
        )
        rescan, rescan_u = _refine(utility, sub_lo, sub_hi, suspect, tolerance_m)
        # Keep the best point evaluated: grid, sub-grid or refinement.
        pick = np.where(sub_u > grid_best_u, sub_d, grid_best_d)
        pick = np.where(rescan_u >= np.maximum(sub_u, grid_best_u), rescan, pick)
        best = np.where(suspect, pick, best)

    # Boundary snapping (d0 wins ties).
    best_u = utility(best)
    u_floor = utility(d_min)
    u_ceil = utility(d0)
    snap_floor = (~degenerate) & (u_floor >= best_u * (1.0 - _SNAP_REL))
    best = np.where(snap_floor, d_min, best)
    best_u = np.where(snap_floor, u_floor, best_u)
    snap_ceil = (~degenerate) & (u_ceil >= best_u * (1.0 - _SNAP_REL))
    return np.where(snap_ceil, d0, best)


@dataclass(frozen=True)
class OptimalDecision:
    """The solution of Eq. 2 for one problem instance."""

    distance_m: float
    utility: float
    cdelay_s: float
    shipping_s: float
    transmission_s: float
    discount: float
    contact_distance_m: float
    speed_mps: float
    data_bits: float
    #: Resolution of ``distance_m``: the solver's refinement tolerance
    #: (never finer than its grid can distinguish).  Used to classify
    #: the boundary cases instead of a hard-coded absolute epsilon.
    tolerance_m: float = 1e-6

    @property
    def transmit_immediately(self) -> bool:
        """True when staying at the contact distance is optimal.

        Distances closer to ``d0`` than the solver can resolve count as
        'immediate': the comparison scales with the optimiser's grid
        step / refinement tolerance rather than a fixed 1e-6 m.
        """
        slack = max(self.tolerance_m, 1e-9 * max(1.0, self.contact_distance_m))
        return abs(self.distance_m - self.contact_distance_m) <= slack

    def to_dict(self) -> Dict[str, float]:
        """Plain-``float`` mapping (JSON-ready; CLI ``--json`` output)."""
        return {
            "distance_m": float(self.distance_m),
            "utility": float(self.utility),
            "cdelay_s": float(self.cdelay_s),
            "shipping_s": float(self.shipping_s),
            "transmission_s": float(self.transmission_s),
            "discount": float(self.discount),
            "contact_distance_m": float(self.contact_distance_m),
            "speed_mps": float(self.speed_mps),
            "data_bits": float(self.data_bits),
            "transmit_immediately": bool(self.transmit_immediately),
        }


class DistanceOptimizer:
    """One-instance Eq. 2 solver: :func:`argmax_utility` at N=1 over any
    :class:`DelayedGratificationUtility`, evaluated elementwise."""

    def __init__(
        self,
        utility_model: DelayedGratificationUtility,
        grid_step_m: float = 1.0,
        refine_tolerance_m: float = 1e-4,
    ) -> None:
        if grid_step_m <= 0:
            raise ValueError("grid_step_m must be positive")
        if refine_tolerance_m <= 0:
            raise ValueError("refine_tolerance_m must be positive")
        self.utility_model = utility_model
        self.grid_step_m = grid_step_m
        self.refine_tolerance_m = refine_tolerance_m

    # ------------------------------------------------------------------
    def utility_curve(
        self,
        contact_distance_m: float,
        speed_mps: float,
        data_bits: float,
        n_points: int = 200,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """(distances, U(d)) sampled across the feasible range (Fig. 8)."""
        if n_points < 2:
            raise ValueError("n_points must be >= 2")
        d_min = self.utility_model.delay_model.min_distance_m
        distances = np.linspace(d_min, contact_distance_m, n_points)
        utilities = np.array(
            [
                self.utility_model.utility(
                    float(d), contact_distance_m, speed_mps, data_bits
                )
                for d in distances
            ]
        )
        return distances, utilities

    def optimize(
        self,
        contact_distance_m: float,
        speed_mps: float,
        data_bits: float,
    ) -> OptimalDecision:
        """Solve Eq. 2 for the given constraints."""
        if speed_mps <= 0:
            raise ValueError("speed must be positive (Eq. 2 constraint v > 0)")
        if data_bits <= 0:
            raise ValueError("data size must be positive (Eq. 2 constraint)")
        d_min = self.utility_model.delay_model.min_distance_m
        if contact_distance_m < d_min:
            raise ValueError(
                f"contact distance {contact_distance_m} below the floor {d_min}"
            )

        u = np.vectorize(
            lambda d: self.utility_model.utility(
                float(d), contact_distance_m, speed_mps, data_bits
            ),
            otypes=[float],
        )
        best = float(argmax_utility(
            np.array([float(d_min)]), np.array([float(contact_distance_m)]),
            u, self.grid_step_m, self.refine_tolerance_m,
        )[0])
        detail: UtilityBreakdown = self.utility_model.breakdown(
            best, contact_distance_m, speed_mps, data_bits
        )
        return OptimalDecision(
            distance_m=best,
            utility=detail.utility,
            cdelay_s=detail.cdelay_s,
            shipping_s=detail.shipping_s,
            transmission_s=detail.transmission_s,
            discount=detail.discount,
            contact_distance_m=contact_distance_m,
            speed_mps=speed_mps,
            data_bits=data_bits,
            tolerance_m=max(self.refine_tolerance_m, 1e-6),
        )

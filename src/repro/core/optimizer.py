"""Solving Eq. 2: ``dopt = argmax U(d)``, ``d_min <= d <= d0``.

The paper notes ``U`` is approximately concave for small rho but not in
general, so a pure local method is unsafe.  Two kernels solve it:

* :func:`certified_argmax` is exact on the paper's log-law fits
  (``s(d) = a log2 d + b`` with ``a < 0``).  A per-row branch-and-bound
  over distance cells proves where ``d log U/dd`` can change sign, a
  safeguarded Newton solve finds each interior maximum, and the answer
  is the best of the boundaries and those roots.  A row the certificate
  cannot settle within its depth is reported uncertified.
* :func:`argmax_utility` is the grid kernel for every other row (table
  and speed-scaled laws, rising log laws, uncertified rows): a dense
  grid scan brackets each row's global maximum, a vectorised ternary
  search refines the bracket, and rows whose bracket turns out
  non-unimodal are rescanned on a finer sub-grid.

Both snap to a boundary through one rule, and every step of either
depends on the row alone, so a row's answer never depends on which
other rows share its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from .throughput import MIN_THROUGHPUT_BPS
from .utility import DelayedGratificationUtility, UtilityBreakdown

__all__ = [
    "OptimalDecision",
    "DistanceOptimizer",
    "argmax_utility",
    "certified_argmax",
]

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

#: Children an undecided certificate cell splits into, and the splits
#: of a row's first cell allowed before the row counts as uncertified.
_CERT_SPLIT = 4
_CERT_DEPTH = 9

#: Relative margin on every certificate test, far above the rounding
#: of the bounds, so no rounding can flip a sign or drop a cell.
_CERT_MARGIN = 1e-9

#: Newton/bisection steps per root at most, and the step below which a
#: root counts as converged.
_ROOT_ITERS = 100
_ROOT_XTOL_M = 1e-9

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
) -> "tuple[np.ndarray, int]":
    """Each row's ``argmax U(d)`` over ``[d_min[i], d0[i]]`` (Eq. 2).

    ``utility`` evaluates ``U`` elementwise on row-aligned distances of
    shape (N,) or (N, G).  Row ``i`` scans its own grid of
    ``min(4096, max(3, ceil(span/step) + 1))`` points, so its answer is
    bit-identical whatever rows share the call.  Returns ``(best,
    rescan_rows)``: the argmax per row and how many rows took the
    non-concave sub-grid rescan.
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
    rescan_rows = int(np.count_nonzero(suspect))
    if rescan_rows:
        _, sub_d, sub_u, sub_lo, sub_hi = _scan(
            utility, lo, hi - lo, np.full(len(n), _RESCAN_POINTS)
        )
        rescan, rescan_u = _refine(utility, sub_lo, sub_hi, suspect, tolerance_m)
        # Keep the best point evaluated: grid, sub-grid or refinement.
        pick = np.where(sub_u > grid_best_u, sub_d, grid_best_d)
        pick = np.where(rescan_u >= np.maximum(sub_u, grid_best_u), rescan, pick)
        best = np.where(suspect, pick, best)

    return _snap(best, d_min, d0, utility, ~degenerate), rescan_rows


def _snap(
    best: np.ndarray,
    d_min: np.ndarray,
    d0: np.ndarray,
    utility: _Utility,
    active: np.ndarray,
) -> np.ndarray:
    """Snap each active row's ``best`` to ``d_min``, then to ``d0``,
    when that boundary is within ``_SNAP_REL`` of its utility (``d0``
    wins ties)."""
    best_u = utility(best)
    u_floor = utility(d_min)
    u_ceil = utility(d0)
    snap_floor = active & (u_floor >= best_u * (1.0 - _SNAP_REL))
    best = np.where(snap_floor, d_min, best)
    best_u = np.where(snap_floor, u_floor, best_u)
    snap_ceil = active & (u_ceil >= best_u * (1.0 - _SNAP_REL))
    return np.where(snap_ceil, d0, best)


class _LogLaw:
    """Eq. 1 on log-law rows, ``s(d) = 1e6 (slope log2 d + intercept)``
    bit/s with ``slope < 0``, gathered per (row, cell) pair.

    Below the clamp distance ``s`` is positive and falls as
    ``ds/dd = -A/d``.  There the sign of ``d log U/dd`` is the sign of
    ``g = rho C + 1/v - q``, with ``C = (d0 - d)/v + M/s`` and
    ``q = K/(d s^2)``, ``K = M A``.  As ``(d s^2)' = s (s - 2A)``,
    ``d s^2`` rises until ``s = 2A`` (at ``d_peak``) and falls after,
    and ``g' = q (rho + t/d) - rho/v`` with ``t = 1 - 2A/s``.
    """

    def __init__(self, d0, speed, bits, rho, slope, intercept) -> None:
        self.d0 = d0
        self.inv_v = 1.0 / speed
        self.bits = bits
        self.rho = rho
        self.slope = slope
        self.intercept = intercept
        self.a = slope * (-1e6 / math.log(2.0))
        self.k = bits * self.a
        # A nearly flat fit peaks at infinity, outside every cell.
        with np.errstate(over="ignore", invalid="ignore"):
            self.d_peak = np.exp2((2e-6 * self.a - intercept) / slope)
            self.m_peak = self.d_peak * (2.0 * self.a) ** 2

    def take(self, rows: np.ndarray) -> "_LogLaw":
        """The coefficients of ``rows``, one entry per index."""
        law = object.__new__(_LogLaw)
        for name, column in vars(self).items():
            setattr(law, name, column[rows])
        return law

    def throughput(self, d: np.ndarray) -> np.ndarray:
        """Unclamped ``s(d)``, rounded as the engine's throughput is."""
        s = np.log2(d)
        s *= self.slope
        s += self.intercept
        s *= 1e6
        return s

    def g_and_gprime(self, d: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """``(g(d), g'(d))`` pointwise."""
        s = self.throughput(d)
        q = self.k / (d * s * s)
        g = self.rho * ((self.d0 - d) * self.inv_v + self.bits / s)
        g += self.inv_v - q
        gp = q * (self.rho + (1.0 - 2.0 * self.a / s) / d)
        gp -= self.rho * self.inv_v
        return g, gp

    def bounds(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> "tuple[np.ndarray, ...]":
        """Bounds over cells ``[lo, hi]`` below the clamp: ``(U_hi,
        U(lo), g_lo, g_hi, g_scale, g'_lo, g'_hi, g'_scale)``, where a
        ``_scale`` sums the magnitudes of the terms its bounds add.

        On a cell ``d`` rises and ``s`` falls, so ``C``, ``U`` and ``t/d``
        are bounded through monotone factors at the cell's corners, and
        ``q`` exactly through the one peak of ``d s^2``.
        """
        s_lo = self.throughput(lo)  # the larger throughput
        s_hi = self.throughput(hi)
        m_lo = lo * s_lo * s_lo
        m_hi = hi * s_hi * s_hi
        peak = (lo < self.d_peak) & (self.d_peak < hi)
        q_min = self.k / np.where(peak, self.m_peak, np.maximum(m_lo, m_hi))
        q_max = self.k / np.minimum(m_lo, m_hi)
        c_lo = (self.d0 - hi) * self.inv_v + self.bits / s_lo
        c_hi = (self.d0 - lo) * self.inv_v + self.bits / s_hi
        g_lo = self.rho * c_lo + self.inv_v - q_max
        g_hi = self.rho * c_hi + self.inv_v - q_min
        g_scale = self.rho * c_hi + self.inv_v + q_max
        # t falls with d; t/d takes its extremes at the corners that
        # match t's sign.
        t_lo = 1.0 - 2.0 * self.a / s_hi
        t_hi = 1.0 - 2.0 * self.a / s_lo
        psi_lo = t_lo / np.where(t_lo < 0.0, lo, hi)
        psi_hi = t_hi / np.where(t_hi > 0.0, lo, hi)
        phi_lo = self.rho + psi_lo
        phi_hi = self.rho + psi_hi
        rho_v = self.rho * self.inv_v
        gp_lo = phi_lo * np.where(phi_lo < 0.0, q_max, q_min) - rho_v
        gp_hi = phi_hi * np.where(phi_hi > 0.0, q_max, q_min) - rho_v
        gp_scale = q_max * (self.rho + np.maximum(-psi_lo, psi_hi)) + rho_v
        return (
            np.exp(-self.rho * (self.d0 - hi)) / c_lo,
            np.exp(-self.rho * (self.d0 - lo))
            / ((self.d0 - lo) * self.inv_v + self.bits / s_lo),
            g_lo, g_hi, g_scale, gp_lo, gp_hi, gp_scale,
        )


def _split(
    row: np.ndarray, lo: np.ndarray, hi: np.ndarray, parts: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Each cell ``[lo, hi]`` of ``row`` as ``parts`` equal children, in
    order; the last child ends exactly at ``hi``."""
    width = (hi - lo) / parts
    edges = lo[:, None] + width[:, None] * np.arange(parts)
    child_hi = np.concatenate((edges[:, 1:], hi[:, None]), axis=1)
    return np.repeat(row, parts), edges.ravel(), child_hi.ravel()


def _roots(
    law: _LogLaw, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """The root of ``g`` in each cell ``[lo, hi]`` with ``g(lo) >= 0 >=
    g(hi)`` and ``g`` falling: safeguarded Newton, bisecting whenever a
    step leaves the bracket.  Each cell stops on its own."""
    lo = lo.copy()
    hi = hi.copy()
    x = 0.5 * (lo + hi)
    active = np.nonzero(hi - lo > _ROOT_XTOL_M)[0]
    for _ in range(_ROOT_ITERS):
        if active.size == 0:
            break
        xa, la, ha = x[active], lo[active], hi[active]
        g, gp = law.take(active).g_and_gprime(xa)
        rising = g > 0.0
        la = np.where(rising, xa, la)
        ha = np.where(rising, ha, xa)
        newton = xa - g / gp
        inside = (newton > la) & (newton < ha)
        nxt = np.where(inside, newton, 0.5 * (la + ha))
        lo[active], hi[active], x[active] = la, ha, nxt
        done = (np.abs(nxt - xa) <= _ROOT_XTOL_M) | (ha - la <= _ROOT_XTOL_M)
        active = active[~done]
    return x


def certified_argmax(
    d_min: np.ndarray,
    d0: np.ndarray,
    speed: np.ndarray,
    bits: np.ndarray,
    rho: np.ndarray,
    slope: np.ndarray,
    intercept: np.ndarray,
    utility: _Utility,
    tolerance_m: float,
) -> "tuple[np.ndarray, np.ndarray]":
    """Each log-law row's exact ``argmax U(d)`` over ``[d_min, d0]``.

    Row ``i`` has ``s(d) = max(MIN_THROUGHPUT_BPS, 1e6 (slope[i] log2 d
    + intercept[i]))`` with ``slope[i] < 0``; ``utility`` evaluates
    ``U`` on row-aligned distances as :func:`argmax_utility`'s does.
    Past the clamp distance ``d_c`` ``U`` rises, so ``d0`` is the only
    candidate there.  On ``[d_min, min(d0, d_c)]`` a branch-and-bound
    over cells drops every cell whose utility bound falls below the best
    edge utility seen or on which ``d log U/dd`` keeps one sign, and
    stops splitting a cell once ``g'`` keeps one sign (at most one root).
    The candidates are ``d_min``, ``min(d0, d_c)``, ``d0`` and the root
    of every cell where ``g`` falls through zero; the best one is
    snapped to a boundary as :func:`argmax_utility` snaps.

    Returns ``(best, certified)``.  A row whose cells are not all
    settled within ``_CERT_DEPTH`` splits is uncertified, and its
    ``best`` is meaningless.  Rows narrower than ``tolerance_m`` pin
    ``d_min``, as in :func:`argmax_utility`.
    """
    n = len(d_min)
    law = _LogLaw(d0, speed, bits, rho, slope, intercept)
    with np.errstate(over="ignore"):  # a flat fit never clamps
        d_clamp = np.exp2((MIN_THROUGHPUT_BPS / 1e6 - intercept) / slope)
    top = np.minimum(d0, np.maximum(d_clamp, d_min))
    candidates = [d_min, top, d0]
    values = [utility(c) for c in candidates]
    u_best = np.maximum(np.maximum(values[0], values[1]), values[2])

    degenerate = d0 - d_min <= tolerance_m
    open_rows = np.nonzero(~degenerate & (top > d_min))[0]
    row, lo, hi = open_rows, d_min[open_rows], top[open_rows]
    root_row, root_lo, root_hi = [row[:0]], [lo[:0]], [hi[:0]]
    for level in range(_CERT_DEPTH + 1):
        if row.size == 0:
            break
        cells = law.take(row)
        u_hi, u_at_lo, g_lo, g_hi, g_scale, gp_lo, gp_hi, gp_scale = (
            cells.bounds(lo, hi)
        )
        np.maximum.at(u_best, row, u_at_lo)
        margin_g = _CERT_MARGIN * g_scale
        margin_gp = _CERT_MARGIN * gp_scale
        keep = (
            (u_hi >= u_best[row] * (1.0 - _CERT_MARGIN))
            & (g_lo <= margin_g)
            & (g_hi >= -margin_g)
        )
        falling = keep & (gp_hi < -margin_gp)
        # A falling g crosses zero at most once: a lone maximum of U
        # when g(lo) >= 0 >= g(hi), no interior maximum otherwise.
        lone = np.nonzero(falling)[0]
        ends = cells.take(lone)
        crosses = (ends.g_and_gprime(lo[lone])[0] >= 0.0) & (
            ends.g_and_gprime(hi[lone])[0] <= 0.0
        )
        lone = lone[crosses]
        root_row.append(row[lone])
        root_lo.append(lo[lone])
        root_hi.append(hi[lone])
        split = keep & ~falling & (gp_lo <= margin_gp)
        if level < _CERT_DEPTH:
            row, lo, hi = _split(row[split], lo[split], hi[split], _CERT_SPLIT)
        else:
            row = row[split]

    certified = np.ones(n, dtype=bool)
    certified[row] = False
    root_row = np.concatenate(root_row)
    if root_row.size:
        x = _roots(
            law.take(root_row), np.concatenate(root_lo), np.concatenate(root_hi)
        )
        # One column per root of a row, in the order found; rows with
        # fewer roots are padded with their own d_min.
        order = np.argsort(root_row, kind="stable")
        root_row, x = root_row[order], x[order]
        counts = np.bincount(root_row, minlength=n)
        rank = np.arange(root_row.size) - (np.cumsum(counts) - counts)[root_row]
        found = np.repeat(d_min[:, None], int(counts.max()), axis=1)
        found[root_row, rank] = x
        candidates.extend(found.T)
        values.extend(utility(found).T)
    # The first best candidate wins; snapping then settles ties.
    pick = np.argmax(np.column_stack(values), axis=1)
    best = np.column_stack(candidates)[np.arange(n), pick]
    best = np.where(degenerate, d_min, best)
    return _snap(best, d_min, d0, utility, ~degenerate), certified


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
    """One-instance Eq. 2 solver: the grid kernel :func:`argmax_utility`
    at N=1 over any :class:`DelayedGratificationUtility`, evaluated
    elementwise.  It is the scalar reference the batch engine's exact
    log-law path is held to."""

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
        best_row, _ = argmax_utility(
            np.array([float(d_min)]), np.array([float(contact_distance_m)]),
            u, self.grid_step_m, self.refine_tolerance_m,
        )
        best = float(best_row[0])
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

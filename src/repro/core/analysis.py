"""Analytic properties of the utility function.

The paper remarks (Fig. 8 discussion) that ``U(d)`` "can be
approximated with a concave function for rho << 1, and thus the
formulation in Eq. (2) can be approximated as an unconstrained concave
maximization problem.  However, this result does not hold for higher
rho and may not hold for other s(d) functions."  This module provides
the tools behind that observation:

* :func:`concavity_profile` — numeric second derivative of U along the
  feasible range;
* :func:`is_effectively_concave` — whether the curve has a single
  interior sign change pattern consistent with concavity;
* :func:`sensitivity` — elasticities of dopt with respect to rho, v,
  and Mdata (how strongly each system parameter steers the decision).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .scenario import Scenario
from .utility import DelayedGratificationUtility

__all__ = [
    "ConcavityReport",
    "concavity_profile",
    "is_effectively_concave",
    "SensitivityReport",
    "sensitivity",
]


@dataclass(frozen=True)
class ConcavityReport:
    """Second-derivative summary of U(d) over the feasible range."""

    distances_m: np.ndarray
    utility: np.ndarray
    second_derivative: np.ndarray
    concave_fraction: float
    single_peak: bool

    @property
    def effectively_concave(self) -> bool:
        """Unimodal and concave over most of the range.

        The paper's "can be approximated with a concave function" is a
        statement about optimisation behaviour, not strict convexity:
        unimodality plus majority concavity is what makes Eq. 2 behave
        like an unconstrained concave maximisation.
        """
        return self.concave_fraction > 0.75 and self.single_peak


def concavity_profile(
    utility_model: DelayedGratificationUtility,
    contact_distance_m: float,
    speed_mps: float,
    data_bits: float,
    n_points: int = 300,
) -> ConcavityReport:
    """Numerically differentiate U(d) twice across the feasible range."""
    if n_points < 5:
        raise ValueError("need at least 5 points for a second derivative")
    d_min = utility_model.delay_model.min_distance_m
    distances = np.linspace(d_min, contact_distance_m, n_points)
    utility = np.array(
        [
            utility_model.utility(float(d), contact_distance_m, speed_mps, data_bits)
            for d in distances
        ]
    )
    h = distances[1] - distances[0]
    second = np.gradient(np.gradient(utility, h), h)
    # Ignore the edge artefacts of np.gradient.
    interior = second[2:-2]
    concave_fraction = float(np.mean(interior <= 1e-12))
    peaks = _count_local_maxima(utility)
    return ConcavityReport(
        distances_m=distances,
        utility=utility,
        second_derivative=second,
        concave_fraction=concave_fraction,
        single_peak=peaks <= 1,
    )


def _count_local_maxima(values: np.ndarray) -> int:
    """Interior local maxima (plateaus counted once)."""
    count = 0
    rising = False
    for a, b in zip(values, values[1:]):
        if b > a + 1e-15:
            rising = True
        elif b < a - 1e-15:
            if rising:
                count += 1
            rising = False
    # A curve still rising at the right edge peaks at the boundary,
    # which does not count as an interior maximum.
    return count


def is_effectively_concave(
    utility_model: DelayedGratificationUtility,
    contact_distance_m: float,
    speed_mps: float,
    data_bits: float,
) -> bool:
    """Convenience wrapper for the paper's concavity claim."""
    return concavity_profile(
        utility_model, contact_distance_m, speed_mps, data_bits
    ).effectively_concave


# ----------------------------------------------------------------------
# Sensitivity of the optimal decision
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SensitivityReport:
    """Finite-difference sensitivities of dopt around a scenario."""

    dopt_m: float
    #: d(dopt)/d(rho) in metres per (1/m) of failure rate.
    ddopt_drho: float
    #: d(dopt)/d(v) in metres per (m/s).
    ddopt_dspeed: float
    #: d(dopt)/d(Mdata) in metres per MB.
    ddopt_dmdata: float

    def dominant_parameter(self) -> str:
        """Which 10% parameter change moves dopt the most."""
        return max(
            {
                "rho": abs(self.ddopt_drho),
                "speed": abs(self.ddopt_dspeed),
                "mdata": abs(self.ddopt_dmdata),
            }.items(),
            key=lambda kv: kv[1],
        )[0]


def sensitivity(scenario: Scenario, rel_step: float = 0.1) -> SensitivityReport:
    """Finite-difference sensitivities of dopt at the scenario's point.

    Derivatives use central differences with a relative step of
    ``rel_step`` on each parameter; values are *normalised to a 10%
    parameter change*, which is what a mission planner actually wants
    to know ("if my batch grows 10%, how much further should I fly?").

    All seven probe instances (base plus the lo/hi perturbation of each
    parameter) are solved in a single vectorised batch-engine pass.
    """
    if not 0.0 < rel_step < 1.0:
        raise ValueError("rel_step must be in (0, 1)")
    from ..engine import default_engine  # local: core must not cycle

    rho = scenario.failure_rate_per_m
    probes = [scenario]
    spans: Dict[str, slice] = {}

    def add(name: str, lo: Scenario, hi: Scenario) -> None:
        spans[name] = slice(len(probes), len(probes) + 2)
        probes.extend((lo, hi))

    if rho > 0:
        add(
            "rho",
            scenario.with_(rho_per_m=rho * (1.0 - rel_step)),
            scenario.with_(rho_per_m=rho * (1.0 + rel_step)),
        )
    v = scenario.cruise_speed_mps
    add(
        "speed",
        scenario.with_(speed_mps=v * (1.0 - rel_step)),
        scenario.with_(speed_mps=v * (1.0 + rel_step)),
    )
    mdata = scenario.data_megabytes
    add(
        "mdata",
        scenario.with_(mdata_mb=mdata * (1.0 - rel_step)),
        scenario.with_(mdata_mb=mdata * (1.0 + rel_step)),
    )

    dopt = default_engine().solve_batch(probes).distance_m

    def central(name: str) -> float:
        if name not in spans:
            return 0.0
        lo, hi = dopt[spans[name]]
        return float(hi - lo) / 2.0

    return SensitivityReport(
        dopt_m=float(dopt[0]),
        ddopt_drho=central("rho"),
        ddopt_dspeed=central("speed"),
        ddopt_dmdata=central("mdata"),
    )

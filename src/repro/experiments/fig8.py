"""Figure 8 — U(d) versus d for various failure rates rho.

Both baseline scenarios, rho in {nominal, 1e-3, 2e-3, 5e-3, 1e-2}.
The paper's observations reproduced here:

* the optimal distance dopt increases with rho (a riskier world pushes
  the UAV to transmit sooner, i.e. from further away);
* shrinking d0 leaves dopt unchanged until d0 reaches dopt, after
  which transmitting immediately is optimal.
"""

from __future__ import annotations

from typing import Dict, List

from ..api import Scenario, airplane_scenario, default_engine, quadrocopter_scenario
from ..report.ascii import line_plot
from .base import ExperimentReport, format_table

__all__ = ["run", "RHO_SWEEP"]

#: The rho values of Fig. 8 (the first entry per scenario is its nominal).
RHO_SWEEP: List[float] = [1e-3, 2e-3, 5e-3, 1e-2]


def _sweep(scenario: Scenario) -> Dict[float, dict]:
    """dopt and the U(d) curve per failure rate (one batch-engine pass)."""
    engine = default_engine()
    rhos = [scenario.failure_rate_per_m, *RHO_SWEEP]
    variants = [scenario.with_(rho_per_m=rho) for rho in rhos]
    decisions = engine.solve_batch(variants)
    distances, utilities = engine.utility_curves(variants, n_points=150)
    return {
        rho: {
            "decision": decisions[i],
            "distances": distances[i],
            "utilities": utilities[i],
        }
        for i, rho in enumerate(rhos)
    }


def run() -> ExperimentReport:
    """Regenerate both panels of Fig. 8."""
    report = ExperimentReport("fig8", "U(d) for various failure rates rho")
    data = {}
    for scenario in (airplane_scenario(), quadrocopter_scenario()):
        sweep = _sweep(scenario)
        data[scenario.name] = sweep
        report.add(f"[{scenario.name}] d0={scenario.contact_distance_m:g} m, "
                   f"v={scenario.cruise_speed_mps:g} m/s, "
                   f"Mdata={scenario.data_megabytes:.1f} MB")
        rows = []
        for rho, entry in sweep.items():
            d = entry["decision"]
            rows.append(
                [
                    f"{rho:.6f}",
                    f"{d.distance_m:.0f}",
                    f"{d.utility:.4f}",
                    f"{d.cdelay_s:.1f}",
                    f"{d.discount:.3f}",
                ]
            )
        report.extend(
            format_table(
                ["rho(1/m)", "dopt(m)", "U(dopt)", "Cdelay(s)", "delta"],
                rows,
                width=10,
            )
        )
        # Render the U(d) curves like the paper's figure.
        first = next(iter(sweep.values()))
        series = {
            f"rho={rho:.0e}": entry["utilities"]
            for rho, entry in sweep.items()
        }
        report.extend(
            line_plot(
                first["distances"], series,
                x_label="d (m)", y_label="U(d)", width=60, height=12,
            )
        )
        report.add()
        dopts = [entry["decision"].distance_m for entry in sweep.values()]
        monotone = all(b >= a - 1e-6 for a, b in zip(dopts, dopts[1:]))
        report.add(
            f"dopt increases with rho: {'yes' if monotone else 'NO'} "
            "(paper: yes)"
        )
        # d0-shrink observation: dopt is insensitive to d0 until d0 = dopt.
        nominal = scenario.solve()
        d0_half = max(
            scenario.min_distance_m,
            (nominal.distance_m + scenario.contact_distance_m) / 2.0,
        )
        shrunk = scenario.with_(d0_m=d0_half).solve()
        report.add(
            f"dopt at d0={scenario.contact_distance_m:g} m: "
            f"{nominal.distance_m:.0f} m; at d0={d0_half:.0f} m: "
            f"{shrunk.distance_m:.0f} m (unchanged while d0 > dopt)"
        )
        report.add()
    report.data = data
    return report

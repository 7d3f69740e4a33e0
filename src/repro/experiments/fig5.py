"""Figure 5 — throughput vs distance between two airplanes (auto rate).

Reproduces the boxplot campaign: two airplanes fly the Fig. 4(a)
pattern, the link runs the vendor auto-rate controller, and per-second
iperf readings are binned by GPS-measured distance.  The report prints
the boxplot statistics per bin, fits the median with the paper's
``a log2 d + b`` law and compares coefficients (paper: a = -5.56,
b = 49, R^2 = 0.90).
"""

from __future__ import annotations

from ..measurements.campaign import AirplaneFlybyCampaign
from ..measurements.datasets import AIRPLANE_FIT
from ..measurements.fitting import fit_log2
from ..report.ascii import box_plot
from .base import ExperimentReport, format_table

__all__ = ["run"]


def run(seed: int = 11, n_passes: int = 8) -> ExperimentReport:
    """Run the fly-by campaign and reduce it to the Fig. 5 boxplots."""
    campaign = AirplaneFlybyCampaign(seed=seed, n_passes=n_passes)
    result = campaign.run()

    rows = []
    medians = {}
    for key in result.keys():
        stats = result.stats(key)
        if stats.count < 3:
            continue
        medians[key] = stats.median / 1e6
        rows.append(
            [
                int(key),
                stats.count,
                f"{stats.whisker_low / 1e6:.1f}",
                f"{stats.q1 / 1e6:.1f}",
                f"{stats.median / 1e6:.1f}",
                f"{stats.q3 / 1e6:.1f}",
                f"{stats.whisker_high / 1e6:.1f}",
                f"{AIRPLANE_FIT.throughput_bps(key) / 1e6:.1f}",
            ]
        )

    fit = fit_log2(list(medians.keys()), list(medians.values()))
    report = ExperimentReport(
        "fig5", "Throughput vs distance, two airplanes, auto PHY rate"
    )
    stats_mbps = {}
    for key in result.keys():
        stats = result.stats(key)
        if stats.count >= 3:
            import dataclasses

            stats_mbps[key] = dataclasses.replace(
                stats,
                minimum=stats.minimum / 1e6,
                q1=stats.q1 / 1e6,
                median=stats.median / 1e6,
                q3=stats.q3 / 1e6,
                maximum=stats.maximum / 1e6,
                whisker_low=stats.whisker_low / 1e6,
                whisker_high=stats.whisker_high / 1e6,
            )
    report.extend(box_plot(stats_mbps, value_format="{:.0f}m"))
    report.add()
    report.extend(
        format_table(
            ["d(m)", "n", "lo", "q1", "median", "q3", "hi", "paperfit"],
            rows,
            width=8,
        )
    )
    report.add()
    report.add(
        f"log2 fit of medians: s(d) = {fit.slope_mbps_per_octave:.2f} log2(d) "
        f"+ {fit.intercept_mbps:.1f}  (R^2 = {fit.r_squared:.2f})"
    )
    report.add(
        f"paper:               s(d) = {AIRPLANE_FIT.slope_mbps_per_octave:.2f} "
        f"log2(d) + {AIRPLANE_FIT.intercept_mbps:.1f}  "
        f"(R^2 = {AIRPLANE_FIT.r_squared:.2f})"
    )
    report.data = {
        "medians_mbps": medians,
        "fit": fit,
        "result": result,
    }
    return report

"""Figure 7 — quadrocopter link: hover vs moving vs speed sweep.

Three panels:

* left — throughput vs distance while both quadrocopters hover
  (higher and steadier than the airplane link);
* centre — the same distances while the transmitter approaches at
  ~8 m/s (a clear drop);
* right — throughput at ~60 m versus the commanded cruise speed
  (monotone collapse with speed).
"""

from __future__ import annotations

from ..measurements.campaign import (
    QuadApproachCampaign,
    QuadHoverCampaign,
    QuadSpeedCampaign,
)
from ..measurements.datasets import (
    FIG7_HOVER_DISTANCES_M,
    FIG7_MOVING_SPEED_MPS,
    FIG7_SPEED_SWEEP_MPS,
    QUADROCOPTER_FIT,
)
from ..measurements.fitting import fit_log2
from ..report.ascii import box_plot
from .base import ExperimentReport, format_table

__all__ = ["run"]


def run(seed: int = 5, hover_duration_s: float = 60.0) -> ExperimentReport:
    """Run the three quadrocopter campaigns and summarise each panel."""
    hover = QuadHoverCampaign(
        seed=seed,
        distances_m=[float(d) for d in FIG7_HOVER_DISTANCES_M],
        duration_s=hover_duration_s,
    ).run()
    moving = QuadApproachCampaign(
        seed=seed, approach_speed_mps=FIG7_MOVING_SPEED_MPS
    ).run()
    speed = QuadSpeedCampaign(seed=seed, speeds_mps=FIG7_SPEED_SWEEP_MPS).run()

    hover_medians = hover.medians_mbps()
    moving_medians = moving.medians_mbps()
    speed_medians = speed.medians_mbps()

    report = ExperimentReport(
        "fig7", "Quadrocopter link: hover / moving / speed sweep"
    )
    report.add("(left) hovering, throughput vs distance")
    import dataclasses

    stats_mbps = {}
    for d in FIG7_HOVER_DISTANCES_M:
        stats = hover.stats(float(d))
        stats_mbps[float(d)] = dataclasses.replace(
            stats,
            minimum=stats.minimum / 1e6, q1=stats.q1 / 1e6,
            median=stats.median / 1e6, q3=stats.q3 / 1e6,
            maximum=stats.maximum / 1e6,
            whisker_low=stats.whisker_low / 1e6,
            whisker_high=stats.whisker_high / 1e6,
        )
    report.extend(box_plot(stats_mbps, value_format="{:.0f}m"))
    report.add()
    rows = []
    for d in FIG7_HOVER_DISTANCES_M:
        stats = hover.stats(float(d))
        rows.append(
            [
                d,
                f"{stats.median / 1e6:.1f}",
                f"{stats.iqr / 1e6:.1f}",
                f"{QUADROCOPTER_FIT.throughput_bps(d) / 1e6:.1f}",
                f"{moving_medians.get(float(d), float('nan')):.1f}",
            ]
        )
    report.extend(
        format_table(
            ["d(m)", "hover", "IQR", "paperfit", "moving@8m/s"], rows, width=12
        )
    )
    fit = fit_log2(list(hover_medians.keys()), list(hover_medians.values()))
    report.add(
        f"hover medians fit: {fit.slope_mbps_per_octave:.2f} log2(d) + "
        f"{fit.intercept_mbps:.1f} (R^2={fit.r_squared:.2f}); paper: "
        f"{QUADROCOPTER_FIT.slope_mbps_per_octave:.1f} log2(d) + "
        f"{QUADROCOPTER_FIT.intercept_mbps:.0f} (R^2="
        f"{QUADROCOPTER_FIT.r_squared:.2f})"
    )
    report.add()
    report.add("(right) throughput vs cruise speed at ~60 m")
    speed_rows = [
        [f"{v:g}", f"{speed_medians.get(float(v), float('nan')):.1f}"]
        for v in FIG7_SPEED_SWEEP_MPS
    ]
    report.extend(format_table(["v(m/s)", "median Mb/s"], speed_rows, width=12))

    report.data = {
        "hover_medians_mbps": hover_medians,
        "moving_medians_mbps": moving_medians,
        "speed_medians_mbps": speed_medians,
        "hover_fit": fit,
        "hover_result": hover,
        "moving_result": moving,
        "speed_result": speed,
    }
    return report

"""Calibration validation: does the simulator still match the paper?

The channel/PHY parameters in :mod:`repro.channel.channel` were fitted
so that the simulated campaigns reproduce the paper's published
numbers.  :func:`validate_calibration` re-runs reduced versions of the
anchor campaigns and reports the deviation from each target, so any
change to the stack that silently breaks the reproduction is caught by
one call (and by the test suite, which asserts on this report).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .campaign import AirplaneFlybyCampaign, QuadHoverCampaign
from .datasets import AIRPLANE_FIT, QUADROCOPTER_FIT
from .fitting import Log2Fit, fit_log2

__all__ = ["CalibrationCheck", "CalibrationReport", "validate_calibration"]


@dataclass(frozen=True)
class CalibrationCheck:
    """One paper-anchored quantity and its simulated counterpart."""

    name: str
    paper_value: float
    measured_value: float
    tolerance: float

    @property
    def deviation(self) -> float:
        """Absolute difference from the paper's value."""
        return abs(self.measured_value - self.paper_value)

    @property
    def passed(self) -> bool:
        """Whether the simulated value sits within tolerance."""
        return self.deviation <= self.tolerance


@dataclass(frozen=True)
class CalibrationReport:
    """All calibration checks in one bundle."""

    checks: List[CalibrationCheck]
    airplane_fit: Log2Fit
    quadrocopter_fit: Log2Fit

    @property
    def all_passed(self) -> bool:
        """True when every anchor is within tolerance."""
        return all(check.passed for check in self.checks)

    def failures(self) -> List[CalibrationCheck]:
        """The checks that drifted out of tolerance."""
        return [check for check in self.checks if not check.passed]

    def summary_lines(self) -> List[str]:
        """Human-readable report."""
        lines = []
        for check in self.checks:
            status = "ok " if check.passed else "FAIL"
            lines.append(
                f"[{status}] {check.name}: paper {check.paper_value:+.2f}, "
                f"measured {check.measured_value:+.2f} "
                f"(tolerance {check.tolerance:g})"
            )
        return lines


def validate_calibration(
    seed: int = 11, n_passes: int = 6, hover_duration_s: float = 40.0
) -> CalibrationReport:
    """Re-run the two anchor campaigns and compare against the paper."""
    flyby = AirplaneFlybyCampaign(seed=seed, n_passes=n_passes).run()
    medians = {
        k: v
        for k, v in flyby.medians_mbps().items()
        if len(flyby.samples[k]) >= 5
    }
    air_fit = fit_log2(list(medians.keys()), list(medians.values()))

    hover = QuadHoverCampaign(
        seed=seed, duration_s=hover_duration_s
    ).run()
    hover_medians = hover.medians_mbps()
    quad_fit = fit_log2(list(hover_medians.keys()), list(hover_medians.values()))

    checks = [
        CalibrationCheck(
            "airplane fit slope (Mb/s per octave)",
            AIRPLANE_FIT.slope_mbps_per_octave,
            air_fit.slope_mbps_per_octave,
            tolerance=1.5,
        ),
        CalibrationCheck(
            "airplane fit intercept (Mb/s)",
            AIRPLANE_FIT.intercept_mbps,
            air_fit.intercept_mbps,
            tolerance=8.0,
        ),
        CalibrationCheck(
            "airplane fit R^2",
            AIRPLANE_FIT.r_squared,
            air_fit.r_squared,
            tolerance=0.12,
        ),
        CalibrationCheck(
            "quadrocopter fit slope (Mb/s per octave)",
            QUADROCOPTER_FIT.slope_mbps_per_octave,
            quad_fit.slope_mbps_per_octave,
            tolerance=3.0,
        ),
        CalibrationCheck(
            "quadrocopter fit intercept (Mb/s)",
            QUADROCOPTER_FIT.intercept_mbps,
            quad_fit.intercept_mbps,
            tolerance=15.0,
        ),
        CalibrationCheck(
            "quadrocopter fit R^2",
            QUADROCOPTER_FIT.r_squared,
            quad_fit.r_squared,
            tolerance=0.1,
        ),
    ]
    return CalibrationReport(
        checks=checks, airplane_fit=air_fit, quadrocopter_fit=quad_fit
    )

"""Measurement campaigns, boxplot statistics, fits, paper datasets.

Only the paper constants in :mod:`.datasets` load with the package:
the Eq. 2 solver path needs them and nothing else here.  Every other
name resolves on first access (PEP 562 ``__getattr__``), so a cold
``repro solve`` never imports the simulated link stack behind
:mod:`.batch` and :mod:`.campaign`.
"""

from .datasets import (
    AIRPLANE_FIT,
    AIRPLANE_RELATIVE_SPEED_RANGE_MPS,
    FIG1_APPROACH_SPEED_MPS,
    FIG1_CROSSOVER_MB,
    FIG1_DATA_MB,
    FIG1_HOVER_RATES_MBPS,
    FIG1_MOVING_RATE_MBPS,
    FIG1_START_DISTANCE_M,
    FIG5_DISTANCES_M,
    FIG6_BEST_MCS_REGIONS,
    FIG6_DISTANCES_M,
    FIG6_FIXED_CANDIDATES,
    FIG7_HOVER_DISTANCES_M,
    FIG7_MOVING_SPEED_MPS,
    FIG7_SPEED_SWEEP_DISTANCE_M,
    FIG7_SPEED_SWEEP_MPS,
    INDOOR_THROUGHPUT_MBPS,
    MIN_SAFE_SEPARATION_M,
    PaperLogFit,
    QUADROCOPTER_FIT,
)

__all__ = [
    "BatchCampaignConfig",
    "BatchCampaignResult",
    "profile_by_name",
    "run_campaign",
    "run_scalar_reference",
    "AirplaneFlybyCampaign",
    "CampaignResult",
    "QuadApproachCampaign",
    "QuadHoverCampaign",
    "QuadSpeedCampaign",
    "default_controller_factory",
    "AIRPLANE_FIT",
    "AIRPLANE_RELATIVE_SPEED_RANGE_MPS",
    "FIG1_APPROACH_SPEED_MPS",
    "FIG1_CROSSOVER_MB",
    "FIG1_DATA_MB",
    "FIG1_HOVER_RATES_MBPS",
    "FIG1_MOVING_RATE_MBPS",
    "FIG1_START_DISTANCE_M",
    "FIG5_DISTANCES_M",
    "FIG6_BEST_MCS_REGIONS",
    "FIG6_DISTANCES_M",
    "FIG6_FIXED_CANDIDATES",
    "FIG7_HOVER_DISTANCES_M",
    "FIG7_MOVING_SPEED_MPS",
    "FIG7_SPEED_SWEEP_DISTANCE_M",
    "FIG7_SPEED_SWEEP_MPS",
    "INDOOR_THROUGHPUT_MBPS",
    "MIN_SAFE_SEPARATION_M",
    "PaperLogFit",
    "QUADROCOPTER_FIT",
    "Log2Fit",
    "fit_log2",
    "r_squared",
    "CalibrationCheck",
    "CalibrationReport",
    "validate_calibration",
]


def __getattr__(name: str):
    # Literal relative imports keep each edge in the RL108 import graph.
    if name in (
        "BatchCampaignConfig",
        "BatchCampaignResult",
        "profile_by_name",
        "run_campaign",
        "run_scalar_reference",
    ):
        from . import batch as source
    elif name in (
        "AirplaneFlybyCampaign",
        "CampaignResult",
        "QuadApproachCampaign",
        "QuadHoverCampaign",
        "QuadSpeedCampaign",
        "default_controller_factory",
    ):
        from . import campaign as source
    elif name in ("Log2Fit", "fit_log2", "r_squared"):
        from . import fitting as source
    elif name in (
        "CalibrationCheck",
        "CalibrationReport",
        "validate_calibration",
    ):
        from . import validate as source
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(source, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})

"""The paper's contribution: the delayed-gratification transfer model.

The modules one Eq. 2 solve uses load with the package.  The analysis,
deadline, planner, schedule and strategy layers resolve on first
access (PEP 562 ``__getattr__``).
"""

from .delay import CommunicationDelayModel, DelayBreakdown
from .failure import (
    ExponentialFailure,
    FailureModel,
    NonStationaryFailure,
    WeibullFailure,
    failure_rate_from_platform,
)
from .mission import JPG100_BYTES_PER_PIXEL, CameraModel, SectorMission
from .optimizer import DistanceOptimizer, OptimalDecision
from .scenario import Scenario, airplane_scenario, quadrocopter_scenario
from .throughput import (
    MIN_THROUGHPUT_BPS,
    LogFitThroughput,
    SpeedScaledThroughput,
    TableThroughput,
    ThroughputModel,
)
from .utility import DelayedGratificationUtility, UtilityBreakdown

__all__ = [
    "ConcavityReport",
    "SensitivityReport",
    "concavity_profile",
    "is_effectively_concave",
    "sensitivity",
    "DeliveryRound",
    "MissionSchedule",
    "MultiBatchScheduler",
    "deadline_curve",
    "expected_fraction_by",
    "probability_fraction_by",
    "time_to_fraction",
    "CommunicationDelayModel",
    "DelayBreakdown",
    "ExponentialFailure",
    "FailureModel",
    "NonStationaryFailure",
    "WeibullFailure",
    "failure_rate_from_platform",
    "JPG100_BYTES_PER_PIXEL",
    "CameraModel",
    "SectorMission",
    "DistanceOptimizer",
    "OptimalDecision",
    "HolisticPlanner",
    "RendezvousPlan",
    "RendezvousPlanner",
    "Scenario",
    "airplane_scenario",
    "quadrocopter_scenario",
    "HoverAndTransmit",
    "MixedStrategy",
    "MoveAndTransmit",
    "StrategyOutcome",
    "transmit_now",
    "MIN_THROUGHPUT_BPS",
    "LogFitThroughput",
    "SpeedScaledThroughput",
    "TableThroughput",
    "ThroughputModel",
    "DelayedGratificationUtility",
    "UtilityBreakdown",
]


def __getattr__(name: str):
    # Literal relative imports keep each edge in the RL108 import graph.
    if name in (
        "ConcavityReport",
        "SensitivityReport",
        "concavity_profile",
        "is_effectively_concave",
        "sensitivity",
    ):
        from . import analysis as source
    elif name in (
        "deadline_curve",
        "expected_fraction_by",
        "probability_fraction_by",
        "time_to_fraction",
    ):
        from . import deadline as source
    elif name in ("HolisticPlanner", "RendezvousPlan", "RendezvousPlanner"):
        from . import planner as source
    elif name in ("DeliveryRound", "MissionSchedule", "MultiBatchScheduler"):
        from . import schedule as source
    elif name in (
        "HoverAndTransmit",
        "MixedStrategy",
        "MoveAndTransmit",
        "StrategyOutcome",
        "transmit_now",
    ):
        from . import strategies as source
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(source, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})

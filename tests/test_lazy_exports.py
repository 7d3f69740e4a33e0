"""The lazily re-exported package surface is the eager one it replaced.

Every package ``__init__`` on the ``import repro`` path loads only the
leaf modules the solver needs and resolves every other name through a
PEP 562 ``__getattr__``.  These tests pin each package's ``__all__``
to the submodule that defines each name, and check that the lazy
loader hands back exactly that object.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: package → {defining module → names it re-exports}.
SURFACE = {
    "repro": {
        "repro.api": (
            "BatchResult", "BatchSolverEngine", "FaultPlan", "FaultSpec",
            "OptimalDecision", "RunResult", "Scenario", "airplane_scenario",
            "chaos", "default_engine", "quadrocopter_scenario", "scenario",
            "solve", "solve_batch", "sweep", "utility_curve",
        ),
        "repro.core.analysis": ("sensitivity",),
        "repro.core.delay": ("CommunicationDelayModel",),
        "repro.core.failure": ("ExponentialFailure",),
        "repro.core.optimizer": ("DistanceOptimizer",),
        "repro.core.schedule": ("MultiBatchScheduler",),
        "repro.core.strategies": (
            "HoverAndTransmit", "MixedStrategy", "MoveAndTransmit",
            "transmit_now",
        ),
        "repro.core.throughput": ("LogFitThroughput", "TableThroughput"),
        "repro.core.utility": ("DelayedGratificationUtility",),
    },
    "repro.measurements": {
        "repro.measurements.batch": (
            "BatchCampaignConfig", "BatchCampaignResult", "profile_by_name",
            "run_campaign", "run_scalar_reference",
        ),
        "repro.measurements.campaign": (
            "AirplaneFlybyCampaign", "CampaignResult", "QuadApproachCampaign",
            "QuadHoverCampaign", "QuadSpeedCampaign",
            "default_controller_factory",
        ),
        "repro.measurements.datasets": (
            "AIRPLANE_FIT", "AIRPLANE_RELATIVE_SPEED_RANGE_MPS",
            "FIG1_APPROACH_SPEED_MPS", "FIG1_CROSSOVER_MB", "FIG1_DATA_MB",
            "FIG1_HOVER_RATES_MBPS", "FIG1_MOVING_RATE_MBPS",
            "FIG1_START_DISTANCE_M", "FIG5_DISTANCES_M",
            "FIG6_BEST_MCS_REGIONS", "FIG6_DISTANCES_M",
            "FIG6_FIXED_CANDIDATES", "FIG7_HOVER_DISTANCES_M",
            "FIG7_MOVING_SPEED_MPS", "FIG7_SPEED_SWEEP_DISTANCE_M",
            "FIG7_SPEED_SWEEP_MPS", "INDOOR_THROUGHPUT_MBPS",
            "MIN_SAFE_SEPARATION_M", "PaperLogFit", "QUADROCOPTER_FIT",
        ),
        "repro.measurements.fitting": ("Log2Fit", "fit_log2", "r_squared"),
        "repro.measurements.validate": (
            "CalibrationCheck", "CalibrationReport", "validate_calibration",
        ),
    },
    "repro.faults": {
        "repro.faults.plan": ("FAULT_KINDS", "FaultPlan", "FaultSpec"),
        "repro.faults.outage": ("OutageSchedule", "BatchOutageSchedule"),
        "repro.faults.injector": (
            "FaultInjector", "sample_crash_distance_m",
            "sample_crash_distance_for_platform",
        ),
        "repro.net.retry": ("ExponentialBackoff", "RetryPolicy"),
        "repro.faults.chaos": ("ChaosResult", "run_chaos"),
    },
    "repro.airframe": {
        "repro.airframe.autopilot": ("Autopilot", "AutopilotMode", "Uav"),
        "repro.airframe.battery": ("Battery", "BatteryDepleted"),
        "repro.airframe.dynamics": ("PointMassDynamics", "PointMassState"),
        "repro.airframe.platform": (
            "AIRPLANE", "PLATFORMS", "QUADROCOPTER", "PlatformSpec",
            "get_platform",
        ),
    },
    "repro.relay": {
        "repro.relay.batch": ("BatchRelaySolver",),
        "repro.relay.chain": ("RelayChain", "RelayHop"),
        "repro.relay.campaign": (
            "RelayCampaignConfig", "RelayCampaignResult",
            "relay_campaign_manifest", "run_relay_campaign",
        ),
        "repro.relay.solver": (
            "HOP_POLICIES", "BatchRelayResult", "HopChoice", "RelayDecision",
            "RelaySolver", "relay_manifest",
        ),
        "repro.relay.transfer": (
            "RelayHopReport", "RelayTransferResult", "run_relay_transfer",
        ),
    },
    "repro.core": {
        "repro.core.analysis": (
            "ConcavityReport", "SensitivityReport", "concavity_profile",
            "is_effectively_concave", "sensitivity",
        ),
        "repro.core.deadline": (
            "deadline_curve", "expected_fraction_by",
            "probability_fraction_by", "time_to_fraction",
        ),
        "repro.core.delay": ("CommunicationDelayModel", "DelayBreakdown"),
        "repro.core.failure": (
            "ExponentialFailure", "FailureModel", "NonStationaryFailure",
            "WeibullFailure", "failure_rate_from_platform",
        ),
        "repro.core.mission": (
            "JPG100_BYTES_PER_PIXEL", "CameraModel", "SectorMission",
        ),
        "repro.core.optimizer": ("DistanceOptimizer", "OptimalDecision"),
        "repro.core.planner": (
            "HolisticPlanner", "RendezvousPlan", "RendezvousPlanner",
        ),
        "repro.core.scenario": (
            "Scenario", "airplane_scenario", "quadrocopter_scenario",
        ),
        "repro.core.schedule": (
            "DeliveryRound", "MissionSchedule", "MultiBatchScheduler",
        ),
        "repro.core.strategies": (
            "HoverAndTransmit", "MixedStrategy", "MoveAndTransmit",
            "StrategyOutcome", "transmit_now",
        ),
        "repro.core.throughput": (
            "MIN_THROUGHPUT_BPS", "LogFitThroughput", "SpeedScaledThroughput",
            "TableThroughput", "ThroughputModel",
        ),
        "repro.core.utility": (
            "DelayedGratificationUtility", "UtilityBreakdown",
        ),
    },
    "repro.obs": {
        "repro.obs.context": ("ObsContext",),
        "repro.obs.events": ("Event", "EventLog"),
        "repro.obs.manifest": (
            "MANIFEST_SCHEMA_VERSION", "ManifestSchemaError", "RunManifest",
            "git_revision",
        ),
        "repro.obs.metrics": (
            "Counter", "Gauge", "Histogram", "MetricsRegistry",
            "metric_name_mismatches",
        ),
        "repro.obs.summarize": (
            "summarize_manifest", "summarize_manifest_file",
        ),
        "repro.obs.trace": ("Span", "SpanHandle", "Tracer"),
    },
}

#: ``repro.__all__`` as it stood before the re-exports went lazy.
ROOT_ALL = [
    "BatchResult", "BatchSolverEngine", "CommunicationDelayModel",
    "DelayedGratificationUtility", "DistanceOptimizer", "ExponentialFailure",
    "FaultPlan", "FaultSpec", "HoverAndTransmit", "LogFitThroughput",
    "MixedStrategy", "MoveAndTransmit", "MultiBatchScheduler",
    "OptimalDecision", "RunResult", "Scenario", "TableThroughput",
    "__version__", "airplane_scenario", "chaos", "default_engine",
    "quadrocopter_scenario", "scenario", "sensitivity", "solve",
    "solve_batch", "sweep", "transmit_now", "utility_curve",
]

EXPORTS = [
    (package, module, name)
    for package, sources in SURFACE.items()
    for module, names in sources.items()
    for name in names
]


def test_root_all_is_pinned():
    assert sorted(repro.__all__) == ROOT_ALL
    assert len(ROOT_ALL) == 29


@pytest.mark.parametrize("package", sorted(SURFACE))
def test_all_matches_the_pinned_surface(package):
    pkg = importlib.import_module(package)
    pinned = {name for names in SURFACE[package].values() for name in names}
    assert set(pkg.__all__) - {"__version__"} == pinned
    assert len(pkg.__all__) == len(set(pkg.__all__))


@pytest.mark.parametrize(
    "package,module,name",
    EXPORTS,
    ids=[f"{p}.{n}" for p, _, n in EXPORTS],
)
def test_export_is_the_defining_modules_object(package, module, name):
    pkg = importlib.import_module(package)
    expected = getattr(importlib.import_module(module), name)
    assert getattr(pkg, name) is expected
    # Call the loader directly too: an earlier access may have cached
    # the name, which would skip ``__getattr__`` above.
    try:
        served = pkg.__getattr__(name)
    except AttributeError:  # imported eagerly; never reaches the loader
        return
    assert served is expected


@pytest.mark.parametrize("package", sorted(SURFACE))
def test_dir_lists_all_and_unknown_names_raise(package):
    pkg = importlib.import_module(package)
    assert set(pkg.__all__) <= set(dir(pkg))
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        getattr(pkg, "not_a_name")
    assert not hasattr(pkg, "not_a_name")


def test_star_import_in_a_fresh_process():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    code = (
        "import json\n"
        "from repro.measurements import *\n"
        "import repro.measurements as pkg\n"
        "print(json.dumps(sorted(n for n in pkg.__all__"
        " if globals().get(n) is not getattr(pkg, n))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []

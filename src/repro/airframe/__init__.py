"""UAV platforms, kinematics, batteries, and autopilot navigation.

Only the platform specs load with the package (the Eq. 2 scenarios
need them); every other name resolves on first access (PEP 562
``__getattr__``), so the solver path never imports the simulator and
geometry layers behind :mod:`.autopilot`.
"""

from .platform import AIRPLANE, PLATFORMS, QUADROCOPTER, PlatformSpec, get_platform

__all__ = [
    "Autopilot",
    "AutopilotMode",
    "Uav",
    "Battery",
    "BatteryDepleted",
    "PointMassDynamics",
    "PointMassState",
    "AIRPLANE",
    "PLATFORMS",
    "QUADROCOPTER",
    "PlatformSpec",
    "get_platform",
]


def __getattr__(name: str):
    # Literal relative imports keep each edge in the RL108 import graph.
    if name in ("Autopilot", "AutopilotMode", "Uav"):
        from . import autopilot as source
    elif name in ("Battery", "BatteryDepleted"):
        from . import battery as source
    elif name in ("PointMassDynamics", "PointMassState"):
        from . import dynamics as source
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(source, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})

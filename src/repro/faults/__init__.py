"""Deterministic fault injection for the reproduction.

The paper prices failure analytically (the Eq.-1 discount); this
package makes the simulator *experience* it: declarative
:class:`FaultPlan` objects, compiled :class:`OutageSchedule` twins the
link engines consume, a kernel-driven :class:`FaultInjector`, and the
end-to-end :func:`run_chaos` runner behind ``repro chaos``.

Only :mod:`.plan` loads with the package (``repro.api`` needs
:class:`FaultPlan`).  Every other name resolves on first access (PEP
562 ``__getattr__``), so the solver path never imports the link stack;
:mod:`.chaos` could not load eagerly in any case, since it imports
``repro.api``, which imports this package.

See ``docs/ROBUSTNESS.md`` for the fault taxonomy and the determinism
guarantees.
"""

from .plan import FAULT_KINDS, FaultPlan, FaultSpec

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "OutageSchedule",
    "BatchOutageSchedule",
    "FaultInjector",
    "sample_crash_distance_m",
    "sample_crash_distance_for_platform",
    "ExponentialBackoff",
    "RetryPolicy",
    "ChaosResult",
    "run_chaos",
]


def __getattr__(name: str):
    # Literal relative imports keep each edge in the RL108 import graph.
    if name in ("ExponentialBackoff", "RetryPolicy"):
        from ..net import retry as source
    elif name in (
        "FaultInjector",
        "sample_crash_distance_m",
        "sample_crash_distance_for_platform",
    ):
        from . import injector as source
    elif name in ("OutageSchedule", "BatchOutageSchedule"):
        from . import outage as source
    elif name in ("ChaosResult", "run_chaos"):
        from . import chaos as source
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(source, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})

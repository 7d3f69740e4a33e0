"""repro — reproduction of "Now or Later? Delaying Data Transfer in
Time-Critical Aerial Communication" (Asadpour et al., CoNEXT 2013).

The package is organised bottom-up:

* :mod:`repro.sim` — discrete-event kernel, RNG streams, monitors.
* :mod:`repro.geo` — coordinates, Haversine, trajectories, GPS noise.
* :mod:`repro.airframe` — UAV platforms, dynamics, autopilot, battery.
* :mod:`repro.channel` — aerial path loss, fading, link budget.
* :mod:`repro.phy` — 802.11n MCS table, error model, rate control.
* :mod:`repro.mac` — DCF, A-MPDU aggregation, block ACK.
* :mod:`repro.net` — link engine, UDP transfers, iperf meter.
* :mod:`repro.control` — XBee control channel, ground station.
* :mod:`repro.measurements` — simulated campaigns, fits, paper data.
* :mod:`repro.core` — the delayed-gratification model (the paper's
  contribution): Cdelay, utility, optimiser, strategies, scenarios.
* :mod:`repro.engine` — fleet-scale batch solver: vectorised Eq. 2 in
  serial chunked passes, memoised scalar solves.
* :mod:`repro.relay` — multi-hop relay chains: per-hop now-or-ship
  decisions, store-and-forward transfers, outage campaigns.
* :mod:`repro.mission` — end-to-end sector-sweep missions, ferry
  transfers and delivery policies.
* :mod:`repro.faults` — deterministic fault injection: plans, outage
  schedules, the kernel injector, the ``repro chaos`` runner.
* :mod:`repro.exec` — the process-wide worker pool behind campaigns
  (result-neutral by contract).
* :mod:`repro.store` — the persistent content-addressed result store
  and incremental sweeps.
* :mod:`repro.obs` — tracing, metrics, events and run manifests.
* :mod:`repro.api` — the stable public façade (start here).
* :mod:`repro.experiments` — regenerators for every table and figure.
* :mod:`repro.analysis` — ``reprolint``, the AST-based checker of the
  tree's domain invariants (``repro lint``).

Only :mod:`repro.api` loads with the package; the legacy model names
re-exported from :mod:`repro.core` resolve on first access (PEP 562
``__getattr__``).  The subpackages on the solver path re-export the
same way, so a cold ``repro solve`` imports only the modules it runs.

Quickstart::

    from repro import airplane_scenario, solve
    decision = solve(airplane_scenario())
    print(decision.distance_m, decision.utility)

Fleet-scale::

    from repro import airplane_scenario, sweep
    result = sweep(airplane_scenario(), "mdata_mb", range(5, 50))
    print(result.distance_m)  # one NumPy array, one vectorised pass
"""

from .api import (
    BatchResult,
    BatchSolverEngine,
    FaultPlan,
    FaultSpec,
    OptimalDecision,
    RunResult,
    Scenario,
    airplane_scenario,
    chaos,
    default_engine,
    quadrocopter_scenario,
    scenario,
    solve,
    solve_batch,
    sweep,
    utility_curve,
)

__version__ = "1.3.0"

__all__ = [
    # Stable façade (repro.api)
    "BatchResult",
    "BatchSolverEngine",
    "FaultPlan",
    "FaultSpec",
    "OptimalDecision",
    "RunResult",
    "Scenario",
    "airplane_scenario",
    "chaos",
    "default_engine",
    "quadrocopter_scenario",
    "scenario",
    "solve",
    "solve_batch",
    "sweep",
    "utility_curve",
    # Model building blocks (legacy surface, kept for compatibility)
    "CommunicationDelayModel",
    "DelayedGratificationUtility",
    "DistanceOptimizer",
    "ExponentialFailure",
    "HoverAndTransmit",
    "LogFitThroughput",
    "MixedStrategy",
    "MoveAndTransmit",
    "MultiBatchScheduler",
    "TableThroughput",
    "sensitivity",
    "transmit_now",
    "__version__",
]


def __getattr__(name: str):
    # Literal relative imports keep each edge in the RL108 import graph.
    if name in (
        "CommunicationDelayModel",
        "DelayedGratificationUtility",
        "DistanceOptimizer",
        "ExponentialFailure",
        "HoverAndTransmit",
        "LogFitThroughput",
        "MixedStrategy",
        "MoveAndTransmit",
        "MultiBatchScheduler",
        "TableThroughput",
        "sensitivity",
        "transmit_now",
    ):
        from . import core as source
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(source, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})

"""repro.api — the stable public surface of the reproduction.

Downstream code (the CLI, the examples, external users) should import
from here (or from the package root, which re-exports this module)
rather than from ``repro.core.*`` internals, which may be reorganised
between releases.  The surface is deliberately small:

* :class:`Scenario`, :func:`airplane_scenario`, :func:`quadrocopter_scenario`
  — problem construction, with uniform keyword overrides
  (``mdata_mb=``, ``speed_mps=``, ``rho_per_m=``, ``d0_m=``) and
  :meth:`Scenario.with_` for everything else.
* :func:`solve` — one Eq. 2 instance -> :class:`RunResult` wrapping an
  :class:`OptimalDecision`.
* :func:`solve_batch` — N instances in one vectorised pass ->
  :class:`RunResult` wrapping a :class:`BatchResult`.
* :func:`sweep` — one scenario, one parameter, many values.
* :func:`utility_curve` — the sampled ``U(d)`` curve (Fig. 8 plots).
* :class:`FaultPlan` / :class:`FaultSpec` / :func:`chaos` — deterministic
  fault injection (see :mod:`repro.faults` and ``docs/ROBUSTNESS.md``).

All solving goes through the shared :class:`BatchSolverEngine`, so
repeated instances are memoised process-wide.

Persistent caching
------------------
Every entry point takes ``cache=`` / ``refresh=``.  ``cache`` may be a
:class:`~repro.store.ResultStore`, ``True`` (the default store under
``REPRO_CACHE_DIR`` / ``~/.cache/repro``), ``False`` (never), or
``None`` (the default: opt in via ``REPRO_CACHE_DIR`` or
``REPRO_CACHE=1``; ``REPRO_NO_CACHE=1`` wins).  With a store active,
requested points are partitioned into cached and missing, only the
missing ones are dispatched to the engine, and results merge back in
request order — a fully warm run is bit-identical to the cold run that
populated the store.  ``refresh=True`` recomputes and overwrites.
See docs/PERFORMANCE.md ("Result store & incremental sweeps").

Results and the RunResult envelope
----------------------------------
Every entry point returns a versioned :class:`RunResult` envelope, and
nothing else: ``.outputs`` holds the underlying object
(:class:`OptimalDecision`, :class:`BatchResult`,
:class:`~repro.faults.chaos.ChaosResult`,
:class:`~repro.relay.solver.RelayDecision`), ``.manifest`` a
:class:`~repro.obs.RunManifest` (config echo, seeds, git rev, and —
when ``obs=`` was passed — metrics, trace and events).  The envelope
*delegates* attribute access, indexing and iteration to its outputs,
so call sites such as ``solve(s).distance_m`` or
``for d in solve_batch(...)`` read it directly; callers that need the
bare object read ``.outputs``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

from .core.optimizer import OptimalDecision
from .core.scenario import Scenario, airplane_scenario, quadrocopter_scenario
from .engine import BatchResult, BatchSolverEngine, default_engine
from .faults.plan import FaultPlan, FaultSpec
from .obs import ObsContext, RunManifest

__all__ = [
    "BatchResult",
    "BatchSolverEngine",
    "FaultPlan",
    "FaultSpec",
    "OptimalDecision",
    "RunResult",
    "Scenario",
    "airplane_scenario",
    "quadrocopter_scenario",
    "chaos",
    "default_engine",
    "scenario",
    "solve",
    "solve_batch",
    "solve_relay",
    "sweep",
    "utility_curve",
]

#: Bumped on any backwards-incompatible change to the envelope layout.
RESULT_SCHEMA_VERSION = 1


class RunResult:
    """Versioned envelope around one run's outputs plus its manifest.

    Attribute access, ``len()``, iteration and indexing all delegate to
    ``.outputs``, so an envelope is a drop-in replacement at existing
    call sites.  The envelope-level surface is deliberately tiny:

    * ``kind`` — ``"solve"`` / ``"solve_batch"`` / ``"sweep"`` /
      ``"chaos"``;
    * ``outputs`` — the wrapped result object;
    * ``scenario`` — echo of the solved scenario (None for chaos);
    * ``manifest`` — the :class:`~repro.obs.RunManifest` of the run;
    * ``schema_version`` — :data:`RESULT_SCHEMA_VERSION`.
    """

    __slots__ = ("kind", "outputs", "scenario", "manifest")

    schema_version = RESULT_SCHEMA_VERSION

    def __init__(
        self,
        kind: str,
        outputs,
        manifest: RunManifest,
        scenario: Optional[Scenario] = None,
    ) -> None:
        self.kind = kind
        self.outputs = outputs
        self.manifest = manifest
        self.scenario = scenario

    # -- delegation: the envelope behaves like its outputs -------------
    def __getattr__(self, name: str):
        # Only called for names not found on the envelope itself.
        return getattr(self.outputs, name)

    def __len__(self) -> int:
        return len(self.outputs)

    def __iter__(self) -> Iterator:
        return iter(self.outputs)

    def __getitem__(self, index):
        return self.outputs[index]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RunResult(kind={self.kind!r}, "
            f"outputs={type(self.outputs).__name__}, "
            f"schema_version={self.schema_version})"
        )


def _scenario_config(scn: Scenario) -> Dict[str, object]:
    """The manifest's config echo for one scenario."""
    return {
        "scenario": scn.name,
        "mdata_mb": scn.data_megabytes,
        "speed_mps": scn.cruise_speed_mps,
        "rho_per_m": scn.failure_rate_per_m,
        "d0_m": scn.contact_distance_m,
    }


def _batch_outputs(result: BatchResult) -> Dict[str, object]:
    """Bounded outputs summary for batch manifests.

    Full per-row dumps are kept only for small batches; large fleets
    get deterministic aggregates (a 100k-row sweep should not produce
    a 100k-row manifest).
    """
    outputs: Dict[str, object] = {"n": len(result)}
    if len(result):
        outputs["distance_m"] = {
            "min": float(result.distance_m.min()),
            "max": float(result.distance_m.max()),
            "mean": float(result.distance_m.mean()),
        }
        outputs["utility"] = {
            "min": float(result.utility.min()),
            "max": float(result.utility.max()),
        }
    if len(result) <= 32:
        outputs["decisions"] = result.to_dicts()
    return outputs

def _resolve_store(cache):
    """Map the public ``cache=`` knob onto a store (lazy import)."""
    from .store import resolve_store

    return resolve_store(cache)


_BASELINES = {
    "airplane": airplane_scenario,
    "quadrocopter": quadrocopter_scenario,
}


def scenario(
    name: str,
    *,
    mdata_mb: Optional[float] = None,
    speed_mps: Optional[float] = None,
    rho_per_m: Optional[float] = None,
    d0_m: Optional[float] = None,
) -> Scenario:
    """A baseline scenario by name with optional parameter overrides."""
    try:
        factory = _BASELINES[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(_BASELINES)}"
        ) from None
    return factory(
        mdata_mb=mdata_mb, speed_mps=speed_mps, rho_per_m=rho_per_m, d0_m=d0_m
    )


def solve(
    scenario: Scenario,
    engine: Optional[BatchSolverEngine] = None,
    obs: Optional[ObsContext] = None,
    cache=None,
    refresh: bool = False,
) -> RunResult:
    """Solve Eq. 2 for one scenario (memoised).

    Returns a :class:`RunResult` delegating to the solved
    :class:`OptimalDecision`.  ``obs`` collects spans/metrics/events
    into the manifest.  ``cache``/``refresh`` control the persistent
    result store (see the module docstring).
    """
    eng = engine or default_engine()
    store = _resolve_store(cache)
    if store is not None:
        from .store import solve_incremental

        decision, _ = solve_incremental(
            eng, scenario, store, obs=obs, refresh=refresh
        )
    else:
        decision = eng.solve(scenario, obs=obs)
    manifest = RunManifest.build(
        kind="solve",
        config=_scenario_config(scenario),
        outputs=decision.to_dict(),
        obs=obs,
    )
    return RunResult("solve", decision, manifest, scenario=scenario)


def solve_batch(
    scenarios: Iterable[Scenario],
    engine: Optional[BatchSolverEngine] = None,
    obs: Optional[ObsContext] = None,
    cache=None,
    refresh: bool = False,
) -> RunResult:
    """Solve Eq. 2 for a fleet of scenarios in serial vectorised passes.

    Returns a :class:`RunResult` delegating to the
    :class:`BatchResult` (iteration/indexing included).
    ``cache``/``refresh`` control the persistent result store (see the
    module docstring).
    """
    eng = engine or default_engine()
    store = _resolve_store(cache)
    if store is not None:
        from .store import solve_batch_incremental

        result, _ = solve_batch_incremental(
            eng, scenarios, store, obs=obs, refresh=refresh
        )
    else:
        result = eng.solve_batch(scenarios, obs=obs)
    manifest = RunManifest.build(
        kind="solve_batch",
        config={"n": len(result)},
        outputs=_batch_outputs(result),
        obs=obs,
    )
    return RunResult("solve_batch", result, manifest)


def sweep(
    scenario: Scenario,
    param: str,
    values: Iterable[float],
    engine: Optional[BatchSolverEngine] = None,
    obs: Optional[ObsContext] = None,
    cache=None,
    refresh: bool = False,
) -> RunResult:
    """Solve ``scenario`` with one parameter swept over ``values``.

    ``param`` accepts the same names as :meth:`Scenario.with_`:
    ``mdata_mb``, ``speed_mps``, ``rho_per_m``, ``d0_m``, or any raw
    ``Scenario`` field.  Returns a :class:`RunResult` delegating to the
    :class:`BatchResult`.  ``cache``/``refresh`` control the persistent
    result store (see the module docstring).
    """
    eng = engine or default_engine()
    store = _resolve_store(cache)
    if store is not None:
        from .store import sweep_incremental

        result, _ = sweep_incremental(
            eng, scenario, param, values, store, obs=obs, refresh=refresh
        )
    else:
        result = eng.sweep(scenario, param, values, obs=obs)
    manifest = RunManifest.build(
        kind="sweep",
        config={**_scenario_config(scenario), "param": param},
        outputs=_batch_outputs(result),
        obs=obs,
    )
    return RunResult("sweep", result, manifest, scenario=scenario)


def _chaos_store_key(
    plan: FaultPlan, scenario_name: str, seed: int, kwargs: Dict[str, object]
) -> Optional[str]:
    """The store key for one chaos run, or ``None`` if uncacheable.

    Uncacheable means some kwarg does not serialise canonically (e.g. a
    NumPy scalar where a plain ``int`` belongs).
    """
    import dataclasses

    from .store import CHAOS_CODE_MODULES, config_key

    extras: Dict[str, object] = {}
    for name, value in kwargs.items():
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            extras[name] = dataclasses.asdict(value)
        elif value is None or isinstance(value, (bool, int, float, str)):
            extras[name] = value
        else:
            return None
    return config_key(
        "chaos.run",
        {
            "plan": plan.to_dict(),
            "scenario": scenario_name,
            "seed": seed,
            "kwargs": extras,
        },
        CHAOS_CODE_MODULES,
    )


def chaos(
    plan: FaultPlan,
    scenario_name: str = "quadrocopter",
    seed: int = 1,
    obs: Optional[ObsContext] = None,
    cache=None,
    refresh: bool = False,
    **kwargs,
) -> RunResult:
    """Run one solved mission under a fault plan (see ``repro chaos``).

    Thin façade over :func:`repro.faults.chaos.run_chaos` (imported
    lazily — the chaos runner pulls in the mission layer, which itself
    imports this module).  Identical inputs yield identical results,
    and an empty plan reproduces the plain transfer pipeline bit for
    bit.

    Returns a :class:`RunResult` delegating to the
    :class:`~repro.faults.chaos.ChaosResult`; its manifest serialises
    through the same builder as ``repro chaos --json``, so CLI and
    library bytes agree.  ``obs`` defaults to a fresh *deterministic*
    context (chaos runs carry a replay byte-identity guarantee, so a
    wall-clocked tracer would be a contract violation).
    """
    from .faults.chaos import ChaosResult, chaos_manifest, run_chaos

    # Caching is gated on the *default* obs path: a caller-supplied
    # context expects to observe a live run, and a cached replay cannot
    # retroactively fill it.  With the default deterministic context
    # the full manifest (obs sections included) is stored alongside the
    # result, so a warm chaos run is byte-identical to the cold one —
    # the replay contract survives caching.
    store = key = None
    if obs is None:
        store = _resolve_store(cache)
        obs = ObsContext.enabled(deterministic=True)
    if store is not None:
        key = _chaos_store_key(plan, scenario_name, seed, kwargs)
    if key is not None and not refresh:
        entry = store.get(key)
        if entry is not None:
            body, _ = entry
            try:
                result = ChaosResult.from_dict(body["result"])
                manifest = RunManifest.from_dict(body["manifest"])
            except (KeyError, TypeError, ValueError):
                pass  # malformed entry: fall through to a live run
            else:
                return RunResult("chaos", result, manifest)
    result = run_chaos(
        plan, scenario_name=scenario_name, seed=seed, obs=obs, **kwargs
    )
    manifest = chaos_manifest(result, plan, obs=obs)
    if key is not None:
        store.put(
            key,
            {"result": result.to_dict(), "manifest": manifest.to_dict()},
        )
    return RunResult("chaos", result, manifest)


def _relay_store_key(chain, engine: BatchSolverEngine) -> Optional[str]:
    """The store key for one relay solve, or ``None`` if uncacheable.

    Uncacheable means some hop's throughput law cannot describe itself
    (:meth:`~repro.relay.chain.RelayChain.cache_key` returns ``None``).
    The engine's grid settings join the config because they shape the
    solved distances exactly as they do for single-link entries.
    """
    from .store import RELAY_CODE_MODULES, config_key

    chain_key = chain.cache_key()
    if chain_key is None:
        return None
    return config_key(
        "relay.solve",
        {
            "chain": chain_key,
            "grid_step_m": engine.grid_step_m,
            "refine_tolerance_m": engine.refine_tolerance_m,
        },
        RELAY_CODE_MODULES,
    )


def solve_relay(
    chain,
    engine: Optional[BatchSolverEngine] = None,
    obs: Optional[ObsContext] = None,
    cache=None,
    refresh: bool = False,
) -> RunResult:
    """Solve a relay chain's per-hop now-vs-ship decisions.

    Thin façade over :class:`repro.relay.solver.RelaySolver` (imported
    lazily).  Returns a :class:`RunResult` delegating to the
    :class:`~repro.relay.solver.RelayDecision`; its manifest serialises
    through the same builder as ``repro relay --json``, so CLI and
    library bytes agree.  ``obs`` defaults to a fresh *deterministic*
    context — like chaos runs, relay solves carry a replay
    byte-identity guarantee, which is also what lets the full manifest
    be cached alongside the result: a warm run returns bytes identical
    to the cold run that populated the store.
    """
    from .relay.solver import RelayDecision, RelaySolver, relay_manifest

    eng = engine or default_engine()
    store = key = None
    if obs is None:
        store = _resolve_store(cache)
        obs = ObsContext.enabled(deterministic=True)
    if store is not None:
        key = _relay_store_key(chain, eng)
    if key is not None and not refresh:
        entry = store.get(key)
        if entry is not None:
            body, _ = entry
            try:
                result = RelayDecision.from_dict(body["result"])
                manifest = RunManifest.from_dict(body["manifest"])
            except (KeyError, TypeError, ValueError):
                pass  # malformed entry: fall through to a live run
            else:
                return RunResult("relay", result, manifest)
    result = RelaySolver(eng).solve(chain, obs=obs)
    manifest = relay_manifest(result, chain, obs=obs)
    if key is not None:
        store.put(
            key,
            {"result": result.to_dict(), "manifest": manifest.to_dict()},
        )
    return RunResult("relay", result, manifest)


def utility_curve(
    scenario: Scenario,
    n_points: int = 200,
    engine: Optional[BatchSolverEngine] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(distances, U(d))`` sampled across the feasible range (Fig. 8)."""
    distances, utilities = (engine or default_engine()).utility_curves(
        [scenario], n_points=n_points
    )
    return distances[0], utilities[0]

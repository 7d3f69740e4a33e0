"""Command-line interface: ``python -m repro <command>``.

Commands
--------
solve       Solve Eq. 2 for a baseline scenario (with overrides).
sweep       Solve one scenario with one parameter swept over a range.
experiment  Regenerate one of the paper's tables/figures.
mission     Run the end-to-end SAR mission policy comparison.
validate    Re-check the channel calibration against the paper's fits.
bench       Time the replica-batched campaign engine vs the scalar one.
chaos       Run a solved mission under a deterministic fault plan.
cache       Persistent result-store maintenance (stats/gc/clear/verify).
obs         Observability utilities (``obs summarize`` digests manifests).
lint        Run the reprolint domain-invariant checkers (RL101-RL111).

``solve``, ``sweep``, ``experiment``, ``bench``, ``chaos`` and ``lint``
accept ``--json`` for machine-readable output.  ``bench --json`` and
``chaos --json`` print a :class:`~repro.obs.RunManifest` — the same
bytes the library emits via ``manifest.to_json()``, plus a
``created_unix_s`` provenance stamp added here at the CLI boundary
(via :data:`repro.perf.unix_clock`; the library manifest itself stays
unstamped so replays below the CLI remain byte-identical).  ``chaos
--json`` is replay-deterministic modulo that one stamp.  ``solve``
additionally takes ``--trace`` (span digest) and ``--metrics-out
FILE`` (write the run manifest); see docs/OBSERVABILITY.md,
docs/PERFORMANCE.md, docs/ROBUSTNESS.md and docs/STATIC_ANALYSIS.md.

``solve``, ``sweep``, ``bench``, ``chaos`` and ``relay`` take
``--no-cache`` / ``--refresh`` to control the persistent result store
(opt-in via ``REPRO_CACHE_DIR`` / ``REPRO_CACHE=1``; see
docs/PERFORMANCE.md, "Result store & incremental sweeps").  ``lint
--sarif FILE`` writes a SARIF 2.1.0 log for CI inline annotation and
``lint --changed`` reports only on git-modified files.

``sweep``, ``bench``, ``chaos`` and ``relay`` take the
global ``--jobs N`` / ``--serial`` flags, which point the shared
execution backend (:mod:`repro.exec`) at a worker count or force the
in-process path for the whole command.  Results are byte-identical
either way — the flags only trade wall-clock for process count.

The CLI talks to the library exclusively through the stable
:mod:`repro.api` façade — no ``repro.core`` internals.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any, List, Optional

from .api import Scenario, scenario as make_scenario

__all__ = ["main", "build_parser"]

EXPERIMENTS = (
    "fig1", "fig2", "table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig_relay",
)


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    """``--no-cache`` / ``--refresh`` for store-aware commands."""
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent result store for this run",
    )
    parser.add_argument(
        "--refresh", action="store_true",
        help="recompute even on a store hit and overwrite the entry",
    )


def _cache_kwargs(args: argparse.Namespace) -> dict:
    """The ``cache=``/``refresh=`` kwargs one command forwards to the API."""
    return {
        "cache": False if args.no_cache else None,
        "refresh": args.refresh,
    }


def _add_exec_flags(parser: argparse.ArgumentParser) -> None:
    """``--jobs`` / ``--serial`` for commands that fan work out."""
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the shared execution backend "
             "(default: REPRO_EXEC_WORKERS or the CPU count; 1 = one "
             "worker, still pooled)",
    )
    parser.add_argument(
        "--serial", action="store_true",
        help="run everything in-process, bypassing the worker pool "
             "(results are byte-identical either way)",
    )


def _configure_exec(args: argparse.Namespace) -> None:
    """Point :mod:`repro.exec` at this command's ``--jobs``/``--serial``."""
    from . import exec as exec_backend

    exec_backend.configure(
        workers=getattr(args, "jobs", None),
        serial=bool(getattr(args, "serial", False)),
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Now or Later? Delaying Data Transfer in "
            "Time-Critical Aerial Communication' (CoNEXT 2013)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser(
        "solve", help="solve the delayed-gratification problem (Eq. 2)"
    )
    solve.add_argument(
        "scenario", choices=("airplane", "quadrocopter"),
        help="baseline scenario (paper Section 4)",
    )
    solve.add_argument("--mdata-mb", type=float, help="override Mdata in MB")
    solve.add_argument("--speed", type=float, help="override cruise speed (m/s)")
    solve.add_argument("--rho", type=float, help="override failure rate (1/m)")
    solve.add_argument("--d0", type=float, help="override contact distance (m)")
    solve.add_argument(
        "--sensitivity",
        action="store_true",
        help="also report how a 10%% parameter change moves d_opt",
    )
    solve.add_argument(
        "--json",
        action="store_true",
        help="emit the decision as one JSON object instead of text",
    )
    solve.add_argument(
        "--trace",
        action="store_true",
        help="collect a wall-clocked span trace and print its digest",
    )
    solve.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write the run manifest (config, seeds, git rev, metrics, "
             "trace) as JSON to FILE",
    )
    _add_cache_flags(solve)

    sweep = sub.add_parser(
        "sweep",
        help="solve one scenario with one parameter swept over a range",
    )
    sweep.add_argument(
        "scenario", choices=("airplane", "quadrocopter"),
        help="baseline scenario (paper Section 4)",
    )
    sweep.add_argument(
        "--param", required=True, metavar="NAME",
        help="parameter to sweep: mdata_mb, speed_mps, rho_per_m, d0_m "
             "or any raw Scenario field",
    )
    sweep.add_argument(
        "--values", default=None, metavar="V1,V2,...",
        help="explicit comma-separated sweep values",
    )
    sweep.add_argument(
        "--linspace", nargs=3, type=float, default=None,
        metavar=("START", "STOP", "N"),
        help="N evenly spaced values from START to STOP",
    )
    sweep.add_argument(
        "--geomspace", nargs=3, type=float, default=None,
        metavar=("START", "STOP", "N"),
        help="N geometrically spaced values from START to STOP",
    )
    sweep.add_argument("--mdata-mb", type=float, help="override Mdata in MB")
    sweep.add_argument("--speed", type=float,
                       help="override cruise speed (m/s)")
    sweep.add_argument("--rho", type=float, help="override failure rate (1/m)")
    sweep.add_argument("--d0", type=float,
                       help="override contact distance (m)")
    sweep.add_argument(
        "--json", action="store_true",
        help="print the run manifest as one JSON object",
    )
    sweep.add_argument(
        "--manifest-out", metavar="FILE", default=None,
        help="write the run manifest to FILE (no obs sections, so "
             "identical sweeps write identical bytes — warm or cold)",
    )
    sweep.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="collect deterministic obs (engine.* and store.* counters) "
             "and write the obs-bearing manifest to FILE",
    )
    _add_cache_flags(sweep)
    _add_exec_flags(sweep)

    experiment = sub.add_parser(
        "experiment", help="regenerate one of the paper's tables/figures"
    )
    experiment.add_argument("name", choices=EXPERIMENTS + ("all",))
    experiment.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON object per solved decision instead of text",
    )

    mission = sub.add_parser(
        "mission", help="end-to-end SAR mission policy comparison"
    )
    mission.add_argument("--episodes", type=int, default=15)
    mission.add_argument("--seed", type=int, default=3)
    mission.add_argument("--rho", type=float, default=3e-3,
                         help="failure rate during delivery (1/m)")

    sub.add_parser(
        "validate", help="re-check the channel calibration vs the paper"
    )

    bench = sub.add_parser(
        "bench",
        help="benchmark the replica-batched campaign engine",
    )
    bench.add_argument(
        "--profile", default="airplane",
        choices=("airplane", "quadrocopter", "indoor"),
    )
    bench.add_argument(
        "--controller", default="arf",
        help="controller spec: arf, oracle or fixed:<mcs> (default: arf)",
    )
    bench.add_argument(
        "--distances", type=float, nargs="+",
        default=[80.0, 160.0, 240.0], metavar="M",
    )
    bench.add_argument("--replicas", type=int, default=64,
                       help="replicas per distance (default: 64)")
    bench.add_argument("--duration", type=float, default=40.0,
                       help="seconds of simulated traffic (default: 40)")
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument(
        "--scalar-replicas", type=int, default=None, metavar="N",
        help="time the scalar baseline on N replicas and extrapolate "
             "(default: full count)",
    )
    bench.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON report with timings and campaign metrics",
    )
    _add_cache_flags(bench)
    _add_exec_flags(bench)

    chaos = sub.add_parser(
        "chaos",
        help="run a solved mission under a deterministic fault plan",
    )
    chaos.add_argument(
        "scenario", nargs="?", default="quadrocopter",
        choices=("airplane", "quadrocopter"),
        help="baseline scenario (default: quadrocopter)",
    )
    chaos.add_argument(
        "--plan", metavar="FILE", default=None,
        help="FaultPlan JSON document (schema: docs/ROBUSTNESS.md)",
    )
    chaos.add_argument(
        "--outage", action="append", metavar="START:DURATION", default=None,
        help="inject one link-outage window (seconds); repeatable",
    )
    chaos.add_argument(
        "--node-loss", type=float, default=None, metavar="T",
        help="lose the carrier node at T seconds (checkpoint + re-solve)",
    )
    chaos.add_argument("--seed", type=int, default=1)
    chaos.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="mission deadline in seconds (default: none)",
    )
    chaos.add_argument(
        "--controller", default="arf",
        help="controller spec: arf, oracle or fixed:<mcs> (default: arf)",
    )
    chaos.add_argument(
        "--idle-timeout", type=float, default=2.0, metavar="S",
        help="checkpoint after S seconds without progress (default: 2)",
    )
    chaos.add_argument(
        "--max-resumes", type=int, default=8,
        help="resume budget before giving up (default: 8)",
    )
    chaos.add_argument(
        "--json",
        action="store_true",
        help="emit the deterministic chaos report as one JSON object",
    )
    _add_cache_flags(chaos)
    _add_exec_flags(chaos)

    relay = sub.add_parser(
        "relay",
        help="solve per-hop now-vs-ship decisions for a relay chain",
    )
    relay.add_argument(
        "--hops", default="quadrocopter,airplane", metavar="A,B,...",
        help="comma-separated hop scenarios, source first "
             "(default: quadrocopter,airplane)",
    )
    relay.add_argument(
        "--handoff", type=float, default=5.0, metavar="S",
        help="hand-off overhead per relay boundary in seconds (default: 5)",
    )
    relay.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="end-to-end delivery deadline in seconds (default: none)",
    )
    relay.add_argument(
        "--mdata-mb", type=float, default=None, metavar="MB",
        help="payload carried through the chain (default: first hop's)",
    )
    relay.add_argument(
        "--json",
        action="store_true",
        help="emit the relay run manifest as one JSON object",
    )
    _add_cache_flags(relay)
    _add_exec_flags(relay)

    cache = sub.add_parser(
        "cache", help="persistent result-store maintenance"
    )
    cache.add_argument(
        "--dir", default=None, metavar="DIR",
        help="store location (default: REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser(
        "stats", help="entry count, byte totals, cap and location"
    )
    cache_gc = cache_sub.add_parser(
        "gc", help="enforce the size cap now (LRU eviction)"
    )
    cache_gc.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="evict down to N bytes instead of the configured cap",
    )
    cache_sub.add_parser("clear", help="drop every entry")
    cache_verify = cache_sub.add_parser(
        "verify", help="checksum every entry; drop corrupt ones"
    )
    cache_verify.add_argument(
        "--no-repair", action="store_true",
        help="only report corrupt entries, do not drop them "
             "(exit 1 if any found)",
    )

    obs = sub.add_parser(
        "obs", help="observability utilities (run manifests)"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    summarize = obs_sub.add_parser(
        "summarize", help="digest a run-manifest JSON file"
    )
    summarize.add_argument("manifest", metavar="FILE")
    summarize.add_argument(
        "--top", type=int, default=10,
        help="rows shown per section (default: 10)",
    )

    lint = sub.add_parser(
        "lint",
        help="run the reprolint domain-invariant checkers (RL101-RL111)",
    )
    lint.add_argument(
        "--path", default=None, metavar="DIR",
        help="root of the tree to lint (default: the repro package)",
    )
    lint.add_argument(
        "--rule", action="append", dest="rules", metavar="RLxxx",
        help="run only the given rule(s); repeatable",
    )
    lint.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline file of accepted findings "
             "(default: auto-discover .reprolint-baseline.json)",
    )
    lint.add_argument(
        "--no-baseline", action="store_true",
        help="report every finding, ignoring any baseline file",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to accept all current findings",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON report with findings, lint metrics and trace",
    )
    lint.add_argument(
        "--sarif", default=None, metavar="FILE",
        help="also write a SARIF 2.1.0 log (for CI inline annotation)",
    )
    lint.add_argument(
        "--changed", action="store_true",
        help="report findings only for files modified vs git "
             "(full run outside a git checkout)",
    )
    return parser


def _scenario_with_overrides(args: argparse.Namespace) -> Scenario:
    return make_scenario(
        args.scenario,
        mdata_mb=args.mdata_mb,
        speed_mps=args.speed,
        rho_per_m=args.rho,
        d0_m=args.d0,
    )


def _make_obs(args: argparse.Namespace) -> "Any":
    """The solve command's ObsContext, or None when obs is off.

    ``--trace`` wall-clocks the tracer; ``--metrics-out`` alone builds a
    *deterministic* context so the written manifest is byte-identical to
    the one the library produces for the same scenario.
    """
    if not (args.trace or args.metrics_out):
        return None
    from .obs import ObsContext

    return ObsContext.enabled(deterministic=not args.trace)


def _cmd_solve(args: argparse.Namespace) -> int:
    from .api import solve

    scenario = _scenario_with_overrides(args)
    obs = _make_obs(args)
    result = solve(scenario, obs=obs, **_cache_kwargs(args))
    decision = result.outputs
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(result.manifest.to_json())
            handle.write("\n")
    if args.json:
        if args.trace and obs is not None:
            print(_trace_digest(obs), file=sys.stderr)
        payload = {"scenario": scenario.name, **decision.to_dict()}
        if args.sensitivity:
            from . import sensitivity

            report = sensitivity(scenario)
            payload["sensitivity"] = {
                "ddopt_drho_m": float(report.ddopt_drho),
                "ddopt_dspeed_m": float(report.ddopt_dspeed),
                "ddopt_dmdata_m": float(report.ddopt_dmdata),
                "dominant_parameter": report.dominant_parameter(),
            }
        print(json.dumps(payload))
        return 0
    print(f"scenario          : {scenario.name}")
    print(f"Mdata             : {scenario.data_megabytes:.1f} MB")
    print(f"cruise speed      : {scenario.cruise_speed_mps:g} m/s")
    print(f"failure rate      : {scenario.failure_rate_per_m:.3e} /m")
    print(f"contact distance  : {scenario.contact_distance_m:g} m")
    print("-" * 40)
    print(f"optimal distance  : {decision.distance_m:.1f} m")
    print(f"communication delay: {decision.cdelay_s:.1f} s "
          f"(ship {decision.shipping_s:.1f} + tx {decision.transmission_s:.1f})")
    print(f"survival prob.    : {decision.discount:.3f}")
    print(f"utility U(dopt)   : {decision.utility:.4f}")
    print(
        "decision          : "
        + ("transmit immediately" if decision.transmit_immediately
           else "delay gratification (fly closer first)")
    )
    if args.sensitivity:
        from . import sensitivity

        report = sensitivity(scenario)
        print("-" * 40)
        print("sensitivity of d_opt to a 10% parameter change:")
        print(f"  failure rate      : {report.ddopt_drho:+.1f} m")
        print(f"  cruise speed      : {report.ddopt_dspeed:+.1f} m")
        print(f"  data size         : {report.ddopt_dmdata:+.1f} m")
        print(f"  dominant parameter: {report.dominant_parameter()}")
    if args.trace and obs is not None:
        print("-" * 40)
        print(_trace_digest(obs))
    return 0


def _sweep_values(args: argparse.Namespace) -> List[float]:
    """The sweep's value list from exactly one of the three specs."""
    import numpy as np

    specs = [
        spec
        for spec in (args.values, args.linspace, args.geomspace)
        if spec is not None
    ]
    if len(specs) != 1:
        raise SystemExit(
            "sweep: give exactly one of --values, --linspace, --geomspace"
        )
    if args.values is not None:
        try:
            values = [
                float(part)
                for part in args.values.split(",")
                if part.strip()
            ]
        except ValueError:
            raise SystemExit(
                f"sweep: bad --values {args.values!r}: expected "
                "comma-separated numbers"
            ) from None
        if not values:
            raise SystemExit("sweep: --values is empty")
        return values
    start, stop, count = (
        args.linspace if args.linspace is not None else args.geomspace
    )
    n = int(count)
    if n < 1 or n != count:
        raise SystemExit("sweep: N must be a positive integer")
    space = np.linspace if args.linspace is not None else np.geomspace
    return [float(v) for v in space(start, stop, n)]


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .api import sweep

    _configure_exec(args)
    scenario = _scenario_with_overrides(args)
    values = _sweep_values(args)
    obs = None
    if args.metrics_out:
        from .obs import ObsContext

        obs = ObsContext.enabled(deterministic=True)
    result = sweep(
        scenario, args.param, values, obs=obs, **_cache_kwargs(args)
    )
    document = result.manifest.to_json()
    if args.manifest_out:
        # --manifest-out promises obs-free bytes (warm == cold); when
        # --metrics-out forced an obs context in the same invocation,
        # strip the obs sections rather than leak them into both files.
        bare = result.manifest
        if obs is not None:
            bare = dataclasses.replace(
                bare, metrics=None, trace=None, events=None
            )
        with open(args.manifest_out, "w", encoding="utf-8") as handle:
            handle.write(bare.to_json())
            handle.write("\n")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(document)
            handle.write("\n")
    if args.json:
        print(document)
        return 0
    batch = result.outputs
    print(f"scenario          : {scenario.name}")
    print(f"swept parameter   : {args.param} "
          f"({len(values)} value(s), {min(values):g}..{max(values):g})")
    print("-" * 40)
    print(f"optimal distance  : {batch.distance_m.min():.1f}"
          f"..{batch.distance_m.max():.1f} m")
    print(f"utility U(dopt)   : {batch.utility.min():.4f}"
          f"..{batch.utility.max():.4f}")
    return 0


def _trace_digest(obs: "Any") -> str:
    """Per-span-name digest of a wall-clocked trace, for terminals."""
    lines = ["trace:"]
    for name, entry in obs.tracer.summary().items():
        lines.append(
            f"  {name:22s}: {entry['count']} span(s), "
            f"{1e3 * entry['wall_s']:.3f} ms wall"
        )
    return "\n".join(lines)


def _emit_experiment_json(report: Any) -> None:
    """One JSON object per decision found in the report's data tree."""
    from .experiments.base import iter_decisions

    found = False
    for path, decision in iter_decisions(report.data):
        found = True
        print(json.dumps({
            "experiment": report.experiment_id,
            "path": "/".join(path),
            **decision.to_dict(),
        }))
    if not found:
        print(json.dumps({
            "experiment": report.experiment_id,
            "title": report.title,
            "decisions": 0,
        }))


def _cmd_experiment(args: argparse.Namespace) -> int:
    from . import experiments

    if args.name == "all":
        for report in experiments.run_all():
            if args.json:
                _emit_experiment_json(report)
            else:
                report.print()
                print()
        return 0
    module = getattr(experiments, args.name)
    report = module.run()
    if args.json:
        _emit_experiment_json(report)
    else:
        report.print()
    return 0


def _cmd_mission(args: argparse.Namespace) -> int:
    from .mission import POLICIES, SarMissionSim

    sim = SarMissionSim(seed=args.seed, failure_rate_per_m=args.rho)
    print(f"{'policy':12s} {'delivered':>10s} {'delay(s)':>9s} "
          f"{'crashes':>8s} {'U':>8s}")
    for policy in POLICIES:
        summary = sim.run(policy, n_episodes=args.episodes)
        print(
            f"{policy:12s} {100 * summary.mean_delivered_fraction:9.0f}% "
            f"{summary.mean_communication_delay_s:9.1f} "
            f"{100 * summary.failure_rate:7.0f}% "
            f"{summary.mean_realized_utility:8.4f}"
        )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .measurements.validate import validate_calibration

    report = validate_calibration()
    for line in report.summary_lines():
        print(line)
    if report.all_passed:
        print("calibration OK: the simulator matches the paper's fits")
        return 0
    print("calibration DRIFTED: see failures above", file=sys.stderr)
    return 1


def bench_report(
    config: "Any",
    parallel: Optional[bool] = None,
    scalar_replicas: Optional[int] = None,
    obs: "Any" = None,
    cache=None,
    refresh: bool = False,
) -> dict:
    """Run the batched campaign and its scalar baseline; report timings.

    Shared by ``repro bench`` and the benchmark suite so both emit the
    same JSON shape: workload parameters, wall-clock for both engines,
    the speedup and per-distance medians (see docs/PERFORMANCE.md).
    ``obs`` collects campaign spans and metrics — including the channel
    memo-hit counters — across both runs (see :func:`bench_manifest`).
    ``cache``/``refresh`` control the persistent result store for the
    batched campaign (the scalar baseline always runs live — it is the
    thing being measured against).
    """
    from .engine.batch import default_engine
    from .measurements.batch import run_campaign, run_scalar_reference

    batch = run_campaign(
        config, parallel=parallel, obs=obs, cache=cache, refresh=refresh
    )
    reference = run_scalar_reference(
        config, n_replicas=scalar_replicas, obs=obs
    )
    timed = scalar_replicas if scalar_replicas else config.n_replicas
    scalar_wall = reference.wall_s * config.n_replicas / timed
    batch_medians = batch.medians_mbps()
    scalar_medians = reference.medians_mbps()
    cache = default_engine().cache_info()
    return {
        "workload": {
            "profile": config.profile,
            "controller": config.controller,
            "distances_m": list(config.distances_m),
            "n_replicas": config.n_replicas,
            "duration_s": config.duration_s,
            "seed": config.seed,
            "epoch_s": config.epoch_s,
            "block_size": config.block_size,
            "scalar_replicas_timed": timed,
        },
        "scalar": {
            "wall_s": scalar_wall,
            "measured_wall_s": reference.wall_s,
            "medians_mbps": {str(k): v for k, v in scalar_medians.items()},
        },
        "batched": {
            "wall_s": batch.wall_s,
            "medians_mbps": {str(k): v for k, v in batch_medians.items()},
        },
        "speedup": scalar_wall / batch.wall_s if batch.wall_s > 0 else None,
        "median_agreement": {
            str(d): abs(batch_medians[d] - scalar_medians[d])
            / max(scalar_medians[d], 1e-9)
            for d in batch_medians
            if d in scalar_medians
        },
        "solver_cache": {
            "hits": cache.hits,
            "misses": cache.misses,
            "currsize": cache.currsize,
            "maxsize": cache.maxsize,
        },
    }


def bench_manifest(report: dict, obs: "Any" = None) -> "Any":
    """Wrap a :func:`bench_report` dict in a :class:`RunManifest`.

    The single serialisation point for bench JSON: ``repro bench
    --json``, ``benchmarks/bench_campaign_batch.py`` and library
    callers all emit this manifest, so the three previously hand-rolled
    emitters cannot drift apart.
    """
    from .obs import RunManifest

    workload = report["workload"]
    return RunManifest.build(
        kind="bench",
        config=dict(workload),
        seeds={"campaign": workload["seed"]},
        outputs={
            key: report[key]
            for key in (
                "scalar", "batched", "speedup", "median_agreement",
                "solver_cache",
            )
        },
        obs=obs,
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    from .measurements.batch import BatchCampaignConfig
    from .obs import ObsContext

    _configure_exec(args)
    config = BatchCampaignConfig(
        profile=args.profile,
        controller=args.controller,
        distances_m=tuple(args.distances),
        n_replicas=args.replicas,
        duration_s=args.duration,
        seed=args.seed,
    )
    obs = ObsContext.enabled(deterministic=True)
    report = bench_report(
        config,
        parallel=False if args.serial else None,
        scalar_replicas=args.scalar_replicas,
        obs=obs,
        **_cache_kwargs(args),
    )
    if args.json:
        from .perf import unix_clock

        manifest = bench_manifest(report, obs=obs)
        manifest.created_unix_s = unix_clock()
        print(manifest.to_json())
        return 0
    workload = report["workload"]
    print(f"profile           : {workload['profile']}")
    print(f"controller        : {workload['controller']}")
    print(f"distances         : {workload['distances_m']} m")
    print(f"replicas/distance : {workload['n_replicas']}")
    print(f"duration          : {workload['duration_s']:g} s simulated")
    print("-" * 40)
    print(f"scalar engine     : {report['scalar']['wall_s']:.2f} s"
          + (" (extrapolated)"
             if workload["scalar_replicas_timed"] != workload["n_replicas"]
             else ""))
    print(f"batched engine    : {report['batched']['wall_s']:.2f} s")
    print(f"speedup           : {report['speedup']:.1f}x")
    print("-" * 40)
    for name, value in obs.metrics.to_dict()["counters"].items():
        print(f"count {name:28s}: {value}")
    for d, rel in report["median_agreement"].items():
        batch_m = report["batched"]["medians_mbps"][d]
        scalar_m = report["scalar"]["medians_mbps"][d]
        print(f"median @ {float(d):5.0f} m   : batch {batch_m:6.2f} "
              f"scalar {scalar_m:6.2f} Mb/s ({100 * rel:.2f}% apart)")
    return 0


def _chaos_plan(args: argparse.Namespace) -> "Any":
    """Assemble the fault plan from ``--plan`` / inline fault flags."""
    from .api import FaultPlan, FaultSpec

    if args.plan is not None:
        with open(args.plan, "r", encoding="utf-8") as handle:
            plan = FaultPlan.from_json(handle.read())
    else:
        plan = FaultPlan(name="cli", seed=args.seed)
    for window in args.outage or ():
        try:
            start_s, duration_s = (float(part) for part in window.split(":"))
        except ValueError:
            raise SystemExit(
                f"bad --outage {window!r}: expected START:DURATION seconds"
            ) from None
        plan = plan.with_outage(start_s, duration_s)
    if args.node_loss is not None:
        plan = plan.add(FaultSpec("node_loss", args.node_loss))
    return plan


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .api import chaos

    _configure_exec(args)
    plan = _chaos_plan(args)
    result = chaos(
        plan,
        scenario_name=args.scenario,
        seed=args.seed,
        deadline_s=args.deadline,
        controller=args.controller,
        idle_timeout_s=args.idle_timeout,
        max_resumes=args.max_resumes,
        **_cache_kwargs(args),
    )
    if args.json:
        from .perf import unix_clock

        # The run manifest is the one chaos serialisation: the library's
        # result.manifest.to_json() produces these bytes modulo the
        # created_unix_s stamp added here at the CLI boundary.  Replay
        # determinism (identical inputs -> identical bytes apart from
        # that stamp) carries over because the chaos ObsContext is
        # deterministic by contract.
        result.manifest.created_unix_s = unix_clock()
        print(result.manifest.to_json())
        return 0 if result.completed else 1
    print(f"scenario          : {result.scenario}")
    print(f"fault plan        : {result.plan_name} "
          f"({len(plan)} fault(s), seed {result.seed})")
    print(f"optimal distance  : {result.dopt_m:.1f} m")
    print("-" * 40)
    print(f"completed         : {'yes' if result.completed else 'NO'}")
    print(f"finish time       : {result.finish_s:.2f} s"
          + (f" (deadline {result.deadline_s:g} s)"
             if result.deadline_s is not None else ""))
    print(f"delivered         : {result.delivered_bytes} / "
          f"{result.total_bytes} bytes "
          f"({100 * result.delivered_fraction:.1f}%)")
    print(f"blackout retries  : {result.blackout_retries} "
          f"({result.blackout_wait_s:.2f} s waited)")
    print(f"checkpoints       : {len(result.checkpoints)} "
          f"({result.resumes} resume(s))")
    for replan in result.replans:
        print(f"replan            : dopt {replan['dopt_m']:.1f} m with "
              f"{replan['remaining_data_bits'] / 8e6:.1f} MB left at "
              f"t={replan['elapsed_s']:.1f} s")
    for time_s, kind in result.faults_fired:
        print(f"fault @ {time_s:7.2f} s : {kind}")
    return 0 if result.completed else 1


def _cmd_relay(args: argparse.Namespace) -> int:
    from .api import solve_relay
    from .relay import RelayChain

    _configure_exec(args)
    names = [name.strip() for name in args.hops.split(",") if name.strip()]
    if not names:
        print("relay: --hops needs at least one scenario", file=sys.stderr)
        return 2
    try:
        scenarios = [make_scenario(name) for name in names]
    except ValueError as exc:
        print(f"relay: {exc}", file=sys.stderr)
        return 2
    chain = RelayChain.of(
        scenarios,
        handoff_s=args.handoff,
        name="-".join(names),
        deadline_s=args.deadline,
        mdata_mb=args.mdata_mb,
    )
    result = solve_relay(chain, **_cache_kwargs(args))
    decision = result.outputs
    if args.json:
        # Unlike chaos, no created_unix_s stamp: the manifest is fully
        # deterministic, so a warm-cache run emits bytes identical to
        # the cold run that populated the store.
        print(result.manifest.to_json())
        return 0 if decision.meets_deadline else 1
    print(f"chain             : {chain.name} ({chain.n_hops} hop(s))")
    print(f"Mdata             : {chain.data_bits / 8e6:.1f} MB")
    print(f"hand-off overhead : {chain.total_handoff_s:g} s")
    print("-" * 40)
    for hop, name in zip(decision.hops, names):
        print(f"hop {hop.hop}             : {name:13s} "
              f"{hop.policy:8s} d={hop.distance_m:7.1f} m "
              f"cdelay={hop.cdelay_s:7.1f} s")
    print("-" * 40)
    print(f"chain utility     : {decision.utility:.4f}")
    print(f"survival          : {decision.survival:.4f}")
    print(f"total delay       : {decision.delay_s:.1f} s"
          + (f" (deadline {decision.deadline_s:g} s, "
             f"{'met' if decision.meets_deadline else 'MISSED'})"
             if decision.deadline_s is not None else ""))
    return 0 if decision.meets_deadline else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .store import ResultStore

    store = ResultStore(Path(args.dir) if args.dir else None)
    if args.cache_command == "stats":
        print(json.dumps(store.stats(), sort_keys=True))
        return 0
    if args.cache_command == "gc":
        print(json.dumps({"evicted": store.gc(args.max_bytes)}))
        return 0
    if args.cache_command == "clear":
        print(json.dumps({"removed": store.clear()}))
        return 0
    outcome = store.verify(repair=not args.no_repair)
    print(json.dumps(outcome, sort_keys=True))
    return 1 if outcome["corrupt"] and args.no_repair else 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from .obs import ManifestSchemaError, summarize_manifest_file

    try:
        print(summarize_manifest_file(args.manifest, top=args.top))
    except FileNotFoundError:
        print(f"obs: no such manifest file: {args.manifest}",
              file=sys.stderr)
        return 1
    except (ManifestSchemaError, ValueError) as exc:
        print(f"obs: not a run manifest: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis import (
        BASELINE_FILENAME,
        Baseline,
        default_baseline_path,
        default_root,
        run_lint,
        write_sarif,
    )

    root = Path(args.path) if args.path else default_root()
    baseline_path = Path(args.baseline) if args.baseline else None
    report = run_lint(
        root=root,
        rules=args.rules,
        baseline_path=baseline_path,
        use_baseline=not args.no_baseline,
        changed_only=args.changed,
    )
    if args.sarif:
        write_sarif(report, Path(args.sarif))
    if args.update_baseline:
        target = baseline_path or default_baseline_path(root)
        if target is None:
            target = Path.cwd() / BASELINE_FILENAME
        Baseline.from_findings(report.findings).save(target)
        print(
            f"baseline updated: {len(report.findings)} finding(s) "
            f"accepted in {target}",
            file=sys.stderr,
        )
        return 0
    if args.json:
        print(report.to_json())
    else:
        for line in report.summary_lines():
            print(line)
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "sweep": _cmd_sweep,
        "experiment": _cmd_experiment,
        "mission": _cmd_mission,
        "validate": _cmd_validate,
        "bench": _cmd_bench,
        "chaos": _cmd_chaos,
        "relay": _cmd_relay,
        "cache": _cmd_cache,
        "obs": _cmd_obs,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)

"""Batch engine throughput: vectorised Eq. 2 vs the scalar optimiser.

Measures decisions/second at fleet sizes N in {1, 100, 10000} and the
speedup of :class:`repro.engine.BatchSolverEngine` over solving each
scenario with :class:`repro.core.optimizer.DistanceOptimizer` in a
Python loop, plus the maximum distance deviation between the two
(must stay within the engine's ``refine_tolerance_m``) and the lowest
ratio of batch to scalar utility (the engine solves log-law rows
exactly, so it may never lose to the scalar grid kernel by more than
``UTILITY_FLOOR``).  At N = 10k it
also checks that a seeded sample of batch rows is bitwise equal, every
column and ``tolerance_m``, to a fresh engine's one-at-a-time
``solve`` (the kernel is row-local, so the batch may not change a bit).

Run standalone (prints the full table, asserts the >= 20x target):

    PYTHONPATH=src python benchmarks/bench_batch_engine.py

or under pytest-benchmark:

    PYTHONPATH=src python -m pytest benchmarks/bench_batch_engine.py
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple
from typing import List

import numpy as np

from repro.api import (
    BatchSolverEngine,
    Scenario,
    airplane_scenario,
    quadrocopter_scenario,
)
from repro.core.optimizer import DistanceOptimizer

#: Fleet sizes of the headline measurement.
FLEET_SIZES = (1, 100, 10_000)

#: The scalar baseline is extrapolated from this many solves for very
#: large fleets (it is the slow side; its per-solve cost is flat).
SCALAR_SAMPLE_CAP = 1_000

#: The acceptance target at N = 10k.
TARGET_SPEEDUP_10K = 20.0

#: Rows of the N = 10k batch re-solved one at a time for the bitwise check.
BITWISE_SAMPLE = 1_000

#: Lowest allowed batch utility over the scalar grid kernel's, per row.
UTILITY_FLOOR = 1.0 - 1e-12


def make_fleet(n: int) -> List[Scenario]:
    """A deterministic mixed fleet with no repeated parameter tuples."""
    fleet: List[Scenario] = []
    for i in range(n):
        u = 0.5 + 0.5 * math.sin(12.9898 * (i + 1))  # cheap, reproducible
        w = 0.5 + 0.5 * math.sin(78.233 * (i + 1))
        if i % 2 == 0:
            fleet.append(
                airplane_scenario(
                    mdata_mb=5.0 + 45.0 * u,
                    speed_mps=3.0 + 17.0 * w,
                    rho_per_m=1e-4 + 5e-3 * u * w,
                    d0_m=80.0 + 220.0 * w,
                )
            )
        else:
            fleet.append(
                quadrocopter_scenario(
                    mdata_mb=5.0 + 55.0 * w,
                    speed_mps=2.0 + 8.0 * u,
                    rho_per_m=2e-4 + 8e-3 * u,
                    d0_m=30.0 + 70.0 * u,
                )
            )
    return fleet


def scalar_solve_all(
    fleet: List[Scenario], engine: BatchSolverEngine
) -> List:
    """The baseline: one DistanceOptimizer call per scenario."""
    out = []
    for s in fleet:
        optimizer = DistanceOptimizer(
            s.utility_model(),
            grid_step_m=engine.grid_step_m,
            refine_tolerance_m=engine.refine_tolerance_m,
        )
        out.append(
            optimizer.optimize(
                s.contact_distance_m, s.cruise_speed_mps, s.data_bits
            )
        )
    return out


def bitwise_mismatches(fleet: List[Scenario], batch, seed: int = 0) -> int:
    """Sampled rows of ``batch`` whose bytes differ from a fresh engine's
    per-row :meth:`~repro.engine.BatchSolverEngine.solve`."""
    picks = np.random.default_rng(seed).choice(
        len(fleet), min(len(fleet), BITWISE_SAMPLE), replace=False
    )
    engine = BatchSolverEngine()
    bad = 0
    for i in picks:
        want = engine.solve(fleet[i])
        got = batch[int(i)]
        if np.array(astuple(got)).tobytes() != np.array(astuple(want)).tobytes():
            bad += 1
    return bad


def measure(n: int) -> dict:
    """Time scalar vs batch on a fresh N-scenario fleet."""
    fleet = make_fleet(n)
    engine = BatchSolverEngine(cache_size=0)  # timing, not memoisation

    t0 = time.perf_counter()
    batch = engine.solve_batch(fleet)
    batch_s = time.perf_counter() - t0

    sample = fleet[: min(n, SCALAR_SAMPLE_CAP)]
    t0 = time.perf_counter()
    scalar = scalar_solve_all(sample, engine)
    scalar_s = (time.perf_counter() - t0) * (n / len(sample))

    max_dev = max(
        abs(batch[i].distance_m - d.distance_m)
        for i, d in enumerate(scalar)
    )
    min_utility_ratio = min(
        batch[i].utility / d.utility for i, d in enumerate(scalar)
    )
    return {
        "n": n,
        "batch_s": batch_s,
        "scalar_s": scalar_s,
        "batch_rate": n / batch_s,
        "speedup": scalar_s / batch_s,
        "max_deviation_m": max_dev,
        "tolerance_m": engine.refine_tolerance_m,
        "min_utility_ratio": min_utility_ratio,
        "bitwise_mismatches": (
            bitwise_mismatches(fleet, batch) if n >= 10_000 else 0
        ),
    }


def main() -> int:
    print(f"{'N':>7s} {'scalar(s)':>10s} {'batch(s)':>9s} "
          f"{'batch scen/s':>13s} {'speedup':>8s} {'max |dd|(m)':>12s}")
    results = []
    for n in FLEET_SIZES:
        r = measure(n)
        results.append(r)
        print(
            f"{r['n']:7d} {r['scalar_s']:10.3f} {r['batch_s']:9.3f} "
            f"{r['batch_rate']:13.0f} {r['speedup']:7.1f}x "
            f"{r['max_deviation_m']:12.2e}"
        )
    final = results[-1]
    ok = final["speedup"] >= TARGET_SPEEDUP_10K
    within = all(r["max_deviation_m"] <= r["tolerance_m"] for r in results)
    floor_ok = all(r["min_utility_ratio"] >= UTILITY_FLOOR for r in results)
    bitwise = final["bitwise_mismatches"] == 0
    print(
        f"\nN=10k target >= {TARGET_SPEEDUP_10K:.0f}x: "
        f"{'PASS' if ok else 'FAIL'} ({final['speedup']:.1f}x); "
        f"deviations within refine tolerance: {'yes' if within else 'NO'}; "
        f"batch utility >= scalar x (1 - 1e-12): "
        f"{'yes' if floor_ok else 'NO'} "
        f"(min ratio - 1 = {min(r['min_utility_ratio'] for r in results) - 1:.1e}); "
        f"{BITWISE_SAMPLE} sampled rows bitwise equal to per-row solve: "
        f"{'yes' if bitwise else 'NO (%d differ)' % final['bitwise_mismatches']}"
    )
    return 0 if ok and within and floor_ok and bitwise else 1


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------

def test_batch_engine_n100(benchmark):
    fleet = make_fleet(100)
    engine = BatchSolverEngine(cache_size=0)
    result = benchmark(engine.solve_batch, fleet)
    assert len(result) == 100


def test_batch_engine_n10k_beats_scalar_20x(benchmark):
    r = benchmark.pedantic(measure, args=(10_000,), rounds=1, iterations=1)
    assert r["speedup"] >= TARGET_SPEEDUP_10K
    assert r["max_deviation_m"] <= r["tolerance_m"]
    assert r["min_utility_ratio"] >= UTILITY_FLOOR
    assert r["bitwise_mismatches"] == 0


def test_scalar_baseline_single(benchmark):
    scenario = airplane_scenario()
    engine = BatchSolverEngine(cache_size=0)
    decision = benchmark(
        lambda: scalar_solve_all([scenario], engine)[0]
    )
    assert 20.0 <= decision.distance_m <= 300.0


if __name__ == "__main__":
    raise SystemExit(main())

"""Relay solver throughput: BatchRelaySolver vs the scalar chain loop.

Measures chains/second at fleet sizes N in {100, 10000} and the
speedup of :class:`repro.relay.BatchRelaySolver` over solving each
chain with :class:`repro.relay.RelaySolver` in a Python loop, plus a
bit-lockstep check on the sampled prefix (scalar and batch decisions
must compare equal, not merely close) and a byte guard on the N = 10k
fleet's output (the sha256 of its sorted-key JSON is pinned).

Run standalone (prints the table, asserts the >= 10x target and the
byte guard, writes ``BENCH_relay.json``):

    PYTHONPATH=src python benchmarks/bench_relay.py

or under pytest-benchmark:

    PYTHONPATH=src python -m pytest benchmarks/bench_relay.py
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from typing import List

from repro.api import airplane_scenario, quadrocopter_scenario
from repro.engine.batch import BatchSolverEngine
from repro.relay import BatchRelaySolver, RelayChain, RelaySolver

#: Fleet sizes of the headline measurement.
FLEET_SIZES = (100, 10_000)

#: The scalar baseline is extrapolated from this many chains for large
#: fleets (it is the slow side; its per-chain cost is flat).
SCALAR_SAMPLE_CAP = 300

#: The acceptance target at N = 10k.
TARGET_SPEEDUP_10K = 10.0

#: ``fleet_digest`` of the N = 10k fleet's batch result.  Any change to
#: a solved value, a policy or the JSON shape of a decision moves it.
FLEET_10K_SHA256 = (
    "5f09f7ad5f2f6ba68f9f0ea3c2b4d70b9dadb23ed52b96b5491b810a8d2216c8"
)


def make_fleet(n: int) -> List[RelayChain]:
    """A deterministic mixed fleet of chains, lengths 1-3, no repeats."""
    fleet: List[RelayChain] = []
    for i in range(n):
        u = 0.5 + 0.5 * math.sin(12.9898 * (i + 1))  # cheap, reproducible
        w = 0.5 + 0.5 * math.sin(78.233 * (i + 1))
        hops = []
        for h in range(1 + i % 3):
            v = 0.5 + 0.5 * math.sin(39.425 * (i + 1) * (h + 1))
            factory = airplane_scenario if (i + h) % 2 else quadrocopter_scenario
            hops.append(
                factory(
                    mdata_mb=2.0 + 40.0 * u,
                    speed_mps=3.0 + 15.0 * v,
                    rho_per_m=1e-4 + 4e-3 * u * v,
                    d0_m=70.0 + 200.0 * w,
                )
            )
        fleet.append(
            RelayChain.of(
                hops,
                handoff_s=10.0 * v,
                name=f"chain{i}",
                deadline_s=None if i % 4 else 120.0 + 400.0 * w,
            )
        )
    return fleet


def fleet_digest(result) -> str:
    """sha256 of ``json.dumps(result.to_dicts(), sort_keys=True)``."""
    payload = json.dumps(result.to_dicts(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def measure(n: int) -> dict:
    """Time scalar vs batch on a fresh N-chain fleet."""
    fleet = make_fleet(n)
    batch_solver = BatchRelaySolver(BatchSolverEngine(cache_size=0))

    t0 = time.perf_counter()
    batch = batch_solver.solve(fleet)
    batch_s = time.perf_counter() - t0

    sample = fleet[: min(n, SCALAR_SAMPLE_CAP)]
    scalar_solver = RelaySolver(BatchSolverEngine(cache_size=0))
    t0 = time.perf_counter()
    scalar = [scalar_solver.solve(chain) for chain in sample]
    scalar_s = (time.perf_counter() - t0) * (n / len(sample))

    lockstep = all(
        batch[i] == decision for i, decision in enumerate(scalar)
    )
    return {
        "n": n,
        "batch_s": batch_s,
        "scalar_s": scalar_s,
        "batch_rate": n / batch_s,
        "speedup": scalar_s / batch_s,
        "lockstep": lockstep,
        "sampled_chains": len(sample),
        "digest": fleet_digest(batch),
    }


def main() -> int:
    print(f"{'N':>7s} {'scalar(s)':>10s} {'batch(s)':>9s} "
          f"{'batch chain/s':>14s} {'speedup':>8s} {'lockstep':>9s}")
    results = []
    for n in FLEET_SIZES:
        r = measure(n)
        results.append(r)
        print(
            f"{r['n']:7d} {r['scalar_s']:10.3f} {r['batch_s']:9.3f} "
            f"{r['batch_rate']:14.0f} {r['speedup']:7.1f}x "
            f"{'yes' if r['lockstep'] else 'NO':>9s}"
        )
    final = results[-1]
    ok = final["speedup"] >= TARGET_SPEEDUP_10K
    lockstep = all(r["lockstep"] for r in results)
    bytes_ok = final["digest"] == FLEET_10K_SHA256
    from conftest import dump_bench_json

    path = dump_bench_json(
        {
            "target_speedup_10k": TARGET_SPEEDUP_10K,
            "results": results,
        },
        "BENCH_relay.json",
    )
    print(
        f"\nN=10k target >= {TARGET_SPEEDUP_10K:.0f}x: "
        f"{'PASS' if ok else 'FAIL'} ({final['speedup']:.1f}x); "
        f"scalar/batch lockstep: {'yes' if lockstep else 'NO'}; "
        f"N=10k output bytes: {'pinned' if bytes_ok else 'CHANGED'}; "
        f"report: {path}"
    )
    return 0 if ok and lockstep and bytes_ok else 1


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------

def test_batch_relay_n100(benchmark):
    fleet = make_fleet(100)
    solver = BatchRelaySolver(BatchSolverEngine(cache_size=0))
    result = benchmark(solver.solve, fleet)
    assert len(result) == 100


def test_batch_relay_n10k_beats_scalar_10x(benchmark):
    from conftest import dump_bench_json, run_once

    r = run_once(benchmark, measure, 10_000)
    dump_bench_json(
        {"target_speedup_10k": TARGET_SPEEDUP_10K, "results": [r]},
        "BENCH_relay.json",
    )
    assert r["speedup"] >= TARGET_SPEEDUP_10K
    assert r["lockstep"]
    assert r["digest"] == FLEET_10K_SHA256


if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    raise SystemExit(main())

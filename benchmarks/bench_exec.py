"""Execution backend: pool reuse vs per-call pools, pooled == serial.

The backend's contract is twofold:

* **reuse** — 20 repeated small-N campaigns (5 distances x 100
  replicas = 500 cases each) through the persistent pool must be at
  least 1.5x faster than the same campaigns paying a pool spawn +
  teardown per call (the pre-backend behaviour, reproduced here by
  disposing every pool between rounds);
* **identity** — pooled samples are bit-identical to the serial run's
  on both the reuse workload and a fat-shard campaign whose results
  are large (scheduling and the pickled trip home must never shape
  results).

The report is dumped to ``BENCH_exec.json`` through the same manifest
schema as the other benchmark artifacts.

Run standalone:

    PYTHONPATH=src python benchmarks/bench_exec.py

or under pytest-benchmark:

    PYTHONPATH=src python -m pytest benchmarks/bench_exec.py
"""

from __future__ import annotations

from conftest import dump_bench_json, run_once

import repro.exec as exec_backend
from repro.measurements.batch import BatchCampaignConfig, run_campaign
from repro.obs import RunManifest
from repro.perf import wall_clock

#: Reuse workload: small campaigns where pool-cycle overhead dominates.
SMALL = BatchCampaignConfig(
    profile="quadrocopter",
    distances_m=(60.0, 100.0, 140.0, 180.0, 220.0),
    n_replicas=100,
    duration_s=0.1,
    seed=7,
    block_size=50,
)

#: Fat-shard workload: few shards, each returning large sample arrays
#: (block_size cases x duration/interval readings).
FAT = BatchCampaignConfig(
    profile="quadrocopter",
    distances_m=(80.0, 160.0),
    n_replicas=100,
    duration_s=2.0,
    seed=11,
    block_size=100,
    report_interval_s=0.02,
)

#: Rounds for the reuse comparison (ISSUE 10: 20 repeated campaigns).
ROUNDS = 20

#: Acceptance bars.
MIN_SPEEDUP = 1.5


def _reuse_pass() -> dict:
    """Persistent-pool vs per-call-pool walls over ``ROUNDS`` campaigns."""
    run_campaign(SMALL, parallel=True)  # warm-up: pay the one spawn
    t0 = wall_clock()
    for _ in range(ROUNDS):
        pooled = run_campaign(SMALL, parallel=True)
    persistent_s = wall_clock() - t0

    t0 = wall_clock()
    for _ in range(ROUNDS):
        # Pre-backend behaviour: every call built (and tore down) its
        # own ProcessPoolExecutor, so dispose all pools between rounds.
        exec_backend.shutdown()
        percall = run_campaign(SMALL, parallel=True)
    percall_s = wall_clock() - t0

    serial = run_campaign(SMALL, parallel=False)
    return {
        "persistent_s": persistent_s,
        "percall_s": percall_s,
        "reuse_speedup": percall_s / persistent_s,
        "reuse_samples_identical": (
            pooled.samples == percall.samples == serial.samples
        ),
    }


def _fat_pass() -> dict:
    """Pooled vs serial samples on the fat-shard campaign."""
    pooled = run_campaign(FAT, parallel=True)
    serial = run_campaign(FAT, parallel=False)
    return {"fat_samples_identical": pooled.samples == serial.samples}


def measure() -> dict:
    report = {
        "workload": {
            "rounds": ROUNDS,
            "small_cases": len(SMALL.distances_m) * SMALL.n_replicas,
            "small_duration_s": SMALL.duration_s,
            "fat_cases": len(FAT.distances_m) * FAT.n_replicas,
            "fat_duration_s": FAT.duration_s,
        },
        **_reuse_pass(),
        **_fat_pass(),
        "min_speedup": MIN_SPEEDUP,
    }
    exec_backend.shutdown()
    return report


def exec_manifest(report: dict) -> RunManifest:
    """BENCH_exec.json payload, on the shared run-manifest schema."""
    return RunManifest.build(
        kind="bench",
        config=dict(report["workload"]),
        outputs={
            key: report[key]
            for key in sorted(report)
            if key != "workload"
        },
    )


def check(report: dict) -> bool:
    ok = (
        report["reuse_speedup"] >= MIN_SPEEDUP
        and report["reuse_samples_identical"]
        and report["fat_samples_identical"]
    )
    print(
        f"exec backend gates: {'PASS' if ok else 'FAIL'} "
        f"(pool reuse {report['reuse_speedup']:.2f}x >= {MIN_SPEEDUP}x: "
        f"{report['percall_s']:.3f} s per-call -> "
        f"{report['persistent_s']:.3f} s persistent; "
        f"identity {report['reuse_samples_identical']}/"
        f"{report['fat_samples_identical']})"
    )
    return ok


def main() -> int:
    report = measure()
    ok = check(report)
    path = dump_bench_json(exec_manifest(report).to_dict(), "BENCH_exec.json")
    print(f"manifest written to {path}")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------

def test_exec_pool_reuse(benchmark):
    report = run_once(benchmark, measure)
    dump_bench_json(exec_manifest(report).to_dict(), "BENCH_exec.json")
    assert report["reuse_speedup"] >= MIN_SPEEDUP
    assert report["reuse_samples_identical"]
    assert report["fat_samples_identical"]


if __name__ == "__main__":
    raise SystemExit(main())

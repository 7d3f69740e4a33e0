"""Persistent result store: warm runs vs cold runs.

The store's contract (ISSUE 7) is twofold:

* **speed** — re-running the Fig. 8-style dense sweep against a
  populated store must be at least 10x faster than the cold run that
  filled it (the warm path is a handful of hashed keys and file reads,
  no solver dispatch);
* **identity** — the warm run's :class:`~repro.obs.RunManifest` must be
  byte-identical to the cold run's, and a warm Fig. 6-style campaign
  must reproduce the cold campaign's samples bit for bit.

Both sides run against throwaway store directories, with fresh
zero-memo engines per pass so the in-process cache cannot stand in for
the persistent one.  Each side's wall is the median of
:data:`REPEATS` passes — cold passes each fill a fresh store, warm
passes re-read the last one — so one slow pass on a shared machine
cannot move the ratio across the floor.  The report is dumped to ``BENCH_store.json``
through the same manifest schema as the other benchmark artifacts.

Run standalone:

    PYTHONPATH=src python benchmarks/bench_store.py

or under pytest-benchmark:

    PYTHONPATH=src python -m pytest benchmarks/bench_store.py
"""

from __future__ import annotations

import statistics
import tempfile
from pathlib import Path

import numpy as np

from conftest import dump_bench_json, run_once

from repro.api import scenario, sweep
from repro.engine.batch import BatchSolverEngine
from repro.measurements.batch import BatchCampaignConfig, run_campaign
from repro.obs import RunManifest
from repro.perf import wall_clock
from repro.store import ResultStore

#: Fig. 8 methodology: U(d) maximised across a dense failure-rate sweep.
RHO_VALUES = np.geomspace(1e-5, 1e-2, 8_000)

#: Fig. 6 methodology, cut down to benchmark scale: fixed-distance
#: saturated sessions, readings pooled per distance.
CAMPAIGN = BatchCampaignConfig(
    profile="quadrocopter",
    distances_m=(80.0, 160.0, 240.0),
    n_replicas=32,
    duration_s=10.0,
    seed=3,
)

#: Acceptance bar: warm sweep at least this much faster than cold.
MIN_SPEEDUP = 10.0

#: Timed passes per side; the gate compares their medians.
REPEATS = 5


def _sweep_pass(store: ResultStore) -> tuple:
    """One full Fig. 8-style pass for both scenarios; (wall, manifests)."""
    wall = 0.0
    manifests = []
    for name in ("airplane", "quadrocopter"):
        engine = BatchSolverEngine(cache_size=0)
        t0 = wall_clock()
        result = sweep(
            scenario(name), "rho_per_m", RHO_VALUES,
            engine=engine, cache=store,
        )
        wall += wall_clock() - t0
        manifests.append(result.manifest.to_json())
    return wall, manifests


def _campaign_pass(store: ResultStore) -> tuple:
    """One Fig. 6-style campaign; (wall, pooled samples)."""
    t0 = wall_clock()
    result = run_campaign(CAMPAIGN, parallel=False, cache=store)
    return wall_clock() - t0, result.samples


def _median_passes(run_pass, root: Path) -> tuple:
    """(cold median s, warm median s, outputs identical, store stats).

    Each cold pass fills a fresh store under ``root``; the warm passes
    then re-read the last one.  Identical means every pass, cold or
    warm, produced the first cold pass's output.
    """
    cold = [run_pass(ResultStore(root / f"cold{i}")) for i in range(REPEATS)]
    store = ResultStore(root / f"cold{REPEATS - 1}")
    warm = [run_pass(store) for _ in range(REPEATS)]
    first = cold[0][1]
    return (
        statistics.median(wall for wall, _ in cold),
        statistics.median(wall for wall, _ in warm),
        all(out == first for _, out in cold + warm),
        store.stats(),
    )


def measure() -> dict:
    """Cold-vs-warm median walls and identity checks on throwaway stores."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        root = Path(tmp)
        sweep_cold_s, sweep_warm_s, sweep_identical, _ = _median_passes(
            _sweep_pass, root / "sweep"
        )
        campaign_cold_s, campaign_warm_s, campaign_identical, stats = (
            _median_passes(_campaign_pass, root / "campaign")
        )
    return {
        "workload": {
            "sweep": "rho_per_m",
            "n_values": int(RHO_VALUES.size),
            "scenarios": ["airplane", "quadrocopter"],
            "campaign_cases": len(CAMPAIGN.distances_m) * CAMPAIGN.n_replicas,
            "repeats": REPEATS,
        },
        "sweep_cold_s": sweep_cold_s,
        "sweep_warm_s": sweep_warm_s,
        "sweep_speedup": sweep_cold_s / sweep_warm_s,
        "sweep_manifests_identical": sweep_identical,
        "campaign_cold_s": campaign_cold_s,
        "campaign_warm_s": campaign_warm_s,
        "campaign_speedup": campaign_cold_s / campaign_warm_s,
        "campaign_samples_identical": campaign_identical,
        "store_entries": int(stats["entries"]),
        "store_bytes": int(stats["total_bytes"]),
        "min_speedup": MIN_SPEEDUP,
    }


def store_manifest(report: dict) -> RunManifest:
    """BENCH_store.json payload, on the shared run-manifest schema."""
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
        report["sweep_speedup"] >= MIN_SPEEDUP
        and report["sweep_manifests_identical"]
        and report["campaign_speedup"] >= MIN_SPEEDUP
        and report["campaign_samples_identical"]
    )
    print(
        f"store warm speedup >= {MIN_SPEEDUP:.0f}x: "
        f"{'PASS' if ok else 'FAIL'} "
        f"(sweep {report['sweep_speedup']:.1f}x: "
        f"{report['sweep_cold_s']:.3f} s cold -> "
        f"{report['sweep_warm_s']:.3f} s warm; "
        f"campaign {report['campaign_speedup']:.1f}x: "
        f"{report['campaign_cold_s']:.3f} s cold -> "
        f"{report['campaign_warm_s']:.3f} s warm; "
        f"manifests identical: {report['sweep_manifests_identical']}; "
        f"samples identical: {report['campaign_samples_identical']})"
    )
    return ok


def main() -> int:
    report = measure()
    ok = check(report)
    path = dump_bench_json(
        store_manifest(report).to_dict(), "BENCH_store.json"
    )
    print(f"manifest written to {path}")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------

def test_store_warm_speedup(benchmark):
    report = run_once(benchmark, measure)
    dump_bench_json(store_manifest(report).to_dict(), "BENCH_store.json")
    assert report["sweep_speedup"] >= MIN_SPEEDUP
    assert report["sweep_manifests_identical"]
    assert report["campaign_speedup"] >= MIN_SPEEDUP
    assert report["campaign_samples_identical"]


if __name__ == "__main__":
    raise SystemExit(main())

"""Campaign engine throughput: replica-batched vs scalar epoch loop.

Times the Fig. 6-style fixed-distance campaign (airplane profile, ARF,
64 replicas per distance at 80/160/240 m, 40 s simulated) on the
replica-batched :class:`~repro.net.batchlink.BatchWirelessLink` engine
and on the scalar :class:`~repro.net.link.WirelessLink` baseline, and
checks the two acceptance criteria:

* wall-clock speedup >= 10x at 64 replicas per distance, and
* per-distance median throughput within 2% of the scalar engine.

The scalar side runs the full replica count: the median-agreement
check needs matched sample sizes (a scalar slice has a visibly noisier
median than the 64-replica batch).  The full report is wrapped in the
same :class:`~repro.obs.RunManifest` that ``repro bench --json``
prints — campaign metrics (channel memo counters included) and span
trace — and dumped to ``BENCH_campaign.json`` for the CI artifact.
Per-stage time inside the batched link is reported by
``python3 benchsuite/run.py --workload campaign --trace 1``.

Run standalone:

    PYTHONPATH=src python benchmarks/bench_campaign_batch.py

or under pytest-benchmark:

    PYTHONPATH=src python -m pytest benchmarks/bench_campaign_batch.py
"""

from __future__ import annotations

from conftest import dump_bench_json, run_once

from repro.cli import bench_manifest, bench_report
from repro.measurements.batch import BatchCampaignConfig
from repro.obs import ObsContext

#: The headline workload (the Fig. 6 methodology).
CAMPAIGN = BatchCampaignConfig(
    profile="airplane",
    controller="arf",
    distances_m=(80.0, 160.0, 240.0),
    n_replicas=64,
    duration_s=40.0,
    seed=1,
)

#: Acceptance targets.
TARGET_SPEEDUP = 10.0
MEDIAN_TOLERANCE = 0.02


def measure() -> dict:
    """Run both engines on the headline workload; return the report."""
    obs = ObsContext.enabled(deterministic=True)
    report = bench_report(CAMPAIGN, obs=obs)
    report["_manifest"] = bench_manifest(report, obs=obs).to_dict()
    return report


def check(report: dict) -> bool:
    """Both acceptance criteria, printed and returned."""
    speedup_ok = report["speedup"] >= TARGET_SPEEDUP
    agreement_ok = all(
        rel <= MEDIAN_TOLERANCE
        for rel in report["median_agreement"].values()
    )
    print(
        f"speedup target >= {TARGET_SPEEDUP:.0f}x: "
        f"{'PASS' if speedup_ok else 'FAIL'} ({report['speedup']:.1f}x)"
    )
    worst = max(report["median_agreement"].values())
    print(
        f"median agreement <= {100 * MEDIAN_TOLERANCE:.0f}%: "
        f"{'PASS' if agreement_ok else 'FAIL'} (worst {100 * worst:.2f}%)"
    )
    return speedup_ok and agreement_ok


def main() -> int:
    report = measure()
    manifest = report.pop("_manifest")
    workload = report["workload"]
    print(
        f"workload: {workload['profile']}/{workload['controller']}, "
        f"{workload['n_replicas']} replicas x {workload['distances_m']} m, "
        f"{workload['duration_s']:g} s simulated"
    )
    print(f"scalar  : {report['scalar']['wall_s']:8.2f} s")
    print(f"batched : {report['batched']['wall_s']:8.2f} s")
    for name, value in manifest["metrics"]["counters"].items():
        print(f"  count {name:26s}: {value}")
    ok = check(report)
    path = dump_bench_json(manifest)
    print(f"manifest written to {path}")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------

def test_campaign_batch_beats_scalar_10x(benchmark):
    report = run_once(benchmark, measure)
    dump_bench_json(report.pop("_manifest"))
    assert report["speedup"] >= TARGET_SPEEDUP
    assert all(
        rel <= MEDIAN_TOLERANCE
        for rel in report["median_agreement"].values()
    )


if __name__ == "__main__":
    raise SystemExit(main())

"""Incremental lint: warm (cached) runs vs cold runs over the package.

The reprolint record cache (ISSUE 8) promises that a warm run — every
per-file parse+check record already in the content-addressed store —
re-parses nothing and is dominated by the tree rules and report
assembly.  This benchmark lints the real ``src/repro`` tree three
ways against a throwaway store:

* **cold** — empty store, every file is a cache miss;
* **warm** — second run, every file is a cache hit (asserted);
* **edited** — one file touched, exactly one miss.

Acceptance: warm at least 5x faster than cold, and the warm report
(its ``metrics``/``trace`` aside) plus its SARIF serialisation byte-identical to the
cold run's.  The report is dumped to ``BENCH_lint.json`` through the
same manifest schema as the other benchmark artifacts.

Run standalone:

    PYTHONPATH=src python benchmarks/bench_lint.py

or under pytest-benchmark:

    PYTHONPATH=src python -m pytest benchmarks/bench_lint.py
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from conftest import dump_bench_json, run_once

from repro.analysis import default_root, run_lint, sarif_json
from repro.obs import RunManifest
from repro.perf import wall_clock
from repro.store import ResultStore

#: Acceptance bar: warm lint at least this much faster than cold.
MIN_SPEEDUP = 5.0

#: The file edited for the incremental pass (hot-path, mid-sized).
EDIT_TARGET = "core/delay.py"


def _lint_pass(root: Path, store: ResultStore) -> tuple:
    """One full lint of ``root``; (wall seconds, report)."""
    t0 = wall_clock()
    report = run_lint(root=root, use_baseline=False, cache=store)
    return wall_clock() - t0, report


def _comparable(report) -> str:
    """Deterministic report body (the trace carries wall-clock)."""
    payload = report.to_dict()
    payload.pop("metrics")
    payload.pop("trace")
    return json.dumps(payload, sort_keys=True)


def measure() -> dict:
    """Cold/warm/edited lint walls plus identity checks."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-lint-") as tmp:
        # Lint a copy so the edited pass never touches the checkout.
        root = Path(tmp) / "repro"
        shutil.copytree(
            default_root(), root,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        store = ResultStore(Path(tmp) / "cache")

        cold_s, cold = _lint_pass(root, store)
        warm_s, warm = _lint_pass(root, store)

        target = root / EDIT_TARGET
        target.write_text(target.read_text() + "\n_BENCH_EDIT = 1\n")
        edited_s, edited = _lint_pass(root, store)

    return {
        "workload": {
            "tree": "src/repro",
            "checked_files": cold.checked_files,
            "rules": list(cold.rules),
            "edit_target": EDIT_TARGET,
        },
        "cold_s": cold_s,
        "warm_s": warm_s,
        "edited_s": edited_s,
        "speedup": cold_s / warm_s,
        "cold_misses": cold.obs.metrics.value("lint.cache.misses"),
        "warm_hits": warm.obs.metrics.value("lint.cache.hits"),
        "warm_misses": warm.obs.metrics.value("lint.cache.misses"),
        "edited_misses": edited.obs.metrics.value("lint.cache.misses"),
        "reports_identical": _comparable(cold) == _comparable(warm),
        "sarif_identical": (
            sarif_json(cold, uri_prefix="src/repro")
            == sarif_json(warm, uri_prefix="src/repro")
        ),
        "cold_ok": cold.ok,
        "min_speedup": MIN_SPEEDUP,
    }


def store_manifest(report: dict) -> RunManifest:
    """BENCH_lint.json payload, on the shared run-manifest schema."""
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
        report["cold_ok"]
        and report["speedup"] >= MIN_SPEEDUP
        and report["warm_misses"] == 0
        and report["warm_hits"] == report["cold_misses"]
        and report["edited_misses"] == 1
        and report["reports_identical"]
        and report["sarif_identical"]
    )
    print(
        f"lint warm speedup >= {MIN_SPEEDUP:.0f}x: "
        f"{'PASS' if ok else 'FAIL'} "
        f"({report['speedup']:.1f}x: {report['cold_s']:.3f} s cold -> "
        f"{report['warm_s']:.3f} s warm over "
        f"{report['workload']['checked_files']} files; "
        f"edited pass {report['edited_s']:.3f} s / "
        f"{report['edited_misses']} miss(es); "
        f"reports identical: {report['reports_identical']}; "
        f"sarif identical: {report['sarif_identical']})"
    )
    return ok


def main() -> int:
    report = measure()
    ok = check(report)
    path = dump_bench_json(store_manifest(report).to_dict(), "BENCH_lint.json")
    print(f"manifest written to {path}")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------

def test_lint_warm_speedup(benchmark):
    report = run_once(benchmark, measure)
    dump_bench_json(store_manifest(report).to_dict(), "BENCH_lint.json")
    assert report["cold_ok"]
    assert report["speedup"] >= MIN_SPEEDUP
    assert report["warm_misses"] == 0
    assert report["warm_hits"] == report["cold_misses"]
    assert report["edited_misses"] == 1
    assert report["reports_identical"]
    assert report["sarif_identical"]


if __name__ == "__main__":
    raise SystemExit(main())

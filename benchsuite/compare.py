#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload.

    python3 benchsuite/compare.py A.jsonl[#LABEL] B.jsonl[#LABEL]

Each file holds the lines ``run.py --out`` appends (one per run);
``#LABEL`` keeps only runs recorded with ``--label LABEL``.  Traced runs
are ignored.  For every workload and end-to-end metric the table shows
each side's median and quartiles over its runs and a verdict for B
against A, with the bounds of ``BENCHMARK.json``:

* ``unresolved`` - either side's spread (quartile distance over median)
  is wider than the bound, unless every run of one side beats every run
  of the other;
* ``worse`` / ``better`` - B's median trails / beats A's by more than
  the bound;
* ``same`` - otherwise.

The error rate (failed over attempted operations) is worse on any
increase.  The exit code is 1 when any verdict is worse or unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(spec: str):
    """``{workload: [outputs of one run, ...]}`` from ``FILE[#LABEL]``."""
    path, _, label = spec.partition("#")
    runs = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        config = record["config"]
        if config.get("trace") or (label and config.get("label") != label):
            continue
        runs[config["workload"]].append(record["outputs"])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better: str, bound: float):
    """(verdict, relative change of B's median, positive when better)."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "higher" else -1.0
    change = sign * (qb[1] - qa[1]) / qa[1]
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    dominates = (min(sign * x for x in b) > max(sign * x for x in a)
                 or max(sign * x for x in b) < min(sign * x for x in a))
    if spread > bound and not dominates:
        return "unresolved", change
    if change < -bound:
        return "worse", change
    if change > bound:
        return "better", change
    return "same", change


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    a, b = load(argv[0]), load(argv[1])
    flagged = 0
    print(f"{'workload':14s} {'metric':12s} {'unit':5s} "
          f"{'A median [q1, q3] n':>34s} {'B median [q1, q3] n':>34s} "
          f"{'change':>8s}  verdict")

    def side(values):
        q1, q2, q3 = quartiles(values)
        return f"{q2:10.4g} [{q1:.4g}, {q3:.4g}] {len(values):2d}"

    for workload in [w["name"] for w in spec["workloads"]]:
        if not (a.get(workload) and b.get(workload)):
            print(f"{workload:14s} missing from {'A' if not a.get(workload) else 'B'}")
            flagged += 1
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name]["value"] for r in a[workload]]
            vb = [r["metrics"][name]["value"] for r in b[workload]]
            result, change = verdict(va, vb, metric["better"], metric["bound"])
            flagged += result in ("worse", "unresolved")
            print(f"{workload:14s} {name:12s} {metric['unit']:5s} "
                  f"{side(va):>34s} {side(vb):>34s} {change:+8.2%}  {result}")
        rates = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                 for runs in (a[workload], b[workload])]
        result = "worse" if rates[1] > rates[0] else "same"
        flagged += result == "worse"
        print(f"{workload:14s} {'error_rate':12s} {'':5s} {rates[0]:>34.4g} "
              f"{rates[1]:>34.4g} {'':8s}  {result}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

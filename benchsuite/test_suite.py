"""Tests of the benchmark suite itself: ``pytest benchsuite``.

Every workload runs one timed operation at tiny sizes; the tests check
that each declared metric is emitted with its unit, that traced self
times plus the unattributed gap add up to each round's wall time, and
that a wrong result is counted as a failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent
for path in (str(ROOT / "src"), str(SUITE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 3  # not 1: the recorded seed-1 campaign medians hold at full size only


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    """Shrink every workload so one round takes well under a second."""
    sizes = {
        workloads.CliCold: {"n_commands": 3},
        workloads.BatchSolve: {"n": 300, "n_checked": 5},
        workloads.RelayBatch: {"n": 40, "n_checked": 5},
        workloads.StoreHit: {"block": 4096},
        workloads.StoreExtend: {"block": 4096},
        workloads.Campaign: {"n_replicas": 8, "duration_s": 2.0},
        workloads.Mission: {"n_chaos": 3, "n_relay": 1},
    }
    for cls, attrs in sizes.items():
        for name, value in attrs.items():
            monkeypatch.setattr(cls, name, value)
    monkeypatch.setattr(tracing, "import_profile",
                        functools.partial(tracing.import_profile, reps=1))
    monkeypatch.setattr(tracing, "cli_profile",
                        functools.partial(tracing.cli_profile, reps=1))


def args_for(name: str, trace: int = 0) -> argparse.Namespace:
    return run.parse_args(["--workload", name, "--seed", str(SEED),
                           "--seconds", "0", "--trace", str(trace)])


def one_round(name: str) -> dict:
    workload = workloads.WORKLOADS[name]()
    try:
        client = run.drive(workload, SEED, 0, seconds=0.0)
    finally:
        workload.close()
    client["spawned"] = client["ready"] - 1.0
    return client


def assert_emitted(metrics: dict, declared: list) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for metric in declared:
        assert NAME.fullmatch(metric["name"])
        assert metrics[metric["name"]]["unit"] == metric["unit"]
        assert isinstance(metrics[metric["name"]]["value"], float)


def test_declared_workloads_and_metrics_match_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in DECLARED["end_to_end"]} \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]] \
        == [(name, spec[0], spec[1]) for name, spec in tracing.PER_LAYER.items()]
    for name, spec in tracing.PER_LAYER.items():
        moves, where = spec[3]
        assert moves in run.END_TO_END, name
        assert set(where) <= set(workloads.WORKLOADS) | {"all"}, name


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_round_emits_every_end_to_end_metric(name, capsys):
    client = one_round(name)
    report = run.untraced_report(args_for(name), [client])
    assert report["correct"], capsys.readouterr().out
    assert report["failed"] == 0
    assert report["attempted"] == workloads.WORKLOADS[name].warmup + 1
    assert_emitted(report["metrics"], DECLARED["end_to_end"])
    assert all(m["value"] > 0 for m in report["metrics"].values())


@pytest.mark.parametrize("name", ["batch-solve", "relay-batch", "store-extend",
                                  "campaign", "mission-r1"])
def test_traced_self_times_and_gap_sum_to_round_wall(name):
    workload = workloads.WORKLOADS[name]()
    try:
        result = tracing.traced_drive(workload, SEED, seconds=0.0)
    finally:
        workload.close()
    assert result["failed"] == []
    trace = result["trace"]
    assert trace["missing_targets"] == []
    for round_ in trace["rounds"]:
        attributed = sum(row["self_s"] for row in trace["tree"]
                         if row["round"] == round_["round"])
        assert attributed > 0
        assert attributed + round_["unattributed_s"] == pytest.approx(
            round_["wall_s"], rel=1e-9)


@pytest.mark.parametrize("name", ["cli-cold", "store-hit"])
def test_traced_run_emits_every_per_layer_metric(name, capsys):
    args = args_for(name, trace=1)
    workload = workloads.WORKLOADS[name]()
    try:
        result = run.trace_client(workload, args)
    finally:
        workload.close()
    report = run.trace_report(args, result)
    assert report["correct"], capsys.readouterr().out
    assert_emitted(report["metrics"], DECLARED["per_layer"])


def test_a_wrong_result_is_counted_as_a_failure(monkeypatch):
    workload = workloads.BatchSolve()
    honest = workload.run
    calls = []

    def corrupted(prepared):
        out = honest(prepared)
        calls.append(out)
        if len(calls) == 2:  # the first timed operation
            out.distance_m[0] = 1e6
        return out

    monkeypatch.setattr(workload, "run", corrupted)
    client = run.drive(workload, SEED, 0, seconds=0.0)
    assert client["attempted"] == 2
    assert client["failed"] == 1
    client["spawned"] = client["ready"] - 1.0
    assert not run.untraced_report(args_for("batch-solve"), [client])["correct"]


def test_compare_verdicts():
    assert compare.verdict([10, 10.1, 10.2], [10, 10.1, 10.2], "lower", 0.1)[0] \
        == "same"
    assert compare.verdict([10, 10.1, 10.2], [12, 12.1, 12.2], "lower", 0.1)[0] \
        == "worse"
    assert compare.verdict([10, 10.1, 10.2], [12, 12.1, 12.2], "higher", 0.1)[0] \
        == "better"
    assert compare.verdict([5, 10, 15], [5, 10, 15], "lower", 0.1)[0] \
        == "unresolved"
    assert compare.verdict([5, 10, 15], [20, 25, 30], "lower", 0.1)[0] \
        == "worse"

"""Tests for the repro.api RunResult envelope."""

import json

import pytest

from repro.api import (
    RESULT_SCHEMA_VERSION,
    BatchResult,
    FaultPlan,
    OptimalDecision,
    RunResult,
    chaos,
    scenario,
    solve,
    solve_batch,
    sweep,
)
from repro.obs import ObsContext


class TestEnvelope:
    def test_solve_returns_envelope(self):
        result = solve(scenario("airplane"))
        assert isinstance(result, RunResult)
        assert result.kind == "solve"
        assert result.schema_version == RESULT_SCHEMA_VERSION
        assert isinstance(result.outputs, OptimalDecision)
        assert result.scenario.name == "airplane"

    def test_attribute_delegation(self):
        result = solve(scenario("quadrocopter"))
        assert result.distance_m == result.outputs.distance_m
        assert result.to_dict() == result.outputs.to_dict()

    def test_missing_attribute_still_raises(self):
        result = solve(scenario("quadrocopter"))
        with pytest.raises(AttributeError):
            result.definitely_not_an_attribute

    def test_batch_delegation_len_iter_index(self):
        fleet = [scenario("airplane", mdata_mb=float(mb)) for mb in (5, 10, 15)]
        result = solve_batch(fleet)
        assert isinstance(result.outputs, BatchResult)
        assert len(result) == 3
        assert isinstance(result[1], OptimalDecision)
        assert [d.distance_m for d in result] == list(result.distance_m)

    def test_sweep_manifest_config(self):
        result = sweep(scenario("airplane"), "mdata_mb", [5.0, 10.0])
        payload = result.manifest.to_dict()
        assert payload["kind"] == "sweep"
        assert payload["config"]["param"] == "mdata_mb"
        assert payload["outputs"]["n"] == 2

    def test_large_batch_manifest_is_bounded(self):
        fleet = [
            scenario("airplane", mdata_mb=5.0 + 0.25 * i) for i in range(40)
        ]
        payload = solve_batch(fleet).manifest.to_dict()
        assert payload["outputs"]["n"] == 40
        assert "decisions" not in payload["outputs"]  # only dumped for <= 32
        assert payload["outputs"]["distance_m"]["min"] > 0

    def test_manifest_serialises(self):
        result = solve(scenario("airplane"))
        payload = json.loads(result.manifest.to_json())
        assert payload["kind"] == "solve"
        assert payload["config"]["scenario"] == "airplane"


class TestObsThreading:
    def test_obs_sinks_reach_the_manifest(self):
        obs = ObsContext.enabled(deterministic=True)
        result = solve_batch(
            [scenario("airplane", mdata_mb=7.25)], obs=obs
        )
        payload = result.manifest.to_dict()
        assert payload["metrics"]["counters"]["engine.batches"] == 1
        assert "engine.solve_batch" in payload["trace"]

    def test_chaos_defaults_to_deterministic_obs(self):
        plan = FaultPlan(name="t", seed=2).with_outage(5.0, 2.0)
        first = chaos(plan, scenario_name="quadrocopter", seed=2)
        second = chaos(plan, scenario_name="quadrocopter", seed=2)
        assert first.manifest.to_json() == second.manifest.to_json()
        counters = first.manifest.to_dict()["metrics"]["counters"]
        assert counters["faults.link_outage"] == 1


class TestOutputs:
    """Every entry point returns a RunResult; ``.outputs`` is the bare
    result object."""

    def test_solve_outputs_decision(self):
        result = solve(scenario("airplane"))
        assert isinstance(result, RunResult)
        assert isinstance(result.outputs, OptimalDecision)

    def test_solve_batch_outputs_batch(self):
        result = solve_batch([scenario("airplane")])
        assert isinstance(result, RunResult)
        assert isinstance(result.outputs, BatchResult)

    def test_sweep_outputs_batch(self):
        result = sweep(scenario("airplane"), "mdata_mb", [5.0])
        assert isinstance(result, RunResult)
        assert isinstance(result.outputs, BatchResult)

    def test_chaos_outputs_chaos_result(self):
        from repro.faults.chaos import ChaosResult

        plan = FaultPlan(name="t", seed=1)
        result = chaos(plan, scenario_name="quadrocopter")
        assert isinstance(result, RunResult)
        assert isinstance(result.outputs, ChaosResult)

    def test_default_path_does_not_warn(self, recwarn):
        solve(scenario("airplane"))
        assert not [
            w for w in recwarn if w.category is DeprecationWarning
        ]

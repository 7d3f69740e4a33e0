"""repro.api.solve_relay: envelope and store caching."""

import dataclasses

import pytest

from repro.api import solve_relay
from repro.core import airplane_scenario, quadrocopter_scenario
from repro.relay import RelayChain, RelayDecision


@pytest.fixture
def chain():
    return RelayChain.of(
        [quadrocopter_scenario(), airplane_scenario()],
        handoff_s=5.0,
        mdata_mb=2.0,
        deadline_s=300.0,
    )


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)


class TestEnvelope:
    def test_run_result_delegates_to_decision(self, chain, cache_env):
        result = solve_relay(chain)
        assert result.kind == "relay"
        assert isinstance(result.outputs, RelayDecision)
        assert result.utility == result.outputs.utility
        payload = result.manifest.to_dict()
        assert payload["kind"] == "relay"
        assert payload["config"]["n_hops"] == 2
        assert payload["outputs"]["meets_deadline"] is True


class TestStoreCaching:
    def test_warm_run_is_byte_identical_to_cold(self, chain, cache_env):
        cold = solve_relay(chain)
        warm = solve_relay(chain)
        assert warm.outputs == cold.outputs
        assert warm.manifest.to_json() == cold.manifest.to_json()

    def test_warm_run_skips_the_solver(self, chain, cache_env,
                                       monkeypatch):
        solve_relay(chain)  # populate

        from repro.relay.solver import RelaySolver

        def boom(self, chain, obs=None):
            raise AssertionError("warm run hit the solver")

        monkeypatch.setattr(RelaySolver, "solve", boom)
        warm = solve_relay(chain)
        assert isinstance(warm.outputs, RelayDecision)

    def test_refresh_bypasses_the_store(self, chain, cache_env,
                                        monkeypatch):
        cold = solve_relay(chain)
        from repro.relay.solver import RelaySolver

        calls = []
        original = RelaySolver.solve

        def counting(self, chain, obs=None):
            calls.append(chain.name)
            return original(self, chain, obs=obs)

        monkeypatch.setattr(RelaySolver, "solve", counting)
        fresh = solve_relay(chain, refresh=True)
        assert calls == [chain.name]
        assert fresh.manifest.to_json() == cold.manifest.to_json()

    def test_uncacheable_chain_always_solves_live(self, chain, cache_env):
        quad = quadrocopter_scenario()
        opaque = dataclasses.replace(
            quad, throughput=_OpaqueThroughput(quad)
        )
        uncacheable = RelayChain.of([opaque])
        assert uncacheable.cache_key() is None
        a = solve_relay(uncacheable)
        b = solve_relay(uncacheable)
        assert a.outputs == b.outputs  # deterministic, just not cached

    def test_distinct_chains_get_distinct_entries(self, chain, cache_env):
        other = RelayChain.of(
            [quadrocopter_scenario(), airplane_scenario()],
            handoff_s=9.0,
            mdata_mb=2.0,
            deadline_s=300.0,
        )
        assert solve_relay(chain).outputs != solve_relay(other).outputs

    def test_explicit_obs_disables_caching(self, chain, cache_env):
        from repro.obs import ObsContext

        obs = ObsContext.enabled(deterministic=True)
        result = solve_relay(chain, obs=obs)
        counters = obs.metrics.to_dict()["counters"]
        assert counters["relay.chains"] == 1
        assert result.manifest.to_dict()["metrics"] is not None


class _OpaqueThroughput:
    """A throughput law that cannot describe itself (no cache_key)."""

    def __init__(self, scenario):
        self._inner = scenario.throughput

    def __getattr__(self, name):
        if name == "cache_key":
            raise AttributeError(name)
        return getattr(self._inner, name)

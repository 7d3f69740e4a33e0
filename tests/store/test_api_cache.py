"""The cache= knob across the public API: sweep, campaign, chaos."""

import dataclasses

import numpy as np
import pytest

from repro.api import BatchSolverEngine, FaultPlan, chaos, scenario, solve, sweep
from repro.measurements.batch import BatchCampaignConfig, run_campaign
from repro.obs import ObsContext
from repro.store import ResultStore


COLUMNS = (
    "distance_m", "utility", "cdelay_s", "shipping_s", "transmission_s",
    "discount", "contact_distance_m", "speed_mps", "data_bits",
)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


class TestApiSweep:
    def test_warm_manifest_is_byte_identical(self, store):
        scn = scenario("quadrocopter")
        values = [float(v) for v in range(1, 40)]
        cold = sweep(scn, "mdata_mb", values, cache=store)
        warm = sweep(scn, "mdata_mb", values, cache=store)
        assert cold.manifest.to_json() == warm.manifest.to_json()

    def test_cache_false_never_touches_the_store(self, store):
        scn = scenario("quadrocopter")
        sweep(scn, "mdata_mb", [1.0, 2.0], cache=False)
        assert store.stats()["entries"] == 0

    def test_solve_round_trip(self, store):
        scn = scenario("airplane", mdata_mb=15.0)
        cold = solve(scn, cache=store)
        warm = solve(scn, cache=store)
        assert cold.manifest.to_json() == warm.manifest.to_json()
        assert store.counters["hits"] >= 1


    @pytest.mark.parametrize(
        "values",
        [np.arange(1, 4), [1, 2, 3], [1.0, 2.0, 3.0]],
        ids=["np_arange", "int", "float"],
    )
    def test_cache_on_and_off_accept_the_same_inputs(self, store, values):
        """Integer Mdata (NumPy or Python) sweeps with or without the
        store, and every path gives the float input's rows bit for bit."""
        scn = scenario("airplane")
        reference = sweep(scn, "mdata_mb", [1.0, 2.0, 3.0], cache=False)
        for cache in (False, store, store):
            result = sweep(
                scn, "mdata_mb", values, engine=BatchSolverEngine(), cache=cache
            )
            for name in COLUMNS:
                got, want = getattr(result, name), getattr(reference, name)
                assert got.tobytes() == want.tobytes(), name
            assert result.tolerance_m == reference.tolerance_m


class TestCampaignCache:
    CONFIG = BatchCampaignConfig(
        profile="quadrocopter",
        distances_m=(80.0, 160.0),
        n_replicas=4,
        duration_s=2.0,
        seed=3,
        block_size=4,
    )

    def test_warm_samples_are_bit_identical(self, store):
        cold = run_campaign(self.CONFIG, parallel=False, cache=store)
        warm = run_campaign(self.CONFIG, parallel=False, cache=store)
        assert cold.samples == warm.samples
        assert store.counters["hits"] >= 1

    def test_campaign_metrics_are_cache_invariant(self, store):
        def counters(obs):
            return {
                name: value
                for name, value in obs.metrics.to_dict()["counters"].items()
                if not name.startswith("store.")
            }

        cold_obs = ObsContext.enabled(deterministic=True)
        run_campaign(self.CONFIG, parallel=False, obs=cold_obs, cache=store)
        warm_obs = ObsContext.enabled(deterministic=True)
        run_campaign(self.CONFIG, parallel=False, obs=warm_obs, cache=store)
        assert counters(cold_obs) == counters(warm_obs)
        warm = warm_obs.metrics.to_dict()["counters"]
        assert warm["store.points.warm"] == 2 * 4  # every case restored

        # A store filled by an obs-free run still replays the channel
        # and fault counters an all-live obs run reports.
        faulty = dataclasses.replace(
            self.CONFIG, outage_rate_per_s=0.5, outage_mean_duration_s=1.0
        )
        live_obs = ObsContext.enabled(deterministic=True)
        run_campaign(faulty, parallel=False, obs=live_obs, cache=False)
        run_campaign(faulty, parallel=False, cache=store)
        replay_obs = ObsContext.enabled(deterministic=True)
        run_campaign(faulty, parallel=False, obs=replay_obs, cache=store)
        assert replay_obs.metrics.value("store.points.warm") == 2 * 4
        live = {
            name: value
            for name, value in counters(live_obs).items()
            if name.startswith(("channel.", "faults."))
        }
        assert live["channel.mean_cache_hits"] > 0
        assert live["faults.outage_replica_epochs"] > 0
        replayed = counters(replay_obs)
        assert {name: replayed.get(name) for name in live} == live

    def test_refresh_redispatches_every_shard(self, store):
        run_campaign(self.CONFIG, parallel=False, cache=store)
        obs = ObsContext.enabled(deterministic=True)
        run_campaign(
            self.CONFIG, parallel=False, obs=obs, cache=store, refresh=True
        )
        counters = obs.metrics.to_dict()["counters"]
        assert "store.points.warm" not in counters
        assert counters["store.points.cold"] == 2 * 4


class TestChaosCache:
    PLAN_KWARGS = dict(name="test", seed=7)

    def _plan(self):
        return FaultPlan(**self.PLAN_KWARGS).with_outage(5.0, 3.0)

    def test_warm_manifest_is_byte_identical(self, store):
        cold = chaos(self._plan(), scenario_name="quadrocopter", seed=7,
                     cache=store)
        assert store.stats()["entries"] == 1
        warm = chaos(self._plan(), scenario_name="quadrocopter", seed=7,
                     cache=store)
        assert cold.manifest.to_json() == warm.manifest.to_json()
        assert cold.outputs.to_dict() == warm.outputs.to_dict()
        assert store.counters["hits"] == 1

    def test_caller_obs_disables_caching(self, store):
        obs = ObsContext.enabled(deterministic=True)
        chaos(self._plan(), scenario_name="quadrocopter", seed=7,
              obs=obs, cache=store)
        assert store.stats()["entries"] == 0

    def test_live_telemetry_kwarg_disables_caching(self, store):
        """A kwarg without a canonical serialisation skips the store."""
        result = chaos(self._plan(), scenario_name="quadrocopter", seed=7,
                       max_resumes=np.int64(3), cache=store)
        assert store.stats()["entries"] == 0
        assert result.outputs.counters  # the live run still happened

    def test_corrupt_entry_falls_back_to_a_live_run(self, store):
        cold = chaos(self._plan(), scenario_name="quadrocopter", seed=7,
                     cache=store)
        # Scribble over the only entry: the warm path must re-run live.
        key = next(store.root.joinpath("objects").rglob("*.json")).stem
        store._object_path(key).write_text("broken")
        warm = chaos(self._plan(), scenario_name="quadrocopter", seed=7,
                     cache=store)
        assert cold.manifest.to_json() == warm.manifest.to_json()
        assert store.counters["corrupt"] == 1

"""Incremental execution: cold/warm identity, partial reuse, fallbacks."""

import numpy as np
import pytest

from repro.core.scenario import airplane_scenario, quadrocopter_scenario
from repro.engine.batch import BatchSolverEngine
from repro.obs import ObsContext
from repro.store import (
    ResultStore,
    solve_batch_incremental,
    solve_incremental,
    sweep_incremental,
)
from repro.store.incremental import (
    _decode_group,
    _group_entry,
    _group_key,
    _sweep_group_key,
)

COLUMNS = (
    "distance_m", "utility", "cdelay_s", "shipping_s", "transmission_s",
    "discount", "contact_distance_m", "speed_mps", "data_bits",
)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


def fresh_engine(**kwargs):
    return BatchSolverEngine(cache_size=0, **kwargs)


def assert_batches_equal(a, b):
    for name in COLUMNS:
        np.testing.assert_array_equal(
            getattr(a, name), getattr(b, name), err_msg=name
        )
    assert a.tolerance_m == b.tolerance_m


class TestSweepIdentity:
    def test_warm_sweep_is_bit_identical(self, store):
        scn = quadrocopter_scenario()
        values = np.geomspace(1e-5, 1e-2, 600)
        cold, cold_report = sweep_incremental(
            fresh_engine(), scn, "rho_per_m", values, store
        )
        warm, warm_report = sweep_incremental(
            fresh_engine(), scn, "rho_per_m", values, store
        )
        assert_batches_equal(cold, warm)
        assert cold_report.warm_points == 0
        assert cold_report.cold_points == 600
        assert warm_report.warm_points == 600
        assert warm_report.entry_misses == 0

    def test_cold_sweep_matches_plain_engine(self, store):
        scn = quadrocopter_scenario()
        values = np.linspace(1.0, 60.0, 50)
        cached, _ = sweep_incremental(
            fresh_engine(), scn, "mdata_mb", values, store
        )
        plain = fresh_engine().sweep(scn, "mdata_mb", values)
        assert_batches_equal(cached, plain)

    def test_partial_warm_only_solves_missing(self, store, tmp_path):
        # rho = 5e-3 puts the optimum of the far contacts inside
        # (d_min, d0), where it depends on the solver's grid rather
        # than snapping to a bound.
        scn = airplane_scenario(rho_per_m=5e-3)
        values = np.linspace(40.0, 290.0, 81)
        sweep_incremental(fresh_engine(), scn, "d0_m", values[::2], store)
        result, report = sweep_incremental(
            fresh_engine(), scn, "d0_m", values, store
        )
        assert report.warm_points == 41
        assert report.cold_points == 40
        cold, _ = sweep_incremental(
            fresh_engine(), scn, "d0_m", values, ResultStore(tmp_path / "cold")
        )
        interior = (cold.distance_m > 20.0) & (
            cold.distance_m < cold.contact_distance_m
        )
        assert interior[1::2].sum() >= 4
        assert_batches_equal(result, cold)

    def test_alias_and_raw_field_share_entries(self, store):
        """mdata_mb sweeps hit entries written via data_bits_override."""
        scn = quadrocopter_scenario()
        mb = np.linspace(1.0, 20.0, 10)
        sweep_incremental(fresh_engine(), scn, "mdata_mb", mb, store)
        _, report = sweep_incremental(
            fresh_engine(), scn, "data_bits_override", mb * 8e6, store
        )
        assert report.warm_points == 10

    def test_mdata_must_be_positive(self, store):
        with pytest.raises(ValueError, match="Mdata must be positive"):
            sweep_incremental(
                fresh_engine(), quadrocopter_scenario(), "mdata_mb",
                [10.0, -1.0], store,
            )

    def test_unsweepable_param_falls_back_to_variants(self, store):
        """Non-numeric sweeps route through the generic batch path."""
        scn = quadrocopter_scenario()
        result, report = sweep_incremental(
            fresh_engine(), scn, "name", ["a", "b"], store
        )
        assert report.enabled
        assert len(result) == 2
        np.testing.assert_array_equal(
            result.distance_m[0], result.distance_m[1]
        )

    def test_refresh_recomputes(self, store):
        scn = quadrocopter_scenario()
        values = np.linspace(1.0, 20.0, 10)
        sweep_incremental(fresh_engine(), scn, "mdata_mb", values, store)
        result, report = sweep_incremental(
            fresh_engine(), scn, "mdata_mb", values, store, refresh=True
        )
        assert report.warm_points == 0
        assert report.cold_points == 10
        plain = fresh_engine().sweep(scn, "mdata_mb", values)
        assert_batches_equal(result, plain)


    def test_sweep_builds_no_rows(self, store, monkeypatch):
        """Keys, engine dispatch and merge all stay columnar."""
        from repro.core.scenario import Scenario

        scn = airplane_scenario()
        values = np.linspace(3.0, 25.0, 200)  # groups of one point
        want = fresh_engine().solve_batch(
            [scn.with_(speed_mps=v) for v in values]
        )
        calls = []
        original = Scenario.with_

        def spy(self, **overrides):
            calls.append(overrides)
            return original(self, **overrides)

        monkeypatch.setattr(Scenario, "with_", spy)
        sweep_incremental(fresh_engine(), scn, "speed_mps", values[::2], store)
        result, report = sweep_incremental(
            fresh_engine(), scn, "speed_mps", values, store
        )
        assert calls == []
        assert 0 < report.warm_points < report.points
        assert_batches_equal(result, want)


#: Entries whose checksum holds but whose contents are not a group of
#: this schema: each must decode to None (a miss), never raise.
MALFORMED = {
    "reversed-columns": lambda b, t: ({**b, "columns": b["columns"][::-1]}, t),
    "missing-column": lambda b, t: ({**b, "columns": b["columns"][:-1]}, t),
    "extra-column": lambda b, t: ({**b, "columns": b["columns"] + ["x"]}, t),
    "short-tail": lambda b, t: (b, t[:-8]),
    "long-tail": lambda b, t: (b, t + t[:8]),
    "ragged-tail": lambda b, t: (b, t[:-1]),
    "float-n": lambda b, t: ({**b, "n": float(b["n"])}, t),
    "bool-n": lambda b, t: ({**b, "n": True}, t),
    "no-n": lambda b, t: ({k: v for k, v in b.items() if k != "n"}, t),
    "str-tolerance": lambda b, t: ({**b, "tolerance_m": "x"}, t),
    "null-tolerance": lambda b, t: ({**b, "tolerance_m": None}, t),
    "not-a-dict": lambda b, t: ([b], t),
    # The schema-1 layout: base64 column strings in the body, no tail.
    "schema-1": lambda b, t: (
        {**b, "columns": {name: "AAAAAAAA8D8=" for name in b["columns"]}},
        b"",
    ),
}


class TestEntryCodec:
    @pytest.fixture
    def solved(self):
        return fresh_engine().sweep(
            quadrocopter_scenario(), "mdata_mb", np.linspace(1.0, 20.0, 5)
        )

    def test_round_trip(self, solved):
        body, tail = _group_entry(solved, 1, 4)
        assert body == {
            "n": 3,
            "tolerance_m": solved.tolerance_m,
            "columns": list(COLUMNS),
        }
        assert len(tail) == 9 * 3 * 8
        block, tolerance = _decode_group((body, memoryview(tail)))
        assert tolerance == solved.tolerance_m
        assert block.shape == (9, 3) and block.dtype == np.float64
        for row, name in zip(block, COLUMNS):
            np.testing.assert_array_equal(
                row, getattr(solved, name)[1:4], err_msg=name
            )

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_entry_is_refused(self, solved, name):
        body, tail = MALFORMED[name](*_group_entry(solved, 0, 5))
        assert _decode_group((body, memoryview(tail))) is None

    def test_refused_entry_is_recomputed(self, store):
        """A well-formed document with a malformed group is a miss."""
        scn = quadrocopter_scenario()
        values = np.linspace(1.0, 20.0, 300)  # one group
        cold, _ = sweep_incremental(
            fresh_engine(), scn, "mdata_mb", values, store
        )
        (path,) = sorted((store.root / "objects").rglob("*.json"))
        body, tail = store.get(path.stem)
        store.put(path.stem, body, bytes(tail)[:-8])
        again, report = sweep_incremental(
            fresh_engine(), scn, "mdata_mb", values, store
        )
        assert report.warm_points == 0
        assert_batches_equal(again, cold)
        warm, report = sweep_incremental(
            fresh_engine(), scn, "mdata_mb", values, store
        )
        assert report.warm_points == 300
        assert_batches_equal(warm, cold)

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_refused_entry_counts_as_corrupt(self, store, name):
        """An entry that passes its checksum but that the codec refuses
        is a corrupt miss, dropped and re-put: never a hit."""
        scn = quadrocopter_scenario()
        values = np.linspace(1.0, 20.0, 300)  # one eq2.sweep group
        sweep_incremental(fresh_engine(), scn, "mdata_mb", values, store)
        (path,) = sorted((store.root / "objects").rglob("*.json"))
        body, tail = store.get(path.stem)
        store.put(path.stem, *MALFORMED[name](body, bytes(tail)))
        obs = ObsContext.enabled(deterministic=True)
        _, report = sweep_incremental(
            fresh_engine(), scn, "mdata_mb", values, store, obs=obs
        )
        counters = obs.metrics.to_dict()["counters"]
        counts = {
            name: counters.get(f"store.{name}", 0)
            for name in ("hits", "misses", "corrupt", "puts")
        }
        assert counts == {"hits": 0, "misses": 1, "corrupt": 1, "puts": 1}
        hit_ratio = counts["hits"] / (counts["hits"] + counts["misses"])
        assert hit_ratio == 0.0
        assert (report.entry_hits, report.entry_misses) == (0, 1)
        (again,) = sorted((store.root / "objects").rglob("*.json"))
        assert again == path
        assert store.get(path.stem, decode=_decode_group) is not None


class TestBatchIdentity:
    def test_warm_batch_is_bit_identical(self, store):
        scns = [
            quadrocopter_scenario(mdata_mb=float(mb))
            for mb in range(1, 31)
        ]
        cold, _ = solve_batch_incremental(fresh_engine(), scns, store)
        warm, report = solve_batch_incremental(fresh_engine(), scns, store)
        assert_batches_equal(cold, warm)
        assert report.warm_points == 30

    def test_solve_shares_entries_with_small_batches(self, store):
        scn = quadrocopter_scenario(mdata_mb=17.0)
        solve_batch_incremental(fresh_engine(), [scn], store)
        decision, report = solve_incremental(fresh_engine(), scn, store)
        assert report.warm_points == 1
        plain = fresh_engine().solve(scn)
        assert decision.distance_m == plain.distance_m
        assert decision.utility == plain.utility

    def test_solve_cold_then_warm(self, store):
        scn = quadrocopter_scenario()
        cold, cold_report = solve_incremental(fresh_engine(), scn, store)
        warm, warm_report = solve_incremental(fresh_engine(), scn, store)
        assert cold_report.entry_misses == 1
        assert warm_report.entry_hits == 1
        assert cold.to_dict() == warm.to_dict()

    def test_unkeyable_scenario_disables_the_store(self, store):
        class OpaqueThroughput:
            def throughput_bps(self, distance_m):
                return max(1e3, 30e6 - 1e5 * distance_m)

            def throughput_bps_moving(self, distance_m, speed_mps):
                return self.throughput_bps(distance_m)

        scn = quadrocopter_scenario().with_(throughput=OpaqueThroughput())
        decision, report = solve_incremental(fresh_engine(), scn, store)
        assert report.enabled is False
        assert decision.distance_m > 0
        assert store.stats()["entries"] == 0

    def test_empty_batch(self, store):
        result, report = solve_batch_incremental(fresh_engine(), [], store)
        assert len(result) == 0
        assert report.enabled is False


class TestEngineSettingsInKeys:
    def test_different_grids_do_not_collide(self, store):
        scn = quadrocopter_scenario()
        solve_incremental(fresh_engine(grid_step_m=10.0), scn, store)
        _, report = solve_incremental(
            fresh_engine(grid_step_m=0.5), scn, store
        )
        assert report.entry_misses == 1  # separate entry, not a stale hit
        assert store.stats()["entries"] == 2

    def test_chunk_size_is_scheduling_only(self, store):
        """Engines differing only in chunk_size share every entry."""
        scn = quadrocopter_scenario()
        small, large = fresh_engine(chunk_size=7), fresh_engine(chunk_size=512)
        point = small.point_key(scn)
        values = np.linspace(1.0, 60.0, 300)
        assert _group_key(small, [point]) == _group_key(large, [point])
        assert _sweep_group_key(
            small, point, "data_bits_override", values
        ) == _sweep_group_key(large, point, "data_bits_override", values)
        cold, _ = sweep_incremental(small, scn, "mdata_mb", values, store)
        warm, report = sweep_incremental(large, scn, "mdata_mb", values, store)
        assert report.cold_points == 0
        assert_batches_equal(cold, warm)


class TestObsIntegration:
    def test_store_counters_land_in_metrics(self, store):
        scn = quadrocopter_scenario()
        values = np.linspace(1.0, 20.0, 10)
        obs = ObsContext.enabled(deterministic=True)
        sweep_incremental(
            fresh_engine(), scn, "mdata_mb", values, store, obs=obs
        )
        counters = obs.metrics.to_dict()["counters"]
        assert counters["store.points.cold"] == 10
        assert counters["store.puts"] == 10
        warm_obs = ObsContext.enabled(deterministic=True)
        sweep_incremental(
            fresh_engine(), scn, "mdata_mb", values, store, obs=warm_obs
        )
        warm_counters = warm_obs.metrics.to_dict()["counters"]
        assert warm_counters["store.points.warm"] == 10
        assert warm_counters["store.hits"] == 10
        assert not any(
            name.startswith("engine.") for name in warm_counters
        )

    def test_store_spans_are_traced(self, store):
        scn = quadrocopter_scenario()
        obs = ObsContext.enabled(deterministic=True)
        sweep_incremental(
            fresh_engine(), scn, "mdata_mb", np.linspace(1, 20, 5),
            store, obs=obs,
        )
        names = {span.name for span in obs.tracer.spans}
        assert "store.key" in names
        assert "store.put" in names

"""Tests for the vectorised batch solver engine (repro.engine)."""

import numpy as np
import pytest

from repro.api import (
    BatchResult,
    BatchSolverEngine,
    OptimalDecision,
    airplane_scenario,
    quadrocopter_scenario,
    scenario as make_scenario,
    solve,
    solve_batch,
    sweep,
)
from repro.core.scenario import ScenarioSweep, sweep_rows
from repro.core.throughput import (
    LogFitThroughput,
    SpeedScaledThroughput,
    TableThroughput,
)
from repro.engine.batch import _Params
from repro.obs import ObsContext

from .scipy_reference import scalar_reference

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional dep
    HAVE_HYPOTHESIS = False


def fresh_engine(**kwargs):
    return BatchSolverEngine(**kwargs)


class TestBatchMatchesScalar:
    def test_baselines_match(self):
        engine = fresh_engine()
        scenarios = [airplane_scenario(), quadrocopter_scenario()]
        batch = engine.solve_batch(scenarios)
        for scenario, decision in zip(scenarios, batch):
            reference = scalar_reference(scenario, engine)
            assert decision.distance_m == pytest.approx(
                reference.distance_m, abs=engine.refine_tolerance_m
            )
            assert decision.utility == pytest.approx(
                reference.utility, rel=1e-9
            )

    def test_mixed_sweep_matches(self):
        engine = fresh_engine()
        scenarios = [
            airplane_scenario(mdata_mb=m, speed_mps=v, rho_per_m=rho)
            for m in (5.0, 28.0, 45.0)
            for v in (3.0, 10.0, 20.0)
            for rho in (1.11e-4, 2e-3, 1e-2)
        ] + [
            quadrocopter_scenario(mdata_mb=m, d0_m=d0)
            for m in (10.0, 56.2)
            for d0 in (40.0, 100.0)
        ]
        batch = engine.solve_batch(scenarios)
        assert len(batch) == len(scenarios)
        for scenario, decision in zip(scenarios, batch):
            reference = scalar_reference(scenario, engine)
            assert decision.distance_m == pytest.approx(
                reference.distance_m, abs=engine.refine_tolerance_m
            ), scenario.cache_key()

    if HAVE_HYPOTHESIS:

        @settings(max_examples=40, deadline=None)
        @given(
            mdata_mb=st.floats(0.5, 100.0),
            speed=st.floats(1.0, 25.0),
            rho=st.floats(0.0, 2e-2),
            d0=st.floats(25.0, 400.0),
        )
        def test_property_batch_equals_scalar(self, mdata_mb, speed, rho, d0):
            engine = fresh_engine(cache_size=0)
            scenario = airplane_scenario(
                mdata_mb=mdata_mb, speed_mps=speed, rho_per_m=rho, d0_m=d0
            )
            decision = engine.solve_batch([scenario])[0]
            reference = scalar_reference(scenario, engine)
            # Distances agree to the refinement tolerance; utilities (the
            # quantity being maximised, flat near the top) far tighter.
            assert decision.distance_m == pytest.approx(
                reference.distance_m, abs=engine.refine_tolerance_m
            )
            assert decision.utility == pytest.approx(
                reference.utility, rel=1e-6
            )

    def test_degenerate_span_pins_floor(self):
        engine = fresh_engine()
        scenario = airplane_scenario(d0_m=20.0)
        decision = engine.solve(scenario)
        assert decision.distance_m == 20.0
        assert decision.shipping_s == 0.0

    def test_table_throughput_rows_supported(self):
        """Non-logfit models take the row-wise path, same answers."""
        engine = fresh_engine()
        table = TableThroughput(
            {20.0: 36e6, 40.0: 35e6, 60.0: 33e6, 100.0: 17.8e6}
        )
        scenario = quadrocopter_scenario().with_(throughput=table)
        batch = engine.solve_batch([scenario, airplane_scenario()])
        reference = scalar_reference(scenario, engine)
        assert batch[0].distance_m == pytest.approx(
            reference.distance_m, abs=engine.refine_tolerance_m
        )

    def test_validation_matches_scalar(self):
        engine = fresh_engine()
        with pytest.raises(ValueError):
            engine.solve_batch([airplane_scenario().with_(data_bits=0.0)])


class TestNonConcave:
    """Two throughput peaks (40 m and 55 m) inside one grid bracket.

    The floors are the utilities the grid + SciPy-Brent solver reached
    on these cases; the vectorised sub-grid rescan must never do worse.
    """

    TABLE = TableThroughput(
        {20: 5e6, 40: 30e6, 45: 6e6, 55: 31e6, 60: 5e6, 100: 4e6}
    )
    FLOORS = {
        5.0: 0.04035280882488111,
        10.0: 0.03478654796621679,
        20.0: 0.03478654796621679,
        25.0: 0.04035277912701264,
    }

    @pytest.mark.parametrize("step", sorted(FLOORS))
    def test_rescan_never_loses_to_brent(self, step):
        scenario = quadrocopter_scenario().with_(throughput=self.TABLE)
        engine = fresh_engine(grid_step_m=step, cache_size=0)
        decision = engine.solve(scenario)
        assert decision.utility >= self.FLOORS[step]
        # The rescan path is row-local too.
        batch = engine.solve_batch([airplane_scenario(), scenario])
        assert batch[1] == decision
        scalar = scenario.optimizer(step).optimize(
            scenario.contact_distance_m,
            scenario.cruise_speed_mps,
            scenario.data_bits,
        )
        assert scalar.utility >= self.FLOORS[step]

    def test_rescan_rows_counted(self):
        scenario = quadrocopter_scenario().with_(throughput=self.TABLE)
        engine = fresh_engine(cache_size=0)
        obs = ObsContext.enabled(deterministic=True)
        engine.solve_batch([airplane_scenario(), scenario], obs=obs)
        assert obs.metrics.value("engine.rescan_rows") == 1
        # Concave-only batches emit no counter, keeping their manifests
        # free of it.
        plain = ObsContext.enabled(deterministic=True)
        engine.solve_batch([airplane_scenario()], obs=plain)
        assert "engine.rescan_rows" not in plain.metrics


class TestBatchResult:
    def test_container_protocols(self):
        batch = fresh_engine().solve_batch(
            [airplane_scenario(), quadrocopter_scenario()]
        )
        assert len(batch) == 2
        assert isinstance(batch[0], OptimalDecision)
        assert [d.distance_m for d in batch] == list(batch.distance_m)
        assert len(batch.decisions()) == 2
        assert isinstance(batch.distance_m, np.ndarray)

    def test_to_dicts_json_ready(self):
        import json

        batch = fresh_engine().solve_batch([airplane_scenario()])
        payloads = batch.to_dicts()
        assert json.loads(json.dumps(payloads)) == payloads
        assert payloads[0]["contact_distance_m"] == 300.0

    def test_from_decisions_round_trip(self):
        engine = fresh_engine()
        decisions = [engine.solve(quadrocopter_scenario())]
        batch = BatchResult.from_decisions(decisions)
        assert batch[0] == decisions[0]


class TestMemoisation:
    def test_cache_hits_on_repeat(self):
        engine = fresh_engine()
        scenarios = [airplane_scenario(mdata_mb=m) for m in (5.0, 10.0, 15.0)]
        first = [engine.solve(s) for s in scenarios]
        before = engine.cache_info()
        again = [engine.solve(s) for s in scenarios]
        after = engine.cache_info()
        assert after.hits == before.hits + len(scenarios)
        assert after.misses == before.misses
        assert again == first

    def test_batch_leaves_cache_info_unchanged(self):
        pool = memo_pool()
        engine = fresh_engine(cache_size=4)
        for scenario in pool[:6]:
            engine.solve(scenario)
        before = engine.cache_info()
        order = list(engine._cache._data)
        for batch in (pool, pool[::-1], pool[2:5] * 3, []):
            engine.solve_batch(batch)
            engine.sweep(pool[0], "rho_per_m", [1e-4, 2e-3, 1e-4])
            assert engine.cache_info() == before
            assert list(engine._cache._data) == order

    def test_batch_never_calls_thread_map(self, monkeypatch):
        from repro.exec import ExecBackend

        calls = []
        original = ExecBackend.thread_map

        def spy(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ExecBackend, "thread_map", spy)
        pool = memo_pool() * 5
        engine = fresh_engine(chunk_size=3, max_workers=4)
        engine.solve_batch(pool)
        engine.sweep(airplane_scenario(), "rho_per_m", np.geomspace(1e-5, 1e-2, 50))
        solve_batch(pool, engine=engine, cache=False)
        assert calls == []

    def test_cache_clear(self):
        engine = fresh_engine()
        engine.solve(airplane_scenario())
        engine.cache_clear()
        info = engine.cache_info()
        assert info.currsize == 0 and info.hits == 0

    def test_unkeyable_scenarios_still_solved(self):
        class OpaqueThroughput:
            """No cache_key: memoisation must be skipped, not crash."""

            def throughput_bps(self, distance_m):
                return max(1e3, 30e6 - 1e5 * distance_m)

            def throughput_bps_moving(self, distance_m, speed_mps):
                return self.throughput_bps(distance_m)

        engine = fresh_engine()
        scenario = quadrocopter_scenario().with_(throughput=OpaqueThroughput())
        assert scenario.cache_key() is None
        decision = engine.solve(scenario)
        assert 20.0 <= decision.distance_m <= 100.0
        assert engine.cache_info().currsize == 0

    def test_different_engine_settings_do_not_collide(self):
        coarse = fresh_engine(grid_step_m=10.0)
        fine = fresh_engine(grid_step_m=0.5)
        s = airplane_scenario(rho_per_m=2e-3)
        assert coarse._key(s) != fine._key(s)


class TestChunking:
    def test_chunked_matches_one_pass(self):
        scenarios = [
            airplane_scenario(mdata_mb=5.0 + 0.5 * i) for i in range(40)
        ]
        one_pass = fresh_engine(cache_size=0).solve_batch(scenarios)
        chunked = fresh_engine(cache_size=0, chunk_size=8).solve_batch(scenarios)
        assert_bitwise_equal(chunked, one_pass)

    def test_max_workers_has_no_effect(self):
        scenarios = [airplane_scenario(), quadrocopter_scenario()] * 5
        want = fresh_engine(chunk_size=3).solve_batch(scenarios)
        got = fresh_engine(chunk_size=3, max_workers=4).solve_batch(scenarios)
        assert_bitwise_equal(got, want)

    @pytest.mark.parametrize("chunk_size", [1, 7, 2048, None])
    def test_rows_bitwise_equal_scalar_solves(self, chunk_size):
        kwargs = {} if chunk_size is None else {"chunk_size": chunk_size}
        pool = memo_pool() + [
            make_scenario(
                name, rho_per_m=rho, d0_m=d0, mdata_mb=mdata, speed_mps=speed
            )
            for name in ("airplane", "quadrocopter")
            for rho in (0.0, 1e-5, 3e-3, 1e-2)
            for d0, mdata, speed in ((40.0, 1.0, 3.0), (290.0, 80.0, 24.0))
        ]
        batch = fresh_engine(**kwargs).solve_batch(pool)
        for i, scenario in enumerate(pool):
            single = fresh_engine(**kwargs).solve(scenario)
            for name in COLUMNS:
                got = np.float64(getattr(batch, name)[i]).tobytes()
                assert got == np.float64(getattr(single, name)).tobytes(), (i, name)
            assert batch.tolerance_m == single.tolerance_m

    def test_empty_batch(self):
        batch = fresh_engine().solve_batch([])
        assert len(batch) == 0
        assert list(batch) == []


class TestSweepAndCurves:
    def test_sweep_matches_individual_solves(self):
        engine = fresh_engine()
        values = [5.0, 15.0, 45.0]
        swept = engine.sweep(airplane_scenario(), "mdata_mb", values)
        for value, decision in zip(values, swept):
            assert decision.data_bits == pytest.approx(value * 8e6)

    def test_utility_curves_match_scalar_curve(self):
        engine = fresh_engine()
        scenario = quadrocopter_scenario()
        distances, utilities = engine.utility_curves([scenario], n_points=50)
        ref_d, ref_u = scenario.optimizer().utility_curve(
            scenario.contact_distance_m,
            scenario.cruise_speed_mps,
            scenario.data_bits,
            n_points=50,
        )
        np.testing.assert_allclose(distances[0], ref_d)
        np.testing.assert_allclose(utilities[0], ref_u, rtol=1e-12)

    def test_engine_constructor_validation(self):
        with pytest.raises(ValueError):
            fresh_engine(grid_step_m=0.0)
        with pytest.raises(ValueError):
            fresh_engine(refine_tolerance_m=-1.0)
        with pytest.raises(ValueError):
            fresh_engine(chunk_size=0)
        with pytest.raises(ValueError):
            fresh_engine(max_workers=0)


class TestFacade:
    def test_scenario_factory_by_name(self):
        s = make_scenario("airplane", mdata_mb=10.0)
        assert s.name == "airplane"
        assert s.data_megabytes == pytest.approx(10.0)
        with pytest.raises(ValueError):
            make_scenario("zeppelin")

    def test_solve_and_batch_consistent(self):
        s = quadrocopter_scenario()
        assert solve(s).distance_m == solve_batch([s])[0].distance_m

    def test_sweep_facade(self):
        result = sweep(airplane_scenario(), "rho_per_m", [1e-3, 5e-3])
        assert len(result) == 2
        assert result.distance_m[1] >= result.distance_m[0] - 1e-6

    def test_scenario_with_aliases(self):
        s = airplane_scenario().with_(
            mdata_mb=12.0, speed_mps=7.0, rho_per_m=1e-3, d0_m=250.0
        )
        assert s.data_megabytes == pytest.approx(12.0)
        assert s.cruise_speed_mps == 7.0
        assert s.failure_rate_per_m == 1e-3
        assert s.contact_distance_m == 250.0
        with pytest.raises(TypeError):
            airplane_scenario().with_(warp_factor=9)
        with pytest.raises(ValueError):
            airplane_scenario().with_(mdata_mb=-1.0)


# ----------------------------------------------------------------------
# Columnar batch path: memo equivalence, aliasing, validation order
# ----------------------------------------------------------------------

COLUMNS = (
    "distance_m", "utility", "cdelay_s", "shipping_s", "transmission_s",
    "discount", "contact_distance_m", "speed_mps", "data_bits",
)


class OpaqueTable(TableThroughput):
    """A table law that cannot describe itself: solved, never memoised."""

    def cache_key(self):
        return None


def memo_pool():
    """Eleven scenarios: eight log-fit rows, two uncacheable table rows
    (8, 9) and one cacheable table row (10)."""
    table = {20.0: 36e6, 40.0: 35e6, 60.0: 33e6, 100.0: 17.8e6}
    return [
        airplane_scenario(mdata_mb=5.0),
        airplane_scenario(mdata_mb=28.0, rho_per_m=2e-3),
        airplane_scenario(speed_mps=4.0, d0_m=150.0),
        quadrocopter_scenario(),
        quadrocopter_scenario(mdata_mb=10.0, d0_m=60.0),
        quadrocopter_scenario(rho_per_m=8e-3),
        airplane_scenario(rho_per_m=1e-2, d0_m=250.0),
        quadrocopter_scenario(speed_mps=9.0, mdata_mb=30.0),
        quadrocopter_scenario().with_(throughput=OpaqueTable(table)),
        quadrocopter_scenario(mdata_mb=3.0).with_(throughput=OpaqueTable(table)),
        quadrocopter_scenario(d0_m=90.0).with_(throughput=TableThroughput(table)),
    ]


#: ``cache_size`` and the batches (pool indices) each case solves in
#: turn, after the scalar warm-up ``MEMO_WARMUP``.
MEMO_CASES = {
    "mixed_hit_miss": (8, [[0, 1, 2, 8, 3], [2, 4, 0, 9, 5, 1], [10, 3, 8, 4]]),
    "duplicates_in_batch": (8, [[0, 1, 0, 8, 1, 2, 8], [1, 0, 3, 3, 10, 10]]),
    "uncacheable_only": (8, [[8, 9, 8], [9, 8]]),
    "cache_size_zero": (0, [[0, 1, 0, 8], [0, 1, 0, 8]]),
    "larger_than_cache": (
        3, [[0, 1, 2, 3, 4, 5, 10], [5, 0, 10, 4, 6], [7, 6, 5, 6, 7, 1, 2, 9]]
    ),
}

#: Pool rows solved one by one before the batches: two cacheable rows
#: and one uncacheable row (8), which is solved but never looked up.
MEMO_WARMUP = (3, 0, 8)

#: ``(hits, misses, currsize, LRU order as pool indices)`` after the
#: warm-up.  Batches neither read nor write the memo, so every batch
#: leaves it so.
MEMO_EXPECTED = {
    "cache_size_zero": (0, 0, 0, []),
    "duplicates_in_batch": (0, 2, 2, [3, 0]),
    "larger_than_cache": (0, 2, 2, [3, 0]),
    "mixed_hit_miss": (0, 2, 2, [3, 0]),
    "uncacheable_only": (0, 2, 2, [3, 0]),
}


def run_memo_case(name):
    """Warm the memo, then solve one case's batches; returns their
    results and the memo state (see ``MEMO_EXPECTED``) after each."""
    cache_size, batches = MEMO_CASES[name]
    pool = memo_pool()
    engine = fresh_engine(cache_size=cache_size)
    index = {engine.point_key(s): i for i, s in enumerate(pool)}
    for i in MEMO_WARMUP:
        engine.solve(pool[i])
    results, states = [], []
    for batch in batches:
        results.append(engine.solve_batch([pool[i] for i in batch]))
        info = engine.cache_info()
        order = [index[key] for key in engine._cache._data]
        states.append((info.hits, info.misses, info.currsize, order))
    return results, states


def assert_bitwise_equal(result, reference):
    for name in COLUMNS:
        got, want = getattr(result, name), getattr(reference, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert result.tolerance_m == reference.tolerance_m


class TestMemoEquivalence:
    @pytest.mark.parametrize("name", sorted(MEMO_CASES))
    def test_columns_equal_an_all_cold_batch(self, name):
        pool = memo_pool()
        results, _ = run_memo_case(name)
        for batch, result in zip(MEMO_CASES[name][1], results):
            cold = fresh_engine(cache_size=0).solve_batch(
                [pool[i] for i in batch]
            )
            assert_bitwise_equal(result, cold)

    @pytest.mark.parametrize("name", sorted(MEMO_CASES))
    def test_counters_and_lru_order_pinned(self, name):
        _, states = run_memo_case(name)
        assert states == [MEMO_EXPECTED[name]] * len(MEMO_CASES[name][1])

    def test_memo_rows_are_immutable_tuples(self):
        engine = fresh_engine()
        for scenario in memo_pool():
            engine.solve(scenario)
        rows = list(engine._cache._data.values())
        assert rows and all(
            type(row) is tuple and len(row) == len(COLUMNS)
            and all(type(x) is float for x in row)
            for row in rows
        )


class TestAliasing:
    def test_writes_into_result_columns_do_not_reach_the_memo(self):
        pool = memo_pool()
        engine = fresh_engine()
        first = engine.solve_batch(pool)
        snapshot = fresh_engine(cache_size=0).solve_batch(pool)
        for name in COLUMNS:
            getattr(first, name)[:] = -1.0
        warm = engine.solve_batch(pool)  # solved again: no memo read
        assert_bitwise_equal(warm, snapshot)
        for name in COLUMNS:
            getattr(warm, name)[:] = np.nan
        assert_bitwise_equal(engine.solve_batch(pool), snapshot)
        for i, scenario in enumerate(pool):
            assert engine.solve(scenario) == snapshot[i]

    def test_solve_equals_batch_row(self):
        pool = memo_pool()
        for kwargs in ({}, {"refine_tolerance_m": 1e-8}, {"grid_step_m": 5.0}):
            engine = fresh_engine(**kwargs)
            engine.solve_batch(pool)
            for scenario in pool:
                single = engine.solve(scenario)
                row = engine.solve_batch([scenario])[0]
                assert single == row  # field for field, tolerance_m too
                assert single.tolerance_m == max(engine.refine_tolerance_m, 1e-6)
                assert single == fresh_engine(**kwargs).solve(scenario)

    def test_empty_batch_keeps_default_tolerance(self):
        assert fresh_engine().solve_batch([]).tolerance_m == 1e-6


def bypass(scenario, **fields):
    """``scenario`` with fields set past ``Scenario``'s own checks, as a
    duck-typed or deserialised scenario could arrive at the engine."""
    import copy

    clone = copy.copy(scenario)
    for name, value in fields.items():
        object.__setattr__(clone, name, value)
    return clone


def validation_cases():
    """Batches with bad rows, and the error of the first offending one."""
    ok = airplane_scenario()
    bad_d0 = bypass(ok, contact_distance_m=12.5)
    bad_d0_other = bypass(ok, contact_distance_m=7.0)
    bad_bits = ok.with_(data_bits=0.0)
    bad_speed = bypass(ok, cruise_speed_mps=-1.0)
    return [
        ([ok, bad_bits, ok, bad_bits], "data size must be positive"),
        ([ok, bad_bits, bad_speed], "data size must be positive"),
        ([bad_speed, bad_bits], "speed must be positive"),
        ([ok, bad_d0, bad_d0_other], "contact distance 12.5 below the floor 20.0"),
        ([bad_d0_other, bad_d0], "contact distance 7.0 below the floor 20.0"),
        # Checks run in order within a row: speed, data, contact.
        ([bypass(bad_bits, cruise_speed_mps=0.0)], "speed must be positive"),
        ([bypass(bad_bits, contact_distance_m=3.0)], "data size must be positive"),
    ]


class TestValidationOrder:
    def test_first_offending_row_wins(self):
        for chunk_size in (1, 2, 2048):
            for batch, message in validation_cases():
                with pytest.raises(ValueError, match=message):
                    fresh_engine(chunk_size=chunk_size).solve_batch(batch)
        with pytest.raises(ValueError, match="data size must be positive"):
            fresh_engine().solve(airplane_scenario().with_(data_bits=0.0))

    def test_block_input_names_the_same_row(self):
        # Each chunk's row view carries its own rows' scenarios.
        for chunk_size in (1, 2, 2048):
            for batch, message in validation_cases():
                with pytest.raises(ValueError, match=message):
                    fresh_engine(chunk_size=chunk_size).solve_batch(_Params(batch))

    def test_taken_rows_validate_their_own_scenarios(self):
        ok = airplane_scenario()
        bad = bypass(ok, cruise_speed_mps=-1.0)
        params = _Params([ok, bad])
        with pytest.raises(ValueError, match="speed must be positive"):
            params.take(np.array([1])).validate()
        with pytest.raises(ValueError, match="speed must be positive"):
            params.take(slice(1, 2)).validate()
        params.take(np.array([0])).validate()
        params.take(slice(0, 1)).validate()
        swept = _Params(ScenarioSweep(ok, "speed_mps", [3.0, 5.0, 7.0]))
        taken = swept.take(np.array([2, 0])).scenarios
        assert [s.cruise_speed_mps for s in taken] == [7.0, 3.0]

    def test_failed_batch_memoises_nothing(self):
        engine = fresh_engine()
        with pytest.raises(ValueError):
            engine.solve_batch(
                [airplane_scenario(), airplane_scenario().with_(data_bits=0.0)]
            )
        assert engine.cache_info().currsize == 0

    #: Attribute bypassed per field (``data_bits`` is the override).
    ATTRS = {
        "contact_distance_m": "contact_distance_m",
        "cruise_speed_mps": "cruise_speed_mps",
        "data_bits": "data_bits_override",
        "failure_rate_per_m": "failure_rate_per_m",
        "min_distance_m": "min_distance_m",
    }

    @pytest.mark.parametrize("field", sorted(ATTRS))
    def test_nan_fields_rejected(self, field):
        # NaN passes every ordering check, so finiteness is what stops
        # it: at construction, and in the engine for a row that got
        # past construction.
        with pytest.raises(ValueError, match=f"{field} must be finite, got nan"):
            airplane_scenario().with_(**{field: float("nan")})
        scenario = bypass(airplane_scenario(), **{self.ATTRS[field]: float("nan")})
        engine = fresh_engine()
        with pytest.raises(ValueError, match=f"{field} must be finite, got nan"):
            engine.solve_batch([airplane_scenario(), scenario])
        with pytest.raises(ValueError, match=f"{field} must be finite, got nan"):
            engine.solve(scenario)
        assert engine.cache_info().currsize == 0

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", sorted(ATTRS))
    def test_infinite_fields_rejected(self, field, value):
        with pytest.raises(ValueError):
            airplane_scenario().with_(**{field: value})
        scenario = bypass(airplane_scenario(), **{self.ATTRS[field]: value})
        with pytest.raises(ValueError):
            fresh_engine().solve_batch([scenario])


def mixed_law_fleet():
    """Falling and rising log-law, table and speed-scaled rows,
    interleaved so every chunk size mixes exact and grid rows."""
    laws = [
        None,
        LogFitThroughput(2.0, 10.0),
        TableThroughput({20.0: 36e6, 40.0: 35e6, 60.0: 33e6, 100.0: 17.8e6}),
        SpeedScaledThroughput(LogFitThroughput(-10.5, 73.0)),
    ]
    fleet = []
    for i in range(48):
        factory = (airplane_scenario, quadrocopter_scenario)[i % 2]
        scenario = factory(
            mdata_mb=1.0 + 7.0 * (i % 9),
            speed_mps=3.0 + (5 * i) % 20,
            rho_per_m=1e-4 * (1 + (7 * i) % 40),
            d0_m=40.0 + 13.0 * (i % 19),
        )
        law = laws[(i // 2) % len(laws)]
        fleet.append(scenario if law is None else scenario.with_(throughput=law))
    return fleet


class TestBlockInput:
    @pytest.mark.parametrize("chunk_size", [1, 7, 2048, None])
    def test_block_equals_list_bitwise(self, chunk_size):
        fleet = mixed_law_fleet()
        kwargs = {} if chunk_size is None else {"chunk_size": chunk_size}
        params = _Params(fleet)
        assert params.other_rows.size  # table and speed-scaled rows
        from_list = fresh_engine(**kwargs).solve_batch(fleet)
        from_block = fresh_engine(**kwargs).solve_batch(params)
        assert_bitwise_equal(from_block, from_list)
        # The block is read, not consumed: a second solve agrees.
        assert_bitwise_equal(fresh_engine(**kwargs).solve_batch(params), from_list)

    def test_empty_block(self):
        result = fresh_engine().solve_batch(_Params([]))
        assert len(result) == 0 and result.tolerance_m == 1e-6

    def test_doubled_block_repeats_every_row(self):
        params = _Params(mixed_law_fleet())
        n = len(params)
        twice = params.doubled()
        assert len(twice) == 2 * n
        np.testing.assert_array_equal(
            twice.other_rows, np.nonzero(~twice.logfit_mask)[0]
        )
        d = np.concatenate((params.d0, params.dmin))
        engine = fresh_engine()
        for got, want in zip(
            twice.breakdown(d), engine.breakdown_at(list(params.scenarios) * 2, d)
        ):
            assert got.tobytes() == want.tobytes()


#: Sweep values per sweepable field and alias; value 3 repeats value 1.
SWEEP_VALUES = {
    "min_distance_m": [5.0, 10.0, 20.0, 10.0, 35.0, 12.5],
    "contact_distance_m": [40.0, 120.0, 300.0, 120.0, 25.0, 77.7],
    "cruise_speed_mps": [3.0, 10.0, 25.0, 10.0, 4.5, 7.25],
    "data_bits_override": [1e6, 2e8, 5e7, 2e8, 3e6, 9.5e7],
    "failure_rate_per_m": [0.0, 1e-4, 1e-2, 1e-4, 3e-3, 6e-5],
    "mdata_mb": [1.0, 28.0, 56.2, 28.0, 0.5, 12.0],
}
SWEEP_VALUES.update(
    speed_mps=SWEEP_VALUES["cruise_speed_mps"],
    rho_per_m=SWEEP_VALUES["failure_rate_per_m"],
    d0_m=SWEEP_VALUES["contact_distance_m"],
    data_bits=SWEEP_VALUES["data_bits_override"],
)

SWEEP_ENGINES = {
    "chunk_1": {"chunk_size": 1},
    "chunk_2048": {"chunk_size": 2048},
    "cache_size_0": {"cache_size": 0},
    "cache_size_3": {"cache_size": 3},
}

#: ``(hits, misses, currsize, LRU order as value indices)`` after a
#: sweep of ``SWEEP_VALUES[field]``, cold or after scalar solves of
#: values 4 and 1: the sweep leaves the memo as it found it, whatever
#: the path.  The same for every field.
SWEEP_MEMO_EXPECTED = {
    ("cache_size_0", False): (0, 0, 0, []),
    ("cache_size_0", True): (0, 0, 0, []),
    ("cache_size_3", False): (0, 0, 0, []),
    ("cache_size_3", True): (0, 2, 2, [4, 1]),
    ("chunk_1", False): (0, 0, 0, []),
    ("chunk_1", True): (0, 2, 2, [4, 1]),
    ("chunk_2048", False): (0, 0, 0, []),
    ("chunk_2048", True): (0, 2, 2, [4, 1]),
}


def sweep_variants(base, field, values):
    return [base.with_(**{field: v}) for v in values]


def run_sweep(path, base, field, values, warm=False, **engine_kwargs):
    """Sweep through ``path`` ("list", "container" or "engine"); returns
    the result and ``(hits, misses, currsize, LRU order)``."""
    engine = fresh_engine(**engine_kwargs)
    if warm:
        for variant in sweep_variants(base, field, [values[4], values[1]]):
            engine.solve(variant)
    if path == "list":
        result = engine.solve_batch(sweep_variants(base, field, values))
    elif path == "container":
        result = engine.solve_batch(ScenarioSweep(base, field, values))
    else:
        result = engine.sweep(base, field, values)
    index = {}
    for i, variant in enumerate(sweep_variants(base, field, values)):
        index.setdefault(engine.point_key(variant), i)
    info = engine.cache_info()
    order = [index[key] for key in engine._cache._data]
    return result, (info.hits, info.misses, info.currsize, order)


class TestScenarioSweepEquivalence:
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("engine_name", sorted(SWEEP_ENGINES))
    @pytest.mark.parametrize("field", sorted(SWEEP_VALUES))
    def test_container_equals_variant_list(self, field, engine_name, warm):
        base = airplane_scenario()
        values = SWEEP_VALUES[field]
        kwargs = SWEEP_ENGINES[engine_name]
        want, want_memo = run_sweep("list", base, field, values, warm, **kwargs)
        assert want_memo == SWEEP_MEMO_EXPECTED[engine_name, warm]
        for path in ("container", "engine"):
            got, memo = run_sweep(path, base, field, values, warm, **kwargs)
            assert_bitwise_equal(got, want)
            assert memo == want_memo, path

    @pytest.mark.parametrize("field", ["speed_mps", "mdata_mb", "min_distance_m"])
    def test_uncacheable_base_keys_are_none(self, field):
        table = {20.0: 36e6, 40.0: 35e6, 60.0: 33e6, 100.0: 17.8e6}
        base = quadrocopter_scenario(d0_m=90.0).with_(throughput=OpaqueTable(table))
        values = [v for v in SWEEP_VALUES[field] if v < 90.0]
        sweep_ = ScenarioSweep(base, field, values)
        engine = fresh_engine()
        assert engine.point_key(base) is None
        assert [engine.point_key(row) for row in sweep_] == [None] * len(values)
        want = fresh_engine().solve_batch(sweep_variants(base, field, values))
        assert_bitwise_equal(engine.solve_batch(sweep_), want)
        assert_bitwise_equal(engine.sweep(base, field, values), want)
        assert engine.cache_info().currsize == 0

    @pytest.mark.parametrize("field", sorted(SWEEP_VALUES))
    def test_keys_equal_point_keys(self, field):
        base = quadrocopter_scenario(d0_m=300.0)
        sweep_ = ScenarioSweep(base, field, SWEEP_VALUES[field])
        engine = fresh_engine(grid_step_m=0.5)
        keys = [engine.point_key(row) for row in sweep_]
        assert None not in keys
        assert keys == [
            engine.point_key(variant)
            for variant in sweep_variants(base, field, SWEEP_VALUES[field])
        ]

    def test_empty_sweep(self):
        base = airplane_scenario()
        engine = fresh_engine()
        for values in ([], np.array([])):
            got = engine.solve_batch(ScenarioSweep(base, "rho_per_m", values))
            assert_bitwise_equal(got, fresh_engine().solve_batch([]))
            assert_bitwise_equal(engine.sweep(base, "speed_mps", values), got)
        assert engine.cache_info().currsize == 0

    def test_chunked_sweep_equals_variant_list(self):
        base = airplane_scenario()
        values = np.linspace(1e-5, 1e-2, 1000)
        want = fresh_engine(cache_size=0).solve_batch(
            sweep_variants(base, "rho_per_m", values)
        )
        got = fresh_engine(chunk_size=97).solve_batch(
            ScenarioSweep(base, "rho_per_m", values)
        )
        assert_bitwise_equal(got, want)

    def test_rows_are_with_copies(self):
        base = airplane_scenario()
        sweep_ = ScenarioSweep(base, "mdata_mb", [2, 3.5])
        assert sweep_.field == "data_bits_override"
        assert sweep_.values.dtype == np.float64
        assert len(sweep_) == 2
        assert sweep_[1] == base.with_(data_bits_override=3.5 * 8e6)
        assert sweep_[1] == base.with_(mdata_mb=3.5)
        assert list(sweep_) == [sweep_[0], sweep_[1]]
        tail = sweep_[1:]
        assert isinstance(tail, ScenarioSweep) and tail[0] == sweep_[1]
        assert sweep_.take([1, 0])[0] == sweep_[1]

    def test_only_key_fields_are_columnar(self):
        base = airplane_scenario()
        with pytest.raises(ValueError, match="cannot sweep 'name'"):
            ScenarioSweep(base, "name", [1.0])
        with pytest.raises(ValueError, match="one-dimensional"):
            ScenarioSweep(base, "speed_mps", [[1.0, 2.0]])

    def test_sweep_rows_falls_back_to_with_copies(self):
        base = airplane_scenario()
        assert isinstance(sweep_rows(base, "d0_m", iter([50.0, 60])), ScenarioSweep)
        assert isinstance(sweep_rows(base, "speed_mps", np.arange(1, 4)), ScenarioSweep)
        for param, values in (
            ("name", ["a", "b"]),
            ("speed_mps", np.array([True, True])),
            ("speed_mps", np.array([[5.0]])),
        ):
            rows = sweep_rows(base, param, values)
            assert isinstance(rows, list) and len(rows) == len(values)
        with pytest.raises(TypeError):
            sweep_rows(base, "speed_mps", ["5"])  # as the with_ copy does

    def test_engine_sweep_builds_no_rows(self, monkeypatch):
        from repro.core.scenario import Scenario

        calls = []
        original = Scenario.with_

        def spy(self, **overrides):
            calls.append(overrides)
            return original(self, **overrides)

        base = airplane_scenario()
        values = np.linspace(1.0, 20.0, 50)
        want = fresh_engine().solve_batch(sweep_variants(base, "speed_mps", values))
        monkeypatch.setattr(Scenario, "with_", spy)
        got = fresh_engine(chunk_size=7).sweep(base, "speed_mps", values)
        assert calls == []
        assert_bitwise_equal(got, want)


#: ``(param, values, index of the first offending value)``.
SWEEP_ERRORS = {
    "speed_not_positive": ("speed_mps", [5.0, 0.0, 7.0, -1.0], 1),
    "rho_negative": ("rho_per_m", [1e-3, 2e-3, -1e-4, -2.0], 2),
    "d0_below_min": ("d0_m", [100.0, 19.0, 5.0], 1),
    "min_above_d0": ("min_distance_m", [10.0, 20.0, 300.5, 400.0], 2),
    "min_not_positive": ("min_distance_m", [10.0, 0.0, -5.0], 1),
    "mdata_not_positive": ("mdata_mb", [1.0, -3.0, 0.0], 1),
    "data_bits_zero_twice": ("data_bits", [1e6, 0.0, 2e6, 0.0], 1),
    "data_bits_not_positive": ("data_bits", [1e6, 2e6, -5.0, 0.0], 2),
    "speed_infinite": ("speed_mps", [5.0, 7.0, float("inf"), 0.0], 2),
    "rho_infinite": ("rho_per_m", [1e-3, float("inf"), -1.0], 1),
    "d0_infinite": ("d0_m", [100.0, float("inf")], 1),
    "mdata_infinite": ("mdata_mb", [1.0, float("inf"), 0.0], 1),
    "mdata_bits_overflow": ("mdata_mb", [1.0, 1e305, 0.0], 1),
    "data_bits_infinite": ("data_bits", [1e6, float("inf")], 1),
}


class TestScenarioSweepErrors:
    @pytest.mark.parametrize("chunk_size", [1, 2, 2048])
    @pytest.mark.parametrize("case", sorted(SWEEP_ERRORS))
    def test_same_error_as_variant_list(self, case, chunk_size, monkeypatch):
        from repro.core.scenario import Scenario

        param, values, first = SWEEP_ERRORS[case]
        base = airplane_scenario()
        engine = fresh_engine(chunk_size=chunk_size)
        with pytest.raises(Exception) as want:
            engine.solve_batch(sweep_variants(base, param, values))
        calls = []
        original = Scenario.with_

        def spy(self, **overrides):
            calls.extend(overrides.values())
            return original(self, **overrides)

        monkeypatch.setattr(Scenario, "with_", spy)
        for solve in (
            lambda: engine.solve_batch(ScenarioSweep(base, param, values)),
            lambda: engine.sweep(base, param, values),
        ):
            calls.clear()
            with pytest.raises(Exception) as got:
                solve()
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)
        # Chunks are solved in order, so only the first offending value
        # is built as a Scenario.
        assert calls == [values[first]]
        assert engine.cache_info().currsize == 0  # a failed sweep memoises nothing

    @pytest.mark.parametrize(
        "param", ["speed_mps", "rho_per_m", "d0_m", "min_distance_m", "mdata_mb", "data_bits"]
    )
    def test_nan_values_rejected(self, param):
        base = airplane_scenario()
        values = [SWEEP_VALUES[param][1], float("nan"), SWEEP_VALUES[param][2]]
        with pytest.raises(ValueError, match="must be finite, got nan") as want:
            sweep_variants(base, param, values)
        for solve in (
            lambda: ScenarioSweep(base, param, values),
            lambda: fresh_engine().sweep(base, param, values),
        ):
            with pytest.raises(ValueError) as got:
                solve()
            assert str(got.value) == str(want.value)

    def test_failed_later_chunk_memoises_nothing(self):
        engine = fresh_engine(chunk_size=2)
        with pytest.raises(ValueError, match="data size must be positive"):
            engine.sweep(airplane_scenario(), "data_bits", [1e6, 2e6, 3e6, 4e6, 0.0])
        assert engine.cache_info().currsize == 0


#: Sweepable parameters, with and without aliases.
SWEEP_PARAMS = sorted(SWEEP_VALUES)


class TestNonFiniteNeverReachesKernel:
    """Whatever mix of values a caller passes, the Eq. 2 kernels only
    ever see finite parameter columns and a positive safety floor: a
    non-finite value or a floor ``<= 0`` raises a ``ValueError`` before
    any solve."""

    if HAVE_HYPOTHESIS:

        @settings(max_examples=150, deadline=None)
        @given(
            param=st.sampled_from(SWEEP_PARAMS),
            values=st.lists(
                st.floats(allow_nan=True, allow_infinity=True)
                | st.sampled_from([float("nan"), float("inf"), float("-inf")])
                | st.floats(1e-3, 500.0)
                | st.sampled_from([0.0, -0.0, -5.0]),
                min_size=1,
                max_size=6,
            ),
            as_list=st.booleans(),
        )
        def test_property(self, param, values, as_list):
            import repro.engine.batch as engine_module

            seen = []
            grid_kernel = engine_module.argmax_utility
            exact_kernel = engine_module.certified_argmax

            def finite(dmin, d0, utility):
                params = utility.__self__
                seen.append(
                    all(
                        np.isfinite(column).all()
                        for column in (dmin, d0, params.v, params.bits, params.rho)
                    )
                    and (dmin > 0).all()
                )

            def grid_spy(dmin, d0, utility, *args):
                finite(dmin, d0, utility)
                return grid_kernel(dmin, d0, utility, *args)

            def exact_spy(dmin, d0, v, bits, rho, slope, intercept, utility, tol):
                finite(dmin, d0, utility)
                return exact_kernel(
                    dmin, d0, v, bits, rho, slope, intercept, utility, tol
                )

            base = airplane_scenario()
            # Extreme finite values may still warn inside the kernels.
            with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
                patch.setattr(engine_module, "argmax_utility", grid_spy)
                patch.setattr(engine_module, "certified_argmax", exact_spy)
                try:
                    if as_list:
                        fresh_engine().solve_batch(
                            sweep_variants(base, param, values)
                        )
                    else:
                        fresh_engine().sweep(base, param, values)
                except ValueError:
                    pass
                else:
                    assert np.isfinite(values).all()
                    if param == "min_distance_m":
                        assert min(values) > 0
            assert all(seen)


class TestScenarioSweepObs:
    def test_engine_metrics_equal_the_list_path(self):
        base = airplane_scenario()
        values = SWEEP_VALUES["rho_per_m"] * 3
        reports = []
        for rows in (
            lambda: sweep_variants(base, "rho_per_m", values),
            lambda: ScenarioSweep(base, "rho_per_m", values),
        ):
            engine = fresh_engine(chunk_size=4)
            for variant in sweep_variants(base, "rho_per_m", values[:2]):
                engine.solve(variant)  # memoised rows the batch must not read
            obs = ObsContext.enabled(deterministic=True)
            engine.solve_batch(rows(), obs=obs)
            reports.append(obs.metrics.to_dict())
        assert reports[0] == reports[1]
        assert not any(
            name.startswith("engine.cache.") for name in reports[0]["counters"]
        )
        assert reports[0]["counters"]["engine.batches"] == 1
        assert reports[0]["histograms"]["engine.batch.size"]["count"] == 1

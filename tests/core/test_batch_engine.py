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
from repro.core.throughput import TableThroughput

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
        engine.solve_batch(scenarios)
        before = engine.cache_info()
        again = engine.solve_batch(scenarios)
        after = engine.cache_info()
        assert after.hits == before.hits + len(scenarios)
        assert after.misses == before.misses
        assert len(again) == len(scenarios)

    def test_solve_and_batch_share_cache(self):
        engine = fresh_engine()
        scenario = quadrocopter_scenario()
        engine.solve(scenario)
        misses_before = engine.cache_info().misses
        engine.solve_batch([scenario])
        assert engine.cache_info().misses == misses_before

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


class TestChunkingAndParallel:
    def test_chunked_parallel_matches_serial(self):
        scenarios = [
            airplane_scenario(mdata_mb=5.0 + 0.5 * i) for i in range(40)
        ]
        serial = fresh_engine(cache_size=0, chunk_size=8).solve_batch(
            scenarios, parallel=False
        )
        threaded = fresh_engine(
            cache_size=0, chunk_size=8, max_workers=4
        ).solve_batch(scenarios, parallel=True)
        np.testing.assert_allclose(
            serial.distance_m, threaded.distance_m, atol=1e-12
        )
        np.testing.assert_allclose(
            serial.utility, threaded.utility, rtol=1e-12
        )

    def test_single_chunk_ignores_parallel_flag(self):
        engine = fresh_engine(chunk_size=1024)
        batch = engine.solve_batch(
            [airplane_scenario(), quadrocopter_scenario()], parallel=True
        )
        assert len(batch) == 2

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

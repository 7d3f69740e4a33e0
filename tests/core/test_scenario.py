"""Tests for the baseline scenarios (paper Section 4)."""

import pytest

from repro.core import airplane_scenario, quadrocopter_scenario


class TestAirplaneScenario:
    def test_paper_parameters(self, air_scenario):
        assert air_scenario.cruise_speed_mps == 10.0
        assert air_scenario.failure_rate_per_m == pytest.approx(1.11e-4)
        assert air_scenario.contact_distance_m == 300.0
        assert air_scenario.min_distance_m == 20.0

    def test_mdata_close_to_28mb(self, air_scenario):
        assert air_scenario.data_megabytes == pytest.approx(28.0, rel=0.03)

    def test_throughput_is_paper_fit(self, air_scenario):
        assert air_scenario.throughput.throughput_bps(20.0) == pytest.approx(
            24.97e6, rel=1e-3
        )

    def test_solve_returns_valid_decision(self, air_scenario):
        decision = air_scenario.solve()
        assert 20.0 <= decision.distance_m <= 300.0
        assert decision.utility > 0.0


class TestQuadrocopterScenario:
    def test_paper_parameters(self, quad_scenario):
        assert quad_scenario.cruise_speed_mps == 4.5
        assert quad_scenario.failure_rate_per_m == pytest.approx(2.46e-4)
        assert quad_scenario.contact_distance_m == 100.0

    def test_mdata_close_to_56mb(self, quad_scenario):
        assert quad_scenario.data_megabytes == pytest.approx(56.2, rel=0.02)

    def test_nominal_solution_at_floor(self, quad_scenario):
        """Fig. 8: at nominal rho the quad should close to ~20 m."""
        assert quad_scenario.solve().distance_m == pytest.approx(20.0, abs=1.0)


class TestOverrides:
    def test_with_data_megabytes(self, air_scenario):
        small = air_scenario.with_data_megabytes(5.0)
        assert small.data_megabytes == pytest.approx(5.0)
        # The original is untouched (frozen dataclass copy).
        assert air_scenario.data_megabytes == pytest.approx(28.0, rel=0.03)

    def test_with_speed(self, air_scenario):
        fast = air_scenario.with_speed(20.0)
        assert fast.cruise_speed_mps == 20.0
        assert air_scenario.cruise_speed_mps == 10.0

    def test_with_failure_rate(self, air_scenario):
        risky = air_scenario.with_failure_rate(1e-2)
        assert risky.failure_rate_per_m == 1e-2

    def test_invalid_overrides_rejected(self, air_scenario):
        with pytest.raises(ValueError):
            air_scenario.with_data_megabytes(0.0)

    def test_sweep_changes_solution(self, air_scenario):
        light = air_scenario.with_data_megabytes(1.0).solve()
        heavy = air_scenario.with_data_megabytes(45.0).solve()
        assert heavy.distance_m < light.distance_m


class TestScenarioValidation:
    def test_contact_below_floor_rejected(self, air_scenario):
        import dataclasses

        with pytest.raises(ValueError):
            dataclasses.replace(air_scenario, contact_distance_m=10.0)

    def test_non_positive_speed_rejected(self, air_scenario):
        with pytest.raises(ValueError):
            air_scenario.with_speed(0.0)

    @pytest.mark.parametrize("floor", [0.0, -0.0, -5.0])
    def test_non_positive_floor_rejected(self, air_scenario, floor):
        # A floor <= 0 would put log2(0) or a negative distance into
        # the Eq. 2 utility and return a NaN decision.
        with pytest.raises(ValueError, match="safety floor must be positive"):
            air_scenario.with_(min_distance_m=floor)

    def test_scenarios_are_independent(self):
        assert airplane_scenario() is not airplane_scenario()
        assert quadrocopter_scenario().name == "quadrocopter"


class TestKeyLayout:
    def test_cache_key_follows_key_fields(self, air_scenario):
        from repro.core.scenario import Scenario

        assert Scenario.KEY_FIELDS == (
            "min_distance_m",
            "contact_distance_m",
            "cruise_speed_mps",
            "data_bits_override",
            "failure_rate_per_m",
        )
        s = air_scenario.with_(d0_m=150.0, rho_per_m=2e-3)
        assert s.cache_key() == (
            s.throughput.cache_key(), 20.0, 150.0, 10.0, s.data_bits, 2e-3
        )
        assert s.with_(mdata_mb=3.0).cache_key()[4] == 3.0 * 8e6

    def test_mdata_accepts_every_real_number(self, air_scenario):
        import numpy as np

        want = air_scenario.with_(mdata_mb=2.0)
        for value in (2, np.int64(2), np.float32(2.0), np.float64(2.0)):
            assert air_scenario.with_(mdata_mb=value) == want
        for bad in (0, np.int64(-1), "2", None):
            with pytest.raises(ValueError, match="Mdata must be positive"):
                air_scenario.with_(mdata_mb=bad)

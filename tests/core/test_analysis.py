"""Tests for the concavity/sensitivity analysis tools."""

import pytest

from repro.core import (
    airplane_scenario,
    concavity_profile,
    is_effectively_concave,
    sensitivity,
)


class TestConcavity:
    def test_small_rho_is_effectively_concave(self, air_scenario):
        """The paper: U is approximately concave for rho << 1."""
        model = air_scenario.utility_model()
        assert is_effectively_concave(
            model,
            air_scenario.contact_distance_m,
            air_scenario.cruise_speed_mps,
            air_scenario.data_bits,
        )

    def test_profile_arrays_aligned(self, quad_scenario):
        report = concavity_profile(
            quad_scenario.utility_model(),
            quad_scenario.contact_distance_m,
            quad_scenario.cruise_speed_mps,
            quad_scenario.data_bits,
            n_points=100,
        )
        assert len(report.distances_m) == 100
        assert len(report.utility) == 100
        assert len(report.second_derivative) == 100

    def test_high_rho_breaks_concavity(self, air_scenario):
        """The paper: "this result does not hold for higher rho"."""
        risky = air_scenario.with_failure_rate(5e-2)
        report = concavity_profile(
            risky.utility_model(),
            risky.contact_distance_m,
            risky.cruise_speed_mps,
            risky.data_bits,
        )
        # The exponential discount dominates: U becomes convex in d over
        # most of the range.
        assert report.concave_fraction < 0.75
        assert not report.effectively_concave

    def test_single_peak_flag(self, quad_scenario):
        report = concavity_profile(
            quad_scenario.utility_model(),
            quad_scenario.contact_distance_m,
            quad_scenario.cruise_speed_mps,
            quad_scenario.data_bits,
        )
        assert report.single_peak

    def test_too_few_points_rejected(self, quad_scenario):
        with pytest.raises(ValueError):
            concavity_profile(
                quad_scenario.utility_model(), 100.0, 4.5, 1e8, n_points=3
            )


class TestSensitivity:
    def test_report_fields(self, air_scenario):
        report = sensitivity(air_scenario)
        assert report.dopt_m == pytest.approx(
            air_scenario.solve().distance_m, abs=1.0
        )

    def test_mdata_pushes_closer(self):
        """More data -> smaller dopt, so the derivative is negative
        (evaluated where dopt is interior)."""
        scenario = airplane_scenario().with_data_megabytes(15.0)
        report = sensitivity(scenario)
        assert report.ddopt_dmdata < 0.0

    def test_rho_pushes_further(self):
        """Higher hazard -> larger dopt (transmit sooner)."""
        scenario = airplane_scenario().with_failure_rate(2e-3)
        report = sensitivity(scenario)
        assert report.ddopt_drho > 0.0

    def test_speed_pulls_closer(self):
        scenario = airplane_scenario().with_data_megabytes(15.0)
        report = sensitivity(scenario)
        assert report.ddopt_dspeed < 0.0

    def test_dominant_parameter_is_named(self):
        scenario = airplane_scenario().with_data_megabytes(15.0)
        assert sensitivity(scenario).dominant_parameter() in (
            "rho", "speed", "mdata",
        )

    def test_invalid_step_rejected(self, air_scenario):
        with pytest.raises(ValueError):
            sensitivity(air_scenario, rel_step=0.0)

    def test_floor_point_is_insensitive(self, quad_scenario):
        """At the 20 m floor, small parameter nudges change nothing."""
        report = sensitivity(quad_scenario)
        assert report.ddopt_dspeed == pytest.approx(0.0, abs=1.0)
        assert report.ddopt_dmdata == pytest.approx(0.0, abs=1.0)

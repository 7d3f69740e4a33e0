"""Shape tests for the campaign-driven experiments (Figs. 4-7).

Reduced-scale runs keep the suite fast; the full-scale versions run in
the benchmark harness.
"""

import numpy as np
import pytest

from repro.experiments import fig4, fig5, fig6, fig7


class TestFig4:
    @pytest.fixture(scope="class")
    def report(self):
        return fig4.run(seed=3, n_passes=2)

    def test_altitude_layers(self, report):
        lo_a, hi_a = report.data["altitude_a_m"]
        lo_b, hi_b = report.data["altitude_b_m"]
        assert lo_a == pytest.approx(80.0, abs=2.0)
        assert hi_b == pytest.approx(100.0, abs=2.0)

    def test_relative_distance_sweeps_wide_range(self, report):
        assert report.data["relative_distance_min_m"] < 60.0
        assert report.data["relative_distance_max_m"] > 300.0

    def test_pass_speeds_in_paper_band(self, report):
        """Paper: relative speeds between 15 and 26 m/s."""
        assert 14.0 <= report.data["peak_relative_speed_mps"] <= 27.0

    def test_quad_traces_hover_at_10m(self, report):
        for trace in report.data["quad_traces"]:
            lo, hi = trace.altitude_range_m()
            assert lo == pytest.approx(10.0, abs=0.5)
            assert hi == pytest.approx(10.0, abs=0.5)

    def test_gps_wobble_metre_scale(self, report):
        """Consumer GPS scatter while hovering is a few metres."""
        for wobble in report.data["gps_wobbles_m"]:
            assert 0.1 < wobble < 12.0


class TestFig5:
    @pytest.fixture(scope="class")
    def report(self):
        return fig5.run(seed=11, n_passes=6)

    def test_fit_slope_matches_paper(self, report):
        """Paper: -5.56 Mb/s per octave."""
        fit = report.data["fit"]
        assert fit.slope_mbps_per_octave == pytest.approx(-5.56, abs=1.5)

    def test_fit_intercept_matches_paper(self, report):
        fit = report.data["fit"]
        assert fit.intercept_mbps == pytest.approx(49.0, abs=8.0)

    def test_fit_quality(self, report):
        """Paper: R^2 = 0.90."""
        assert report.data["fit"].r_squared > 0.8

    def test_median_near_20mbps_at_short_range(self, report):
        """Paper: ~20 Mb/s at shorter distances (802.11g-like)."""
        medians = report.data["medians_mbps"]
        shortest = min(medians)
        assert 15.0 < medians[shortest] < 35.0

    def test_monotone_trend(self, report):
        medians = report.data["medians_mbps"]
        keys = sorted(medians)
        first_third = np.mean([medians[k] for k in keys[: len(keys) // 3]])
        last_third = np.mean([medians[k] for k in keys[-len(keys) // 3:]])
        assert first_third > 2 * last_third


class TestFig6:
    @pytest.fixture(scope="class")
    def report(self):
        # Reduced durations for test speed; the bench runs full scale.
        return fig6.run(seed=23, duration_s=30.0)

    def test_best_fixed_beats_auto_everywhere(self, report):
        assert all(r > 1.0 for r in report.data["ratio_by_distance"].values())

    def test_mcs3_wins_short_range(self, report):
        best = report.data["best_by_distance"]
        for d in (20, 40, 60, 80, 100, 120, 140):
            assert best[d] == 3, f"expected MCS3 at {d} m, got MCS{best[d]}"

    def test_mcs8_wins_long_range(self, report):
        best = report.data["best_by_distance"]
        assert best[260] == 8

    def test_mcs1_wins_mid_band(self, report):
        best = report.data["best_by_distance"]
        assert 1 in {best[180], best[200], best[220]}

    def test_mcs2_never_best(self, report):
        assert 2 not in report.data["best_by_distance"].values()

    def test_mean_ratio_substantial(self, report):
        """Paper: 100%+ improvement; we require at least ~25% mean."""
        assert report.data["mean_ratio"] > 1.25


class TestFig7:
    @pytest.fixture(scope="class")
    def report(self):
        return fig7.run(seed=5, hover_duration_s=30.0)

    def test_hover_fit_matches_paper(self, report):
        fit = report.data["hover_fit"]
        assert fit.slope_mbps_per_octave == pytest.approx(-10.5, abs=3.0)
        assert fit.intercept_mbps == pytest.approx(73.0, abs=15.0)

    def test_moving_below_hover(self, report):
        hover = report.data["hover_medians_mbps"]
        moving = report.data["moving_medians_mbps"]
        common = set(hover) & set(moving)
        assert common
        assert all(moving[d] < hover[d] for d in common)

    def test_speed_sweep_monotone_decline(self, report):
        speeds = report.data["speed_medians_mbps"]
        ordered = [speeds[v] for v in sorted(speeds)]
        # Allow small non-monotonic noise but require a large net drop.
        assert ordered[-1] < 0.4 * ordered[0]
        assert ordered[0] == max(ordered)

    def test_quad_steadier_than_airplane(self, report):
        """Fig. 7 vs Fig. 5: smaller variability while hovering."""
        hover = report.data["hover_result"]
        stats = hover.stats(20.0)
        assert stats.iqr / max(stats.median, 1.0) < 1.2

"""Tests for the simulated measurement campaigns (reduced scale)."""

import pytest

from repro.measurements import (
    AirplaneFlybyCampaign,
    CampaignResult,
    QuadApproachCampaign,
    QuadHoverCampaign,
    QuadSpeedCampaign,
)


class TestCampaignResult:
    def test_add_and_stats(self):
        result = CampaignResult()
        for v in (1e6, 2e6, 3e6):
            result.add_sample(20.0, v)
        assert result.keys() == [20.0]
        assert result.stats(20.0).median == 2e6

    def test_medians_mbps(self):
        result = CampaignResult()
        result.add_sample(40.0, 10e6)
        result.add_sample(20.0, 20e6)
        assert result.medians_mbps() == {20.0: 20.0, 40.0: 10.0}


class TestQuadHoverCampaign:
    @pytest.fixture(scope="class")
    def result(self):
        return QuadHoverCampaign(
            seed=2, distances_m=(20.0, 80.0), duration_s=20.0, n_replicas=2
        ).run()

    def test_bins_match_distances(self, result):
        assert result.keys() == [20.0, 80.0]

    def test_readings_per_bin(self, result):
        # 20 s per replica, 2 replicas -> ~40 readings per distance.
        assert result.stats(20.0).count == 40

    def test_near_beats_far(self, result):
        assert result.stats(20.0).median > 2 * result.stats(80.0).median

    def test_traces_recorded(self, result):
        assert len(result.traces) == 8  # 2 UAVs x 2 distances x 2 replicas

    def test_invalid_replicas_rejected(self):
        with pytest.raises(ValueError):
            QuadHoverCampaign(n_replicas=0)


class TestQuadApproachCampaign:
    @pytest.fixture(scope="class")
    def result(self):
        return QuadApproachCampaign(seed=2, n_approaches=3).run()

    def test_moving_throughput_below_hover(self, result):
        hover = QuadHoverCampaign(
            seed=2, distances_m=(40.0,), duration_s=20.0, n_replicas=2
        ).run()
        assert result.stats(40.0).median < hover.stats(40.0).median

    def test_bins_cover_approach_path(self, result):
        assert min(result.keys()) <= 40.0
        assert max(result.keys()) >= 60.0

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            QuadApproachCampaign(start_distance_m=50.0, stop_distance_m=50.0)


class TestQuadSpeedCampaign:
    @pytest.fixture(scope="class")
    def result(self):
        return QuadSpeedCampaign(
            seed=2, speeds_mps=(0.0, 8.0), duration_s=25.0
        ).run()

    def test_keys_are_speeds(self, result):
        assert result.keys() == [0.0, 8.0]

    def test_speed_hurts_throughput(self, result):
        assert result.stats(0.0).median > 1.5 * result.stats(8.0).median


class TestAirplaneFlybyCampaign:
    @pytest.fixture(scope="class")
    def result(self):
        return AirplaneFlybyCampaign(seed=2, n_passes=2).run()

    def test_covers_wide_distance_range(self, result):
        keys = result.keys()
        assert min(keys) <= 40.0
        assert max(keys) >= 280.0

    def test_near_beats_far(self, result):
        near = result.stats(min(result.keys())).median
        far = result.stats(320.0).median
        assert near > far

    def test_two_traces(self, result):
        assert len(result.traces) == 2
        for trace in result.traces:
            assert trace.duration_s > 30.0

    def test_altitude_separation_maintained(self, result):
        alt_a = result.traces[0].altitude_range_m()
        alt_b = result.traces[1].altitude_range_m()
        assert alt_a[1] < alt_b[0]  # 80 m layer below the 100 m layer

    def test_invalid_passes_rejected(self):
        with pytest.raises(ValueError):
            AirplaneFlybyCampaign(n_passes=0)

"""Tests for the GPS receiver noise model."""

import numpy as np
import pytest

from repro.geo import EnuPoint, GeoPoint, GpsConfig, GpsReceiver, LocalFrame


@pytest.fixture
def frame():
    return LocalFrame(GeoPoint(47.3769, 8.5417, 400.0))


class TestGpsConfig:
    def test_defaults_valid(self):
        cfg = GpsConfig()
        assert cfg.rate_hz > 0

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            GpsConfig(horizontal_sigma_m=-1.0)

    def test_non_positive_correlation_rejected(self):
        with pytest.raises(ValueError):
            GpsConfig(correlation_time_s=0.0)


class TestGpsReceiver:
    def test_fix_error_is_bounded_statistically(self, frame, streams):
        rx = GpsReceiver(frame, streams.get("gps"))
        truth = EnuPoint(100.0, 200.0, 50.0)
        errors = []
        for i in range(500):
            fix = rx.fix(i * 0.2, truth)
            enu = frame.to_enu(fix)
            errors.append(enu.horizontal_distance_to(truth))
        errors = np.array(errors)
        # Mean horizontal error of a 2.5 m-sigma receiver is a few metres.
        assert 0.5 < errors.mean() < 6.0
        assert errors.max() < 25.0

    def test_consecutive_fixes_are_correlated(self, frame, streams):
        rx = GpsReceiver(frame, streams.get("gps"))
        truth = EnuPoint(0.0, 0.0, 0.0)
        fixes = [frame.to_enu(rx.fix(i * 0.2, truth)) for i in range(400)]
        east = np.array([f.east_m for f in fixes])
        # Lag-1 autocorrelation of Gauss-Markov noise at 5 Hz with a 30 s
        # correlation time is close to 1.
        r = np.corrcoef(east[:-1], east[1:])[0, 1]
        assert r > 0.8

    def test_zero_sigma_gives_exact_fix(self, frame, streams):
        cfg = GpsConfig(horizontal_sigma_m=0.0, vertical_sigma_m=0.0)
        rx = GpsReceiver(frame, streams.get("gps"), cfg)
        truth = EnuPoint(10.0, 20.0, 30.0)
        fix = frame.to_enu(rx.fix(0.0, truth))
        assert fix.east_m == pytest.approx(10.0, abs=1e-9)
        assert fix.up_m == pytest.approx(30.0, abs=1e-9)

    def test_long_gap_decorrelates(self, frame, streams):
        rx = GpsReceiver(frame, streams.get("gps"))
        truth = EnuPoint(0.0, 0.0, 0.0)
        first = frame.to_enu(rx.fix(0.0, truth))
        # A gap of many correlation times decorrelates the error.
        later = frame.to_enu(rx.fix(1e6, truth))
        assert first.east_m != later.east_m

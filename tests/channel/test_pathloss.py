"""Tests for the path-loss models."""

import math

import pytest

from repro.channel import (
    DualSlopePathLoss,
    FreeSpacePathLoss,
    LogDistancePathLoss,
    ObstacleLoss,
    TwoRayGroundPathLoss,
)


class TestFreeSpace:
    def test_friis_at_one_metre_5ghz(self):
        model = FreeSpacePathLoss(frequency_hz=5.2e9)
        assert model.loss_db(1.0) == pytest.approx(46.77, abs=0.1)

    def test_20db_per_decade(self):
        model = FreeSpacePathLoss()
        assert model.loss_db(100.0) - model.loss_db(10.0) == pytest.approx(20.0)

    def test_non_positive_distance_rejected(self):
        with pytest.raises(ValueError):
            FreeSpacePathLoss().loss_db(0.0)

    def test_sub_metre_clamped(self):
        model = FreeSpacePathLoss()
        assert model.loss_db(0.5) == model.loss_db(1.0)


MODELS = [
    FreeSpacePathLoss(),
    LogDistancePathLoss(),
    DualSlopePathLoss(),
    TwoRayGroundPathLoss(),
]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("distance", [math.nan, math.inf, -math.inf, -1.0])
def test_non_finite_or_negative_distance_rejected(model, distance):
    with pytest.raises(ValueError, match="distance must be positive"):
        model.loss_db(distance)


class TestLogDistance:
    def test_reference_loss_at_reference_distance(self):
        model = LogDistancePathLoss(exponent=2.0, reference_loss_db=50.0)
        assert model.loss_db(1.0) == pytest.approx(50.0)

    def test_slope_matches_exponent(self):
        model = LogDistancePathLoss(exponent=3.0, reference_loss_db=40.0)
        assert model.loss_db(100.0) - model.loss_db(10.0) == pytest.approx(30.0)

    def test_monotone_in_distance(self):
        model = LogDistancePathLoss(exponent=2.0, reference_loss_db=40.0)
        losses = [model.loss_db(d) for d in (10, 50, 100, 500)]
        assert losses == sorted(losses)

    def test_non_positive_exponent_rejected(self):
        with pytest.raises(ValueError):
            LogDistancePathLoss(exponent=0.0)


class TestDualSlope:
    def test_continuous_at_breakpoint(self):
        model = DualSlopePathLoss(
            near_exponent=2.0, far_exponent=4.0, breakpoint_m=100.0,
            reference_loss_db=40.0,
        )
        just_below = model.loss_db(99.999)
        just_above = model.loss_db(100.001)
        assert just_above == pytest.approx(just_below, abs=0.01)

    def test_far_slope_steeper(self):
        model = DualSlopePathLoss(
            near_exponent=2.0, far_exponent=4.0, breakpoint_m=100.0,
            reference_loss_db=40.0,
        )
        near_slope = model.loss_db(100.0) - model.loss_db(10.0)
        far_slope = model.loss_db(1000.0) - model.loss_db(100.0)
        assert far_slope == pytest.approx(2.0 * near_slope)

    def test_breakpoint_must_exceed_reference(self):
        with pytest.raises(ValueError):
            DualSlopePathLoss(breakpoint_m=0.5, reference_distance_m=1.0)


class TestTwoRay:
    def test_crossover_distance(self):
        model = TwoRayGroundPathLoss(tx_height_m=10.0, rx_height_m=10.0)
        wavelength = 299_792_458.0 / 5.2e9
        assert model.crossover_distance_m == pytest.approx(
            4 * math.pi * 100 / wavelength
        )

    def test_far_field_40db_per_decade(self):
        model = TwoRayGroundPathLoss(tx_height_m=10.0, rx_height_m=10.0)
        d0 = model.crossover_distance_m * 2
        assert model.loss_db(d0 * 10) - model.loss_db(d0) == pytest.approx(40.0)

    def test_below_crossover_uses_free_space(self):
        model = TwoRayGroundPathLoss(tx_height_m=10.0, rx_height_m=10.0)
        fs = FreeSpacePathLoss(model.frequency_hz)
        assert model.loss_db(50.0) == pytest.approx(fs.loss_db(50.0))

    def test_non_positive_heights_rejected(self):
        with pytest.raises(ValueError):
            TwoRayGroundPathLoss(tx_height_m=0.0)


class TestObstacleLoss:
    def test_adds_excess(self):
        base = LogDistancePathLoss(exponent=2.0, reference_loss_db=40.0)
        wrapped = ObstacleLoss(base, excess_db=12.0)
        assert wrapped.loss_db(100.0) == pytest.approx(base.loss_db(100.0) + 12.0)

    def test_negative_excess_rejected(self):
        with pytest.raises(ValueError):
            ObstacleLoss(FreeSpacePathLoss(), excess_db=-1.0)

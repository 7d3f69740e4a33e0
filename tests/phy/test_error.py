"""Tests for the SNR-to-PER error model."""

import numpy as np
import pytest

from repro.phy import (
    AERIAL_THRESHOLDS,
    TEXTBOOK_THRESHOLDS,
    ErrorModel,
    all_mcs_indices,
)


@pytest.fixture
def model():
    return ErrorModel()


class TestPerBasics:
    def test_per_bounded(self, model):
        for mcs in all_mcs_indices():
            for snr in (-20.0, 0.0, 10.0, 40.0):
                per = model.per(snr, mcs)
                assert 0.0 <= per <= 1.0

    def test_per_monotone_decreasing_in_snr(self, model):
        for mcs in (0, 3, 8, 15):
            pers = [model.per(snr, mcs) for snr in range(-10, 40, 2)]
            assert all(b <= a + 1e-12 for a, b in zip(pers, pers[1:]))

    def test_high_snr_single_stream_succeeds(self, model):
        assert model.per(40.0, 3) < 1e-6

    def test_low_snr_always_fails(self, model):
        assert model.per(-30.0, 3) > 0.999

    def test_per_at_threshold_is_half(self, model):
        thr = model.threshold_db(3)
        assert model.per(thr, 3) == pytest.approx(0.5, abs=0.01)

    def test_longer_frames_fail_more(self, model):
        snr = model.threshold_db(3) + 2.0
        assert model.per(snr, 3, frame_bytes=3000) > model.per(snr, 3, frame_bytes=500)

    def test_sdm_efficiency_caps_two_streams(self, model):
        # Even at huge SNR, a 2-stream subframe succeeds at most
        # sdm_efficiency of the time.
        assert model.per(60.0, 9) == pytest.approx(1 - model.sdm_efficiency, abs=0.01)

    def test_invalid_frame_size_rejected(self, model):
        with pytest.raises(ValueError):
            model.per(10.0, 3, frame_bytes=0)

    def test_unknown_mcs_rejected(self, model):
        with pytest.raises(KeyError):
            model.threshold_db(42)


class TestAerialCalibration:
    def test_mcs8_is_most_robust_two_stream(self):
        thr = AERIAL_THRESHOLDS
        assert thr[8] < min(thr[i] for i in range(9, 16))

    def test_mcs8_more_robust_than_mcs1(self):
        """The calibrated aerial behaviour behind the 240-260 m region."""
        assert AERIAL_THRESHOLDS[8] < AERIAL_THRESHOLDS[1]

    def test_single_stream_thresholds_increase_with_rate(self):
        thr = [AERIAL_THRESHOLDS[i] for i in range(8)]
        assert thr == sorted(thr)

    def test_textbook_thresholds_cover_all_mcs(self):
        assert set(TEXTBOOK_THRESHOLDS) == set(all_mcs_indices())

    def test_missing_threshold_rejected_at_construction(self):
        with pytest.raises(ValueError, match="missing"):
            ErrorModel(thresholds_db={0: 1.0})


class TestRequiredSnr:
    def test_required_snr_achieves_target(self, model):
        snr = model.required_snr_db(3, target_per=0.1)
        assert model.per(snr, 3) == pytest.approx(0.1, abs=0.02)

    def test_unreachable_target_returns_inf(self, model):
        # 2-stream success is capped at sdm_efficiency < 0.99.
        assert model.required_snr_db(9, target_per=0.01) == float("inf")

    def test_required_snr_orders_by_robustness(self, model):
        assert model.required_snr_db(0, 0.1) < model.required_snr_db(7, 0.1)

    def test_invalid_target_rejected(self, model):
        with pytest.raises(ValueError):
            model.required_snr_db(0, target_per=0.0)


class TestPerArrayGuards:
    @pytest.mark.parametrize("bad", [-1, 16, 99])
    def test_out_of_table_index_rejected(self, model, bad):
        with pytest.raises(KeyError):
            model.per_array(np.array([10.0, 10.0]), np.array([3, bad]))

    def test_table_gap_rejected(self):
        thresholds = dict(AERIAL_THRESHOLDS)
        thresholds[20] = 5.0  # indices 16..19 have no threshold
        gapped = ErrorModel(thresholds_db=thresholds)
        with pytest.raises(KeyError, match="17"):
            gapped.per_array(np.array([10.0, 10.0]), np.array([3, 17]))
        assert 0.0 <= gapped.per_array(np.array([10.0]), np.array([20]))[0] <= 1.0

    def test_every_table_index_accepted(self, model):
        indices = np.array(sorted(all_mcs_indices()))
        per = model.per_array(np.full(indices.shape, 12.0), indices)
        assert per.tolist() == [model.per(12.0, int(i)) for i in indices]


class TestThresholdsReadOnly:
    def test_mutation_raises_and_twins_agree(self, model):
        before = (model.per(10.0, 3), model.per_array([10.0], [3])[0])
        with pytest.raises(TypeError):
            model.thresholds_db[3] = 12.0
        assert model.per(10.0, 3) == model.per_array([10.0], [3])[0]
        assert (model.per(10.0, 3), model.per_array([10.0], [3])[0]) == before

    def test_caller_mapping_is_copied(self):
        thresholds = dict(AERIAL_THRESHOLDS)
        model = ErrorModel(thresholds_db=thresholds)
        model.per_array([10.0], [3])  # build the lookup tables
        thresholds[3] = 12.0
        assert model.threshold_db(3) == AERIAL_THRESHOLDS[3]
        assert model.per(10.0, 3) == model.per_array([10.0], [3])[0]

    def test_pickle_and_copy_round_trip(self, model):
        import copy
        import pickle

        for clone in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
            assert clone == model
            assert clone.per(10.0, 8) == model.per(10.0, 8)
            with pytest.raises(TypeError):
                clone.thresholds_db[3] = 12.0

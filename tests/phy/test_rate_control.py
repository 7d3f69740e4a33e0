"""Tests for the rate-control algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy import (
    ArfController,
    BatchArfController,
    BatchBestMcsOracle,
    BestMcsOracle,
    ErrorModel,
    FixedMcs,
    MinstrelController,
)
from repro.phy.rate_control import DEFAULT_ARF_CHAIN


class TestFixedMcs:
    def test_always_returns_index(self):
        ctrl = FixedMcs(3)
        assert ctrl.select(0.0) == 3
        ctrl.feedback(0.0, 3, 10, 0)
        assert ctrl.select(1.0) == 3

    def test_invalid_index_rejected(self):
        with pytest.raises(KeyError):
            FixedMcs(42)


class TestBestMcsOracle:
    def test_high_snr_prefers_fast_mcs(self):
        oracle = BestMcsOracle(ErrorModel(), candidates=[1, 2, 3, 8])
        assert oracle.select(0.0, snr_hint_db=30.0) == 3

    def test_low_snr_prefers_robust_mcs(self):
        oracle = BestMcsOracle(ErrorModel(), candidates=[1, 2, 3, 8])
        choice = oracle.select(0.0, snr_hint_db=1.0)
        assert choice in (1, 8)

    def test_mcs8_wins_at_very_low_snr(self):
        """The aerial calibration's long-range behaviour."""
        oracle = BestMcsOracle(ErrorModel(), candidates=[1, 8])
        assert oracle.select(0.0, snr_hint_db=0.0) == 8

    def test_no_hint_repeats_last_choice(self):
        oracle = BestMcsOracle(ErrorModel(), candidates=[1, 3])
        first = oracle.select(0.0, snr_hint_db=30.0)
        assert oracle.select(1.0) == first

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            BestMcsOracle(ErrorModel(), candidates=[])

    @settings(max_examples=300, deadline=None)
    @given(
        hint=st.floats(allow_nan=True, allow_infinity=True)
        | st.floats(min_value=-20.0, max_value=60.0),
        candidates=st.none()
        | st.lists(st.sampled_from(sorted(range(16))), min_size=1, max_size=16),
    )
    def test_one_call_choice_equals_max_loop(self, hint, candidates):
        """The one-call scoring picks what ``max`` over per-candidate
        :meth:`expected_goodput_bps` calls picks, ties to the first."""
        oracle = BestMcsOracle(ErrorModel(), candidates=candidates)
        want = max(
            oracle.candidates,
            key=lambda idx: oracle.expected_goodput_bps(hint, idx),
        )
        assert oracle.select(0.0, snr_hint_db=hint) == want


class TestArf:
    def test_starts_at_chain_bottom(self):
        assert ArfController().current_mcs == DEFAULT_ARF_CHAIN[0]

    def test_climbs_after_clean_streak(self):
        ctrl = ArfController(up_streak=3)
        for i in range(3):
            ctrl.feedback(float(i), ctrl.current_mcs, 10, 10)
        assert ctrl.current_mcs == DEFAULT_ARF_CHAIN[1]

    def test_steps_down_on_bad_burst(self):
        ctrl = ArfController(up_streak=1, start_index=3)
        top = ctrl.current_mcs
        ctrl.feedback(0.0, top, 10, 1)
        assert ctrl.chain.index(ctrl.current_mcs) == 2

    def test_bad_burst_resets_streak(self):
        ctrl = ArfController(up_streak=2)
        ctrl.feedback(0.0, ctrl.current_mcs, 10, 10)
        ctrl.feedback(1.0, ctrl.current_mcs, 10, 0)
        ctrl.feedback(2.0, ctrl.current_mcs, 10, 10)
        # One clean burst after the failure: not enough to climb.
        assert ctrl.current_mcs == DEFAULT_ARF_CHAIN[0]

    def test_does_not_fall_below_bottom(self):
        ctrl = ArfController()
        for i in range(5):
            ctrl.feedback(float(i), ctrl.current_mcs, 10, 0)
        assert ctrl.current_mcs == DEFAULT_ARF_CHAIN[0]

    def test_does_not_climb_past_top(self):
        ctrl = ArfController(up_streak=1, start_index=len(DEFAULT_ARF_CHAIN) - 1)
        ctrl.feedback(0.0, ctrl.current_mcs, 10, 10)
        assert ctrl.current_mcs == DEFAULT_ARF_CHAIN[-1]

    def test_invalid_feedback_rejected(self):
        with pytest.raises(ValueError):
            ArfController().feedback(0.0, 0, 5, 6)

    def test_zero_attempts_is_noop(self):
        ctrl = ArfController()
        ctrl.feedback(0.0, 0, 0, 0)
        assert ctrl.current_mcs == DEFAULT_ARF_CHAIN[0]

    def test_custom_chain_validated(self):
        with pytest.raises(KeyError):
            ArfController(chain=[0, 99])
        with pytest.raises(ValueError):
            ArfController(chain=[])


class TestMinstrel:
    def test_converges_to_good_rate_in_static_channel(self):
        """With a stable channel Minstrel should find a near-best MCS."""
        rng = np.random.default_rng(1)
        error_model = ErrorModel()
        ctrl = MinstrelController(rng=rng, candidates=[0, 1, 2, 3, 4], update_interval_s=0.1)
        snr = 12.0  # MCS3 (threshold 9) works; MCS4 (threshold 15) fails.
        now = 0.0
        for _ in range(3000):
            mcs = ctrl.select(now)
            p = error_model.success_probability(snr, mcs, 1540)
            succ = int(rng.binomial(14, p))
            ctrl.feedback(now, mcs, 14, succ)
            now += 0.02
        assert ctrl.current_mcs == 3

    def test_lookaround_explores(self):
        rng = np.random.default_rng(2)
        ctrl = MinstrelController(rng=rng, candidates=[0, 1, 2, 3], lookaround_rate=0.5)
        picks = {ctrl.select(i * 0.01) for i in range(200)}
        assert len(picks) > 1

    def test_invalid_params_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            MinstrelController(rng=rng, ewma_level=1.5)
        with pytest.raises(ValueError):
            MinstrelController(rng=rng, lookaround_rate=1.0)
        with pytest.raises(ValueError):
            MinstrelController(rng=rng, update_interval_s=0.0)

    def test_rng_injection_required(self):
        """RL101: no silent default generator — rng must be injected."""
        with pytest.raises(ValueError, match="injected Generator"):
            MinstrelController()

    def test_feedback_for_unknown_mcs_ignored(self):
        ctrl = MinstrelController(rng=np.random.default_rng(4), candidates=[0, 1])
        ctrl.feedback(0.0, 15, 10, 5)  # not in candidate set

    def test_invalid_feedback_rejected(self):
        ctrl = MinstrelController(rng=np.random.default_rng(5))
        with pytest.raises(ValueError):
            ctrl.feedback(0.0, 0, 5, 6)


class TestBatchOracleMemo:
    def test_repeated_hint_reuses_choice_and_matches_recompute(self):
        oracle = BatchBestMcsOracle(ErrorModel(), 4)
        hint = np.array([0.0, 8.0, 15.0, 30.0])
        first = oracle.select(0.0, snr_hint_db=hint)
        assert oracle.select(0.02, snr_hint_db=hint.copy()) is first
        fresh = BatchBestMcsOracle(ErrorModel(), 4).select(0.0, snr_hint_db=hint)
        np.testing.assert_array_equal(first, fresh)

    def test_hint_rewritten_in_place_is_seen(self):
        oracle = BatchBestMcsOracle(ErrorModel(), 2)
        hint = np.array([30.0, 30.0])
        high = oracle.select(0.0, snr_hint_db=hint).copy()
        hint[:] = 0.0
        low = oracle.select(0.02, snr_hint_db=hint)
        want = BatchBestMcsOracle(ErrorModel(), 2).select(
            0.0, snr_hint_db=np.zeros(2)
        )
        np.testing.assert_array_equal(low, want)
        assert not np.array_equal(low, high)


class TestBatchArfFeedback:
    def test_replicas_track_scalar_twins(self):
        """Random outcomes, idle replicas included, replica by replica."""
        rng = np.random.default_rng(7)
        n = 16
        batched = BatchArfController(n, up_streak=3)
        scalars = [ArfController(up_streak=3) for _ in range(n)]
        for step in range(400):
            mcs = batched.select(float(step))
            assert mcs.tolist() == [c.select(float(step)) for c in scalars]
            attempted = rng.integers(0, 5, n)
            succeeded = rng.binomial(attempted, rng.uniform(0.0, 1.0, n))
            batched.feedback(float(step), mcs, attempted, succeeded)
            for c, m, a, s in zip(scalars, mcs, attempted, succeeded):
                c.feedback(float(step), int(m), int(a), int(s))

    @pytest.mark.parametrize(
        "attempted,succeeded",
        [([4, -1], [0, 0]), ([4, 2], [-1, 0]), ([4, 2], [5, 0])],
    )
    def test_invalid_feedback_rejected(self, attempted, succeeded):
        ctrl = BatchArfController(2)
        with pytest.raises(ValueError, match="invalid feedback"):
            ctrl.feedback(0.0, ctrl.select(0.0), attempted, succeeded)
        np.testing.assert_array_equal(ctrl.positions, [0, 0])

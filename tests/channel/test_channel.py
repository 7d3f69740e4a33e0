"""Tests for the channel profiles and the stateful sampler."""

import numpy as np
import pytest

from repro.channel import (
    AerialChannel,
    LinkBudget,
    airplane_profile,
    indoor_profile,
    noise_floor_dbm,
    quadrocopter_profile,
)
from repro.sim import RandomStreams


class TestLinkBudget:
    def test_noise_floor_40mhz(self):
        # -174 + 10 log10(40e6) + 5 = -93 dBm.
        assert noise_floor_dbm(40e6, 5.0) == pytest.approx(-93.0, abs=0.1)

    def test_snr_cap_applies(self):
        budget = LinkBudget(snr_cap_db=10.0)
        assert budget.snr_db(path_loss_db=0.0) == 10.0

    def test_snr_without_cap(self):
        budget = LinkBudget()
        snr = budget.snr_db(path_loss_db=80.0)
        expected = budget.eirp_dbm + budget.rx_antenna_gain_dbi - 80.0 - budget.noise_floor_dbm
        assert snr == pytest.approx(expected)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            LinkBudget(bandwidth_hz=0.0)


class TestProfiles:
    def test_mean_snr_decreases_with_distance(self):
        for profile in (airplane_profile(), quadrocopter_profile()):
            snrs = [profile.mean_snr_db(d) for d in (20, 50, 100, 200, 300)]
            assert all(b <= a + 1e-9 for a, b in zip(snrs, snrs[1:]))

    def test_airplane_has_no_speed_penalty(self):
        p = airplane_profile()
        assert p.mean_snr_db(100.0, 20.0) == p.mean_snr_db(100.0, 0.0)

    def test_quad_speed_penalty(self):
        p = quadrocopter_profile()
        assert p.mean_snr_db(60.0, 8.0) < p.mean_snr_db(60.0, 0.0)

    def test_min_distance_floor(self):
        p = airplane_profile()
        assert p.mean_snr_db(1.0) == p.mean_snr_db(p.min_distance_m)

    def test_indoor_is_much_better(self):
        indoor = indoor_profile()
        air = airplane_profile()
        assert indoor.mean_snr_db(10.0) > air.mean_snr_db(20.0) + 10.0


class TestAerialChannel:
    def test_samples_scatter_around_mean(self, streams):
        channel = AerialChannel(airplane_profile(), streams)
        mean = channel.mean_snr_db(100.0)
        samples = np.array(
            [channel.sample_snr_db(i * 0.02, 100.0) for i in range(5000)]
        )
        # Dropouts skew the distribution low; the median should be near
        # the mean SNR and the spread should reflect the shadowing.
        assert abs(np.median(samples) - mean) < 4.0
        assert 2.0 < samples.std() < 12.0

    def test_deterministic_for_fixed_seed(self):
        a = AerialChannel(airplane_profile(), RandomStreams(7))
        b = AerialChannel(airplane_profile(), RandomStreams(7))
        sa = [a.sample_snr_db(i * 0.02, 80.0) for i in range(100)]
        sb = [b.sample_snr_db(i * 0.02, 80.0) for i in range(100)]
        assert np.allclose(sa, sb)

    def test_mean_memo_matches_profile(self):
        channel = AerialChannel(quadrocopter_profile(), RandomStreams(3))
        profile = channel.profile
        # Misses, hits, a speed-only change and returns to earlier keys.
        for d, v in ((60.0, 0.0), (60.0, 0.0), (61.5, 0.0), (61.5, 4.0),
                     (70.0, 4.0), (70.0, 4.0), (60.0, 0.0), (3.0, 12.0)):
            assert channel.mean_snr_db(d, v) == profile.mean_snr_db(d, v)
        with pytest.raises(ValueError):
            channel.mean_snr_db(60.0, -1.0)
        assert channel.mean_snr_db(3.0, 12.0) == profile.mean_snr_db(3.0, 12.0)

    def test_memo_inputs_are_read_only(self):
        from repro.channel import BatchAerialChannel

        channel = AerialChannel(airplane_profile(), RandomStreams(3))
        batch = BatchAerialChannel(airplane_profile(), 2, RandomStreams(3))
        targets = [
            (channel, "profile"), (batch, "profile"),
            (channel._shadowing, "config"), (batch._shadowing, "config"),
        ] + [
            (fading, name)
            for fading in (channel._rician, batch._rician)
            for name in ("k_factor_hover_db", "k_factor_floor_db",
                         "speed_scale_mps")
        ]
        for owner, name in targets:
            with pytest.raises(AttributeError):
                setattr(owner, name, getattr(owner, name))

    def test_speed_lowers_quad_samples(self):
        slow = AerialChannel(quadrocopter_profile(), RandomStreams(3))
        fast = AerialChannel(quadrocopter_profile(), RandomStreams(3))
        s_slow = np.median([slow.sample_snr_db(i * 0.02, 60.0, 0.0) for i in range(2000)])
        s_fast = np.median([fast.sample_snr_db(i * 0.02, 60.0, 12.0) for i in range(2000)])
        assert s_fast < s_slow - 3.0

"""Tests for A-MPDU aggregation and the airtime model."""

import numpy as np
import pytest

from repro.mac import AmpduConfig, AmpduLink


@pytest.fixture
def link():
    return AmpduLink()


class TestAmpduConfig:
    def test_default_fourteen_subframes(self):
        assert AmpduConfig().max_subframes == 14

    def test_host_ceiling_shrinks_aggregate(self):
        cfg = AmpduConfig(host_ceiling_bps=90e6)
        assert cfg.subframes_for_rate(60e6) == 14
        # At 300 Mb/s PHY the host can only fill 90/300 of the queue.
        assert cfg.subframes_for_rate(300e6) == int(14 * 90 / 300)

    def test_at_least_one_subframe(self):
        cfg = AmpduConfig(host_ceiling_bps=1e6)
        assert cfg.subframes_for_rate(300e6) == 1

    def test_infinite_ceiling_disables_starvation(self):
        cfg = AmpduConfig(host_ceiling_bps=float("inf"))
        assert cfg.subframes_for_rate(300e6) == 14

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            AmpduConfig(max_subframes=0)
        with pytest.raises(ValueError):
            AmpduConfig(host_ceiling_bps=0.0)


class TestAirtime:
    def test_airtime_exceeds_payload_time(self, link):
        n = 14
        payload_time = n * link.config.layout.subframe_bytes * 8 / 60e6
        assert link.burst_airtime_s(3, n) > payload_time

    def test_airtime_grows_with_subframes(self, link):
        assert link.burst_airtime_s(3, 14) > link.burst_airtime_s(3, 1)

    def test_invalid_subframe_count_rejected(self, link):
        with pytest.raises(ValueError):
            link.burst_airtime_s(3, 0)

    def test_memoised_terms_match_fresh_links(self, link):
        cfg = link.config
        for mcs in range(16):
            # Hit the memo twice, then compare with a link that never saw
            # the inputs; past max_subframes nothing is memoised.
            for n in range(1, cfg.max_subframes + 3):
                first = link.burst_airtime_s(mcs, n)
                assert link.burst_airtime_s(mcs, n) == first
                assert AmpduLink().burst_airtime_s(mcs, n) == first
            assert link.subframes_for_mcs(mcs) == cfg.subframes_for_rate(
                link.phy.data_rate_bps(mcs)
            )
        assert len(link._airtime) == 16 * cfg.max_subframes
        with pytest.raises(KeyError):
            link.subframes_for_mcs(16)

    def test_memo_inputs_are_read_only(self, link):
        for name in ("config", "phy", "dcf"):
            with pytest.raises(AttributeError):
                setattr(link, name, getattr(link, name))


class TestExpectedGoodput:
    def test_zero_per_mcs3_efficiency(self, link):
        goodput = link.expected_goodput_bps(3, 0.0)
        # MAC efficiency of a 14-subframe aggregate at 60 Mb/s is high.
        assert 0.75 * 60e6 < goodput < 60e6

    def test_goodput_scales_with_success(self, link):
        assert link.expected_goodput_bps(3, 0.5) == pytest.approx(
            0.5 * link.expected_goodput_bps(3, 0.0)
        )

    def test_full_loss_zero_goodput(self, link):
        assert link.expected_goodput_bps(3, 1.0) == 0.0

    def test_aggregation_beats_single_frame(self):
        aggregated = AmpduLink(AmpduConfig(max_subframes=14))
        single = AmpduLink(AmpduConfig(max_subframes=1))
        assert aggregated.expected_goodput_bps(3, 0.0) > 1.5 * single.expected_goodput_bps(3, 0.0)

    def test_invalid_per_rejected(self, link):
        with pytest.raises(ValueError):
            link.expected_goodput_bps(3, 1.5)


class TestTransmitBurst:
    def test_delivery_counts_bounded(self, link):
        rng = np.random.default_rng(1)
        outcome = link.transmit_burst(rng, 3, subframe_per=0.3)
        assert 0 <= outcome.subframes_delivered <= outcome.subframes_sent
        assert outcome.subframes_sent == 14

    def test_zero_per_delivers_all(self, link):
        rng = np.random.default_rng(1)
        outcome = link.transmit_burst(rng, 3, subframe_per=0.0)
        assert outcome.delivery_ratio == 1.0

    def test_backlog_limits_aggregate(self, link):
        rng = np.random.default_rng(1)
        payload = link.config.layout.app_payload_bytes
        outcome = link.transmit_burst(rng, 3, 0.0, backlog_bytes=2 * payload)
        assert outcome.subframes_sent == 2
        assert outcome.payload_bytes_delivered == 2 * payload

    def test_empty_backlog_sends_nothing(self, link):
        rng = np.random.default_rng(1)
        outcome = link.transmit_burst(rng, 3, 0.0, backlog_bytes=0)
        assert outcome.subframes_sent == 0
        assert outcome.airtime_s == 0.0

    def test_partial_last_subframe_capped_by_backlog(self, link):
        rng = np.random.default_rng(1)
        outcome = link.transmit_burst(rng, 3, 0.0, backlog_bytes=100)
        assert outcome.payload_bytes_delivered == 100

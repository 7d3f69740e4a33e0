"""Tests for the 802.11n MCS table."""

import pytest

from repro.phy import all_mcs_indices, data_rate_bps, get_mcs


class TestTableStructure:
    def test_sixteen_entries(self):
        assert all_mcs_indices() == list(range(16))

    def test_stream_counts(self):
        assert all(get_mcs(i).spatial_streams == 1 for i in range(8))
        assert all(get_mcs(i).spatial_streams == 2 for i in range(8, 16))

    def test_uses_sdm_flag(self):
        assert not get_mcs(3).uses_sdm
        assert get_mcs(8).uses_sdm

    def test_unknown_index_raises(self):
        with pytest.raises(KeyError, match="0..15"):
            get_mcs(16)


class TestStandardRates:
    """Validate computed rates against IEEE 802.11n Table 20-30/20-31."""

    @pytest.mark.parametrize(
        "index,expected_mbps",
        [(0, 6.5), (1, 13.0), (2, 19.5), (3, 26.0), (4, 39.0),
         (5, 52.0), (6, 58.5), (7, 65.0), (8, 13.0), (15, 130.0)],
    )
    def test_20mhz_long_gi(self, index, expected_mbps):
        assert data_rate_bps(index, 20e6, short_gi=False) == pytest.approx(
            expected_mbps * 1e6, rel=1e-3
        )

    @pytest.mark.parametrize(
        "index,expected_mbps",
        [(0, 15.0), (1, 30.0), (2, 45.0), (3, 60.0), (4, 90.0),
         (5, 120.0), (6, 135.0), (7, 150.0), (8, 30.0), (11, 120.0),
         (15, 300.0)],
    )
    def test_40mhz_short_gi(self, index, expected_mbps):
        """The testbed configuration: 40 MHz + 400 ns guard interval."""
        assert data_rate_bps(index, 40e6, short_gi=True) == pytest.approx(
            expected_mbps * 1e6, rel=1e-3
        )

    def test_paper_fixed_rates_up_to_60mbps(self):
        """The paper's fixed set {MCS1, 2, 3, 8} peaks at 60 Mb/s."""
        rates = [data_rate_bps(i) for i in (1, 2, 3, 8)]
        assert max(rates) == pytest.approx(60e6, rel=1e-3)

    def test_mcs8_equals_mcs1_rate(self):
        """Two-stream BPSK 1/2 matches single-stream QPSK 1/2."""
        assert data_rate_bps(8) == pytest.approx(data_rate_bps(1))


class TestRateProperties:
    def test_rates_non_decreasing_within_stream_group(self):
        for group in (range(8), range(8, 16)):
            rates = [data_rate_bps(i) for i in group]
            assert rates == sorted(rates)

    def test_two_streams_double_one_stream(self):
        for i in range(8):
            assert data_rate_bps(i + 8) == pytest.approx(2 * data_rate_bps(i))

    def test_short_gi_is_ten_ninths(self):
        for i in range(16):
            lgi = data_rate_bps(i, 40e6, short_gi=False)
            sgi = data_rate_bps(i, 40e6, short_gi=True)
            assert sgi / lgi == pytest.approx(10.0 / 9.0)

    def test_unsupported_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="bandwidth"):
            data_rate_bps(0, 80e6)

    def test_describe_format(self):
        assert get_mcs(3).describe() == "MCS3: 16-QAM 1/2 x1"
        assert get_mcs(8).describe() == "MCS8: BPSK 1/2 x2"

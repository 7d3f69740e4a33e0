"""Property-based tests for the substrate layers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import DualSlopePathLoss, FreeSpacePathLoss, LogDistancePathLoss
from repro.geo import EnuPoint, GeoPoint, LocalFrame, haversine_m, slant_range_m
from repro.mac import BlockAckScoreboard, MpduLayout
from repro.phy import ErrorModel, all_mcs_indices, get_mcs
from repro.sim import Simulator, SummaryStats

lat = st.floats(min_value=-80.0, max_value=80.0)
lon = st.floats(min_value=-179.0, max_value=179.0)
small_offset = st.floats(min_value=-2000.0, max_value=2000.0)


class TestGeoProperties:
    @given(lat1=lat, lon1=lon, lat2=lat, lon2=lon)
    def test_haversine_symmetric_and_nonnegative(self, lat1, lon1, lat2, lon2):
        a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
        d_ab = haversine_m(a, b)
        assert d_ab >= 0.0
        assert abs(d_ab - haversine_m(b, a)) < 1e-6

    @given(lat1=lat, lon1=lon, alt1=st.floats(0, 500), alt2=st.floats(0, 500))
    def test_slant_range_at_least_altitude_gap(self, lat1, lon1, alt1, alt2):
        a = GeoPoint(lat1, lon1, alt1)
        b = GeoPoint(lat1, lon1, alt2)
        assert slant_range_m(a, b) >= abs(alt2 - alt1) - 1e-9

    @given(east=small_offset, north=small_offset, up=st.floats(-100, 400))
    def test_frame_round_trip(self, east, north, up):
        frame = LocalFrame(GeoPoint(47.3769, 8.5417, 400.0))
        point = EnuPoint(east, north, up)
        back = frame.to_enu(frame.to_geodetic(point))
        assert abs(back.east_m - east) < 1e-3
        assert abs(back.north_m - north) < 1e-3
        assert abs(back.up_m - up) < 1e-9

    @given(
        e1=small_offset, n1=small_offset, e2=small_offset, n2=small_offset,
        e3=small_offset, n3=small_offset,
    )
    def test_enu_triangle_inequality(self, e1, n1, e2, n2, e3, n3):
        a, b, c = EnuPoint(e1, n1), EnuPoint(e2, n2), EnuPoint(e3, n3)
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-9


class TestPathLossProperties:
    models = st.sampled_from(
        [
            FreeSpacePathLoss(),
            LogDistancePathLoss(exponent=2.0, reference_loss_db=47.0),
            DualSlopePathLoss(),
        ]
    )

    @given(model=models, d1=st.floats(1.0, 5000.0), d2=st.floats(1.0, 5000.0))
    def test_loss_monotone_in_distance(self, model, d1, d2):
        lo, hi = sorted((d1, d2))
        assert model.loss_db(lo) <= model.loss_db(hi) + 1e-9


class TestErrorModelProperties:
    @settings(max_examples=50)
    @given(
        snr=st.floats(-30.0, 60.0),
        mcs=st.sampled_from(all_mcs_indices()),
        nbytes=st.integers(min_value=1, max_value=4000),
    )
    def test_per_valid_probability(self, snr, mcs, nbytes):
        per = ErrorModel().per(snr, mcs, nbytes)
        assert 0.0 <= per <= 1.0

    @settings(max_examples=50)
    @given(
        snr=st.floats(-30.0, 60.0),
        mcs=st.sampled_from(all_mcs_indices()),
    )
    def test_per_monotone_in_length(self, snr, mcs):
        model = ErrorModel()
        assert model.per(snr, mcs, 3000) >= model.per(snr, mcs, 300) - 1e-12

    @settings(max_examples=50)
    @given(
        bw=st.sampled_from([20e6, 40e6]),
        sgi=st.booleans(),
        mcs=st.sampled_from(all_mcs_indices()),
    )
    def test_rates_positive(self, bw, sgi, mcs):
        assert get_mcs(mcs).data_rate_bps(bw, sgi) > 0


class TestMacProperties:
    @given(payload=st.integers(min_value=1, max_value=2000))
    def test_subframe_accounting(self, payload):
        layout = MpduLayout(app_payload_bytes=payload)
        assert layout.subframe_bytes % 4 == 0
        assert layout.subframe_bytes > layout.ip_packet_bytes
        assert 0 < layout.efficiency < 1

    @settings(max_examples=30, deadline=None)
    @given(
        window=st.integers(min_value=1, max_value=64),
        loss=st.floats(min_value=0.0, max_value=0.9),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_scoreboard_eventually_completes(self, window, loss, seed):
        import random

        rng = random.Random(seed)
        sb = BlockAckScoreboard(window_size=window)
        target = 50
        for _ in range(10_000):
            if sb.completed >= target:
                break
            batch = sb.next_batch(window)
            sb.acknowledge([s for s in batch if rng.random() > loss])
        assert sb.completed >= target


class TestKernelProperties:
    @settings(max_examples=30, deadline=None)
    @given(times=st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=50))
    def test_events_always_fire_in_order(self, times):
        sim = Simulator()
        fired = []
        for t in times:
            sim.schedule(t, lambda t=t: fired.append(t))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(times)


class TestStatsProperties:
    @given(
        samples=st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200
        )
    )
    def test_summary_orderings(self, samples):
        stats = SummaryStats.from_samples(samples)
        assert stats.minimum <= stats.q1 <= stats.median <= stats.q3 <= stats.maximum
        assert stats.minimum <= stats.whisker_low <= stats.whisker_high <= stats.maximum
        assert stats.count == len(samples)

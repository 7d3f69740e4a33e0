"""Tests for the wireless link engine."""

import hashlib
import struct

import numpy as np
import pytest

from repro.channel import AerialChannel, airplane_profile, indoor_profile
from repro.net import WirelessLink
from repro.phy import ArfController, FixedMcs
from repro.sim import RandomStreams


def make_link(profile=None, controller=None, seed=1, **kwargs):
    streams = RandomStreams(seed)
    channel = AerialChannel(
        profile if profile is not None else airplane_profile(), streams
    )
    return WirelessLink(
        channel,
        controller if controller is not None else FixedMcs(3),
        streams=streams,
        **kwargs,
    )


class TestStep:
    def test_delivers_bytes_at_short_range(self):
        link = make_link()
        total = sum(
            link.step(i * 0.02, distance_m=20.0).bytes_delivered
            for i in range(100)
        )
        # 2 seconds of MCS3 at close range delivers megabytes.
        assert total > 1e6

    def test_delivers_nothing_far_beyond_range(self):
        link = make_link()
        total = sum(
            link.step(i * 0.02, distance_m=2000.0).bytes_delivered
            for i in range(100)
        )
        assert total == 0

    def test_backlog_bounds_delivery(self):
        link = make_link(profile=indoor_profile())
        result = link.step(0.0, distance_m=10.0, backlog_bytes=5000)
        assert result.bytes_delivered <= 5000

    def test_zero_backlog_no_transmission(self):
        link = make_link()
        result = link.step(0.0, distance_m=20.0, backlog_bytes=0)
        assert result.bytes_delivered == 0
        assert result.subframes_sent == 0

    def test_subframes_accounting(self):
        link = make_link()
        result = link.step(0.0, distance_m=20.0)
        assert 0 <= result.subframes_delivered <= result.subframes_sent
        assert result.subframes_sent > 0
        assert 0.0 <= result.delivery_ratio <= 1.0

    def test_invalid_duration_rejected(self):
        link = make_link()
        with pytest.raises(ValueError):
            link.step(0.0, distance_m=20.0, duration_s=0.0)

    def test_subdivided_step_aggregates(self):
        link = make_link()
        result = link.step(0.0, distance_m=20.0, duration_s=0.1)
        assert result.airtime_s <= 0.1 + 1e-9
        assert result.subframes_sent >= 5  # several epochs worth

    def test_deterministic_given_seed(self):
        a = make_link(seed=3)
        b = make_link(seed=3)
        ra = [a.step(i * 0.02, 50.0).bytes_delivered for i in range(50)]
        rb = [b.step(i * 0.02, 50.0).bytes_delivered for i in range(50)]
        assert ra == rb

    def test_feedback_reaches_controller(self):
        ctrl = ArfController(up_streak=1)
        link = make_link(profile=indoor_profile(), controller=ctrl)
        start = ctrl.current_mcs
        for i in range(50):
            link.step(i * 0.02, distance_m=5.0)
        assert ctrl.current_mcs != start  # climbed the chain

    def test_epoch_validation(self):
        with pytest.raises(ValueError):
            make_link(epoch_s=0.0)


class TestExpectedGoodput:
    def test_matches_simulated_average(self):
        link = make_link(controller=FixedMcs(3))
        expected = link.expected_goodput_bps(40.0, mcs_index=3)
        simulated = (
            sum(
                link.step(i * 0.02, distance_m=40.0).bytes_delivered
                for i in range(4000)
            )
            * 8.0
            / (4000 * 0.02)
        )
        # Fading lowers the realised goodput below the mean-SNR value;
        # they should agree within a factor of ~1.6.
        assert simulated == pytest.approx(expected, rel=0.6)

    def test_decreases_with_distance(self):
        link = make_link()
        assert link.expected_goodput_bps(250.0, mcs_index=3) < link.expected_goodput_bps(
            40.0, mcs_index=3
        )


# ----------------------------------------------------------------------
# Bit-identity pins for the scalar link
# ----------------------------------------------------------------------

#: sha256 of the ``LinkStepResult`` stream of :func:`_pin_script` per
#: (controller, profile), 546 results each, recorded before the
#: scalar link's per-step fixed costs were cut: any drift in draw
#: order or arithmetic fails here.  They also pin NumPy's Generator
#: streams and ufunc results: re-record them from a known-good commit
#: only when a NumPy upgrade moves those.
STEP_DIGESTS = {
    ("arf", "airplane"):
        "7ff20eafd22531bd7c332384bd6e2a6c55dd19d2e6aa0f0301e0d8b43afca3ed",
    ("arf", "quadrocopter"):
        "a33a0db3c8e0b150afcb6d92ce18d5dcb93e7f427200a72ce7808fb5c54df775",
    ("oracle", "airplane"):
        "defa11766a9265e263c638eb7e83cd0ff4d701bf3d57de8403a4d97f0ea56b76",
    ("oracle", "quadrocopter"):
        "3aa5e29f5595da5aa8f0a69d3bd3e05b796b14964288b9377d53e1ea9d5bb9e6",
}


def _pin_link(controller: str, profile: str) -> WirelessLink:
    from repro.channel import quadrocopter_profile
    from repro.faults.outage import OutageSchedule
    from repro.phy import scalar_controller

    streams = RandomStreams(seed=11)
    prof = airplane_profile() if profile == "airplane" else quadrocopter_profile()
    return WirelessLink(
        AerialChannel(prof, streams),
        scalar_controller(controller),
        streams=streams,
        outage=OutageSchedule([(9.0, 9.6)]),
    )


def _pin_script(link: WirelessLink, speed: float):
    """Yield every result of a scripted run that crosses each memo.

    Approach then hover; hover, move, a new speed, hover again (and a
    return to an earlier hover point); a backlog drained to zero; an
    outage window; subdivided and sub-epoch steps, saturated and with
    a backlog.
    """
    t = 0.0
    # Approach from 300 m to 40 m, then hover.
    for i in range(130):
        yield link.step(t, 300.0 - 2.0 * i, speed)
        t += 0.02
    for _ in range(100):
        yield link.step(t, 40.0)
        t += 0.02
    # Hover, move, new speed, hover; revisit an earlier hover point.
    for d, v in ((80.0, 0.0), (120.0, 0.0)):
        for _ in range(15):
            yield link.step(t, d, v)
            t += 0.02
    for i in range(20):
        yield link.step(t, 120.0 - 1.5 * i, 5.0)
        t += 0.02
    for i in range(20):
        yield link.step(t, 90.0 - 0.5 * i, speed + 3.0)
        t += 0.02
    for d in (80.0, 80.0, 80.0, 40.0, 40.0, 250.0, 250.0, 40.0):
        yield link.step(t, d)
        t += 0.02
    # Backlog drained down to zero, then idle steps on an empty queue.
    backlog = 180_000
    for _ in range(120):
        result = link.step(t, 60.0, speed, backlog_bytes=backlog)
        backlog -= result.bytes_delivered
        yield result
        t += 0.02
        if backlog <= 0:
            break
    assert backlog == 0
    for _ in range(3):
        yield link.step(t, 60.0, speed, backlog_bytes=backlog)
        t += 0.02
    # Through the outage window [9.0, 9.6).
    t = max(t, 8.8)
    for i in range(50):
        yield link.step(t, 70.0 + 0.2 * i, speed)
        t += 0.02
    # Subdivided steps (duration > 1.5 epochs), saturated and finite,
    # and sub-epoch steps.
    for duration in (0.1, 0.05, 0.04, 0.2):
        yield link.step(t, 100.0, speed, duration_s=duration)
        t += duration
    backlog = 400_000
    for _ in range(8):
        result = link.step(t, 45.0, 0.0, duration_s=0.1, backlog_bytes=backlog)
        backlog -= result.bytes_delivered
        yield result
        t += 0.1
    for duration in (0.01, 0.025, 0.005):
        for _ in range(40):
            yield link.step(t, 150.0, speed, duration_s=duration)
            t += duration
    for d in (30.0, 200.0, 260.0):
        yield link.step(t, d, speed, duration_s=0.3)
        t += 0.3


def _stream_digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(struct.pack(
            "<4q2d", r.bytes_delivered, r.subframes_sent,
            r.subframes_delivered, r.mcs_index, r.snr_db, r.airtime_s,
        ))
    return h.hexdigest()


#: sha256 of the float64 bytes of 40 ``expected_goodput_bps`` values.
GOODPUT_DIGEST = (
    "eba7b6e3cee51e8f58f078125086a277cb559e665cd572af867126768e7a6e24"
)


class TestStepDigestPins:
    @pytest.mark.parametrize("controller,profile", sorted(STEP_DIGESTS))
    def test_step_stream_pinned(self, controller, profile):
        speed = 15.0 if profile == "airplane" else 4.0
        results = list(_pin_script(_pin_link(controller, profile), speed))
        assert _stream_digest(results) == STEP_DIGESTS[(controller, profile)]

    def test_expected_goodput_pinned(self):
        link = _pin_link("oracle", "airplane")
        values = [
            link.expected_goodput_bps(d, v, mcs)
            for d in (20.0, 80.0, 160.0, 240.0)
            for v in (0.0, 6.0)
            for mcs in (None, 0, 3, 8, 15)
        ]
        assert hashlib.sha256(
            np.asarray(values, dtype=np.float64).tobytes()
        ).hexdigest() == GOODPUT_DIGEST



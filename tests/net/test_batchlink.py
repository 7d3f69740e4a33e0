"""Tests for the replica-batched link engine.

The centrepiece is the lockstep-equivalence guard: a batch of ONE
replica fed the same :class:`RandomStreams` seed must reproduce the
scalar :class:`WirelessLink` epoch by epoch, bit for bit — every
``LinkStepResult`` field, including the float SNR and airtime.  That
pins the batched engine to the scalar semantics; any vectorisation
change that drifts the random-stream consumption or the arithmetic
breaks this test immediately.
"""

import numpy as np
import pytest

from repro.channel import (
    AerialChannel,
    BatchAerialChannel,
    airplane_profile,
    quadrocopter_profile,
)
from repro.net import BatchWirelessLink, WirelessLink
from repro.net.batchlink import BatchLinkStepResult
from repro.phy import ErrorModel, batch_controller, scalar_controller
from repro.sim import RandomStreams


def make_pair(spec, seed=42, profile_fn=airplane_profile, n_replicas=1):
    """(scalar link, batched link) on identically seeded streams."""
    s1, s2 = RandomStreams(seed), RandomStreams(seed)
    error_model = ErrorModel()
    scalar = WirelessLink(
        AerialChannel(profile_fn(), s1),
        scalar_controller(spec, error_model),
        error_model=error_model,
        streams=s1,
    )
    batched = BatchWirelessLink(
        BatchAerialChannel(profile_fn(), n_replicas, s2),
        batch_controller(spec, n_replicas, error_model),
        error_model=error_model,
        streams=s2,
    )
    return scalar, batched


class TestLockstepEquivalence:
    """R=1 batched == scalar, field for field, draw for draw."""

    @pytest.mark.parametrize("spec", ["arf", "fixed:3", "fixed:8", "oracle"])
    def test_saturated_epochs_bit_identical(self, spec):
        scalar, batched = make_pair(spec)
        now = 0.0
        for i in range(600):
            distance = 120.0 + 90.0 * np.sin(i / 50.0)
            speed = 6.0 if i % 4 else 0.0
            want = scalar.step(now, distance_m=distance, relative_speed_mps=speed)
            got = batched.step(
                now, distance_m=distance, relative_speed_mps=speed
            ).result(0)
            assert got == want, f"{spec} diverged at epoch {i}"
            now += scalar.epoch_s

    @pytest.mark.parametrize("profile_fn", [airplane_profile, quadrocopter_profile])
    def test_profiles_bit_identical(self, profile_fn):
        scalar, batched = make_pair("arf", seed=7, profile_fn=profile_fn)
        now = 0.0
        for i in range(300):
            want = scalar.step(now, distance_m=60.0, relative_speed_mps=3.0)
            got = batched.step(
                now, distance_m=60.0, relative_speed_mps=3.0
            ).result(0)
            assert got == want
            now += scalar.epoch_s

    def test_backlog_and_subdivided_bit_identical(self):
        scalar, batched = make_pair("arf", seed=11)
        now, backlog_s, backlog_b = 0.0, 4_000_000, 4_000_000
        drained_at = None
        for i in range(200):
            want = scalar.step(
                now, distance_m=150.0, duration_s=0.1, backlog_bytes=backlog_s
            )
            got = batched.step(
                now, distance_m=150.0, duration_s=0.1, backlog_bytes=backlog_b
            ).result(0)
            assert got == want, f"diverged at tick {i}"
            backlog_s -= want.bytes_delivered
            backlog_b -= got.bytes_delivered
            if backlog_s <= 0 and drained_at is None:
                drained_at = i
            now += 0.1
        assert drained_at is not None  # the transfer actually finished
        assert backlog_s == backlog_b

    def test_seed_sensitivity(self):
        """Different seeds must give different streams (guard the guard)."""
        scalar, _ = make_pair("arf", seed=1)
        _, batched = make_pair("arf", seed=2)
        results_differ = False
        now = 0.0
        for _ in range(50):
            want = scalar.step(now, distance_m=150.0)
            got = batched.step(now, distance_m=150.0).result(0)
            if got != want:
                results_differ = True
                break
            now += scalar.epoch_s
        assert results_differ


class TestBatchSemantics:
    def test_replica_count_mismatch_rejected(self):
        streams = RandomStreams(0)
        channel = BatchAerialChannel(airplane_profile(), 4, streams)
        with pytest.raises(ValueError, match="replicas"):
            BatchWirelessLink(channel, batch_controller("arf", 3), streams=streams)

    def test_result_shapes_and_accessor(self):
        _, batched = make_pair("arf", n_replicas=5)
        step = batched.step(0.0, distance_m=100.0)
        assert isinstance(step, BatchLinkStepResult)
        assert step.n_replicas == 5
        for name in (
            "bytes_delivered",
            "subframes_sent",
            "subframes_delivered",
            "mcs_index",
            "snr_db",
            "airtime_s",
        ):
            assert getattr(step, name).shape == (5,)
        one = step.result(2)
        assert one.bytes_delivered == int(step.bytes_delivered[2])
        assert one.snr_db == float(step.snr_db[2])

    def test_per_replica_distance_array(self):
        _, batched = make_pair("fixed:3", n_replicas=3)
        distances = np.array([40.0, 150.0, 300.0])
        totals = np.zeros(3)
        now = 0.0
        for _ in range(200):
            step = batched.step(now, distance_m=distances)
            totals += step.bytes_delivered
            now += batched.epoch_s
        # Throughput must fall monotonically with distance.
        assert totals[0] > totals[1] > totals[2]

    def test_per_replica_backlog_drains_independently(self):
        _, batched = make_pair("fixed:3", n_replicas=2)
        backlog = np.array([50_000, 5_000_000], dtype=np.int64)
        now = 0.0
        for _ in range(50):
            step = batched.step(now, distance_m=60.0, backlog_bytes=backlog)
            backlog = backlog - step.bytes_delivered
            now += batched.epoch_s
            if backlog[0] <= 0:
                break
        assert backlog[0] <= 0
        assert backlog[1] > 0
        # Drained replica transmits nothing while the other continues.
        step = batched.step(
            now, distance_m=60.0, backlog_bytes=np.maximum(backlog, 0)
        )
        assert step.subframes_sent[0] == 0
        assert step.subframes_sent[1] > 0

    def test_delivery_ratio_zero_when_idle(self):
        _, batched = make_pair("fixed:3", n_replicas=2)
        step = batched.step(
            0.0, distance_m=60.0, backlog_bytes=np.array([0, 100_000])
        )
        ratio = step.delivery_ratio
        assert ratio[0] == 0.0
        assert 0.0 <= ratio[1] <= 1.0

    def test_statistical_agreement_many_replicas(self):
        """R>1 shares streams, so agreement is distributional, not bitwise."""
        scalar, batched = make_pair("fixed:3", seed=5, n_replicas=32)
        scalar_total = 0
        now = 0.0
        for _ in range(500):
            scalar_total += scalar.step(now, distance_m=100.0).bytes_delivered
            now += scalar.epoch_s
        batch_totals = np.zeros(32)
        now = 0.0
        for _ in range(500):
            batch_totals += batched.step(now, distance_m=100.0).bytes_delivered
            now += batched.epoch_s
        mean = batch_totals.mean()
        # The scalar run is one draw from the replica distribution.
        assert abs(scalar_total - mean) < 4 * batch_totals.std() + 1e-9

    def test_outage_replica_epochs_counted(self):
        from repro.faults import BatchOutageSchedule

        streams = RandomStreams(3)
        link = BatchWirelessLink(
            BatchAerialChannel(airplane_profile(), 2, streams),
            batch_controller("arf", 2),
            streams=streams,
            outage=BatchOutageSchedule([[(0.05, 0.11)], []]),
        )
        for i in range(10):
            link.step(i * link.epoch_s, distance_m=100.0)
        # Replica 0 is out at t = 0.06, 0.08 and 0.10; replica 1 never.
        assert link.outage_replica_epochs == 3

    def test_cached_inputs_are_read_only(self):
        # Both links derive layout sizes (and the scalar its outage memo)
        # from these when they are built.
        for link in make_pair("arf"):
            for name in ("mac", "outage"):
                with pytest.raises(AttributeError):
                    setattr(link, name, getattr(link, name))

    def test_expected_goodput_matches_scalar_shape(self):
        _, batched = make_pair("oracle", n_replicas=4)
        goodput = batched.expected_goodput_bps(np.array([50.0, 100.0, 200.0, 300.0]))
        assert goodput.shape == (4,)
        assert np.all(goodput >= 0.0)
        assert goodput[0] > goodput[3]


class TestReturnedArraysOwnNoState:
    """Writing to a step result never reaches into controller state."""

    @pytest.mark.parametrize("spec", ["arf", "fixed:3", "oracle"])
    def test_mcs_index_does_not_alias_controller(self, spec):
        _, batched = make_pair(spec, n_replicas=4)
        distances = np.array([50.0, 100.0, 200.0, 300.0])
        step = batched.step(0.0, distance_m=distances)
        # Without a hint the oracle repeats its last choice.
        want = np.array(batched.controller.select(0.02))
        try:
            step.mcs_index[:] = 0
        except ValueError:
            pass  # read-only is as good as a copy
        hint = batched.channel.mean_snr_db_batch(distances)
        np.testing.assert_array_equal(batched.controller.select(0.02), want)
        np.testing.assert_array_equal(
            batched.controller.select(0.02, snr_hint_db=hint), want
        )

    def test_mean_snr_does_not_alias_memo(self):
        _, batched = make_pair("oracle", n_replicas=3)
        distances = np.array([60.0, 120.0, 240.0])
        mean = batched.channel.mean_snr_db_batch(distances)
        want = mean.copy()
        try:
            mean[:] = 99.0
        except ValueError:
            pass
        np.testing.assert_array_equal(
            batched.channel.mean_snr_db_batch(distances), want
        )


class TestNonFiniteDistance:
    """A NaN or infinite distance fails the step in both twins."""

    @pytest.mark.parametrize("distance", [np.nan, np.inf])
    def test_scalar_step_rejects(self, distance):
        scalar, _ = make_pair("arf")
        scalar.step(0.0, distance_m=100.0)
        with pytest.raises(ValueError, match="distance must be positive"):
            scalar.step(0.02, distance_m=distance)

    @pytest.mark.parametrize("distance", [np.nan, np.inf])
    def test_batch_step_rejects(self, distance):
        _, batched = make_pair("arf", n_replicas=3)
        batched.step(0.0, distance_m=100.0)
        with pytest.raises(ValueError, match="distance must be positive"):
            batched.step(0.02, distance_m=np.array([100.0, distance, 50.0]))

    def test_rejection_leaves_the_twins_in_lockstep(self):
        scalar, batched = make_pair("oracle")
        for i, distance in enumerate([80.0, np.nan, 80.0, 120.0]):
            now = 0.02 * i
            if np.isnan(distance):
                for link in (scalar, batched):
                    with pytest.raises(ValueError):
                        link.step(now, distance_m=distance)
                continue
            want = scalar.step(now, distance_m=distance)
            assert batched.step(now, distance_m=distance).result(0) == want


class TestMeanMemo:
    """The per-step memo checks must see every change a replay sees."""

    def test_in_place_distance_change_matches_fresh_replay(self):
        first = np.array([50.0, 100.0, 150.0])
        second = np.array([200.0, 250.0, 300.0])
        for spec in ("arf", "oracle"):
            _, mutated = make_pair(spec, seed=11, n_replicas=3)
            _, fresh = make_pair(spec, seed=11, n_replicas=3)
            distances = first.copy()
            mutated.step(0.0, distance_m=distances)
            fresh.step(0.0, distance_m=first)
            distances[:] = second  # same array object, new values
            got = mutated.step(0.02, distance_m=distances)
            want = fresh.step(0.02, distance_m=second)
            for name in ("snr_db", "mcs_index", "bytes_delivered"):
                np.testing.assert_array_equal(
                    getattr(got, name), getattr(want, name)
                )
            np.testing.assert_array_equal(
                mutated.channel.mean_snr_db_batch(distances),
                fresh.channel.mean_snr_db_batch(second),
            )

    def test_in_place_speed_change_matches_fresh_replay(self):
        _, mutated = make_pair(
            "arf", seed=4, profile_fn=quadrocopter_profile, n_replicas=2
        )
        _, fresh = make_pair(
            "arf", seed=4, profile_fn=quadrocopter_profile, n_replicas=2
        )
        speeds = np.array([0.0, 2.0])
        mutated.step(0.0, distance_m=40.0, relative_speed_mps=speeds)
        fresh.step(0.0, distance_m=40.0, relative_speed_mps=np.array([0.0, 2.0]))
        speeds[:] = [9.0, 5.0]
        for now in (0.02, 0.04):
            got = mutated.step(now, distance_m=40.0, relative_speed_mps=speeds)
            want = fresh.step(
                now, distance_m=40.0, relative_speed_mps=np.array([9.0, 5.0])
            )
            np.testing.assert_array_equal(got.snr_db, want.snr_db)

    def test_scalar_and_expanded_inputs_share_the_memo(self):
        channel = BatchAerialChannel(airplane_profile(), 3, RandomStreams(0))
        a = channel.mean_snr_db_batch(100.0, 0.0)
        b = channel.mean_snr_db_batch(np.full(3, 100.0), np.zeros(3))
        c = channel.mean_snr_db_batch(100, 0)
        assert (channel.mean_cache_misses, channel.mean_cache_hits) == (1, 2)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)

    def test_negative_speed_raises_on_first_use(self):
        channel = BatchAerialChannel(airplane_profile(), 2, RandomStreams(0))
        with pytest.raises(ValueError, match="non-negative"):
            channel.sample_snr_db_batch(0.0, 100.0, -1.0)
        channel = BatchAerialChannel(airplane_profile(), 2, RandomStreams(0))
        channel.sample_snr_db_batch(0.0, 100.0, 3.0)
        with pytest.raises(ValueError, match="non-negative"):
            channel.sample_snr_db_batch(0.02, 100.0, np.array([3.0, -0.5]))

    def test_bad_shapes_still_rejected_after_a_hit(self):
        channel = BatchAerialChannel(airplane_profile(), 3, RandomStreams(0))
        channel.mean_snr_db_batch(np.full(3, 100.0))
        with pytest.raises(ValueError, match="distance_m"):
            channel.mean_snr_db_batch(np.full(1, 100.0))
        with pytest.raises(ValueError, match="relative_speed_mps"):
            channel.mean_snr_db_batch(100.0, np.zeros(2))

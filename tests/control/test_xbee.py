"""Tests for the XBee control channel."""

import pytest

from repro.control import ControlChannel, ControlMessage, XBeeConfig


def msg(payload_bytes=40):
    return ControlMessage("uav-1", "ground", payload="x", payload_bytes=payload_bytes)


class TestLatency:
    def test_latency_components(self, sim):
        channel = ControlChannel(sim)
        latency = channel.latency_s(msg(40), distance_m=1000.0)
        cfg = channel.config
        serialisation = (40 + cfg.header_bytes) * 8 / cfg.data_rate_bps
        assert latency == pytest.approx(
            cfg.overhead_s + serialisation + 1000.0 / 299_792_458.0
        )

    def test_larger_messages_take_longer(self, sim):
        channel = ControlChannel(sim)
        assert channel.latency_s(msg(200), 100.0) > channel.latency_s(msg(20), 100.0)

    def test_latency_is_milliseconds(self, sim):
        """A 40-byte telemetry report at 250 kb/s is a few ms."""
        channel = ControlChannel(sim)
        assert 0.001 < channel.latency_s(msg(40), 500.0) < 0.02

    def test_negative_distance_rejected(self, sim):
        with pytest.raises(ValueError):
            ControlChannel(sim).latency_s(msg(), -1.0)


class TestDelivery:
    def test_in_range_delivery(self, sim):
        channel = ControlChannel(sim)
        received = []
        when = channel.send(msg(), 500.0, received.append)
        assert when is not None
        sim.run()
        assert len(received) == 1
        assert sim.now == pytest.approx(when)

    def test_out_of_range_dropped(self, sim):
        channel = ControlChannel(sim)
        received = []
        when = channel.send(msg(), 2000.0, received.append)
        assert when is None
        sim.run()
        assert received == []
        assert channel.messages_dropped == 1

    def test_counters(self, sim):
        channel = ControlChannel(sim)
        channel.send(msg(), 100.0, lambda m: None)
        channel.send(msg(), 5000.0, lambda m: None)
        assert channel.messages_sent == 2
        assert channel.messages_dropped == 1

    def test_custom_range(self, sim):
        channel = ControlChannel(sim, XBeeConfig(range_m=100.0))
        assert channel.send(msg(), 150.0, lambda m: None) is None


class TestValidation:
    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            XBeeConfig(data_rate_bps=0.0)
        with pytest.raises(ValueError):
            XBeeConfig(range_m=0.0)

    def test_invalid_message_rejected(self):
        with pytest.raises(ValueError):
            ControlMessage("a", "b", None, payload_bytes=0)

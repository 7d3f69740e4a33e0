"""Tests for the sanctioned instrumentation clocks."""

import time

import repro.perf
from repro.perf import unix_clock, wall_clock


class TestSanctionedClocks:
    """The RL102/RL106 allowlist: repro.perf owns the clock aliases."""

    def test_wall_clock_is_perf_counter(self):
        assert wall_clock is time.perf_counter

    def test_module_defines_only_the_clocks(self):
        assert repro.perf.__all__ == ["unix_clock", "wall_clock"]

    def test_unix_clock_is_epoch_time(self):
        assert unix_clock is time.time
        stamp = unix_clock()
        assert isinstance(stamp, float)
        assert stamp > 0

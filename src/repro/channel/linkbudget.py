"""Link budget: transmit power, antenna gains, noise floor, SNR.

The budget also carries an *aerial SNR ceiling*: even at point-blank
range the paper's airborne links never approach their indoor
performance (~176 Mb/s indoors vs ~20 Mb/s in the air with auto rate).
Vibration-induced phase noise, planar-antenna misalignment and the lack
of spatial diversity put a hard ceiling on the usable SNR, which we
model as a cap applied after the path-loss computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

__all__ = ["LinkBudget", "noise_floor_dbm"]

BOLTZMANN_DBM_PER_HZ = -174.0


def noise_floor_dbm(bandwidth_hz: float, noise_figure_db: float = 5.0) -> float:
    """Thermal noise floor for the given bandwidth and receiver noise figure."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    if noise_figure_db < 0:
        raise ValueError("noise figure must be non-negative")
    return BOLTZMANN_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


@dataclass(frozen=True)
class LinkBudget:
    """Static RF parameters of one link."""

    tx_power_dbm: float = 15.0
    tx_antenna_gain_dbi: float = 2.0
    rx_antenna_gain_dbi: float = 2.0
    bandwidth_hz: float = 40e6
    noise_figure_db: float = 5.0
    #: Ceiling on the usable SNR of an airborne link (dB); ``inf`` disables.
    snr_cap_db: float = float("inf")

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")
        if self.noise_figure_db < 0:
            raise ValueError("noise figure must be non-negative")

    # The budget is frozen, so its derived terms are computed once.
    @cached_property
    def noise_floor_dbm(self) -> float:
        """Receiver noise floor in dBm."""
        return noise_floor_dbm(self.bandwidth_hz, self.noise_figure_db)

    @cached_property
    def eirp_dbm(self) -> float:
        """Effective isotropic radiated power."""
        return self.tx_power_dbm + self.tx_antenna_gain_dbi

    def rx_power_dbm(self, path_loss_db: float) -> float:
        """Received power after the given path loss."""
        return self.eirp_dbm - path_loss_db + self.rx_antenna_gain_dbi

    def snr_db(self, path_loss_db: float) -> float:
        """Mean SNR after the path loss, clipped at the aerial ceiling."""
        snr = self.rx_power_dbm(path_loss_db) - self.noise_floor_dbm
        return min(snr, self.snr_cap_db)

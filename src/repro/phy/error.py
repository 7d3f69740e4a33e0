"""SNR-to-packet-error-rate model for the aerial 802.11n link.

Per-MCS error behaviour is abstracted as a logistic PER-vs-SNR curve
around an *effective sensitivity threshold*:

``PER(snr) = 1 / (1 + exp((snr - threshold) / slope))``

scaled from the reference frame length to the actual subframe length.

Two threshold sets ship with the library:

* :data:`TEXTBOOK_THRESHOLDS` — receiver sensitivities derived from the
  standard's minimum-sensitivity table (offset to SNR), with a +3 dB
  STBC diversity credit for single-stream MCS and a -3.5 dB SDM penalty
  for two-stream MCS.  Use these for generic (e.g. indoor) links.
* :data:`AERIAL_THRESHOLDS` — the set *calibrated against the paper's
  measurements* (Fig. 6): single-stream STBC entries behave close to
  textbook, while two-stream SDM entries are heavily penalised by the
  aerial channel's lack of spatial diversity — except MCS8, whose
  per-stream BPSK 1/2 robustness let it win the 240-260 m range in the
  field tests.  The paper reports this observation without a physical
  explanation; we reproduce it as a calibrated sensitivity.

Two-stream entries additionally carry a success-probability ceiling
(:data:`SDM_EFFICIENCY`) modelling residual inter-stream interference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Mapping

import numpy as np

from .mcs import MCS_TABLE, get_mcs

__all__ = [
    "ErrorModel",
    "TEXTBOOK_THRESHOLDS",
    "AERIAL_THRESHOLDS",
    "SDM_EFFICIENCY",
    "REFERENCE_FRAME_BYTES",
]

#: Frame length at which the threshold tables are specified.
REFERENCE_FRAME_BYTES = 1540

#: Ceiling on the per-subframe success probability of 2-stream (SDM) MCS.
SDM_EFFICIENCY = 0.80

#: SNR (dB, 40 MHz) needed for ~50% PER at the reference length —
#: textbook sensitivities with STBC (+3 dB, 1 stream) / SDM (-3.5 dB).
TEXTBOOK_THRESHOLDS: Dict[int, float] = {
    # single stream, STBC credit applied
    0: -1.0, 1: 2.0, 2: 4.5, 3: 7.5, 4: 11.0, 5: 15.0, 6: 16.5, 7: 18.0,
    # two streams, SDM penalty applied
    8: 5.5, 9: 8.5, 10: 11.0, 11: 14.0, 12: 17.5, 13: 21.5, 14: 23.0, 15: 24.5,
}

#: Thresholds calibrated to the CoNEXT'13 aerial measurements.
#: MCS2's punctured 3/4 code is fragile against Doppler (threshold close
#: to MCS3), so it never wins a distance band — as in the paper's Fig. 6.
AERIAL_THRESHOLDS: Dict[int, float] = {
    # single stream with STBC — close to textbook behaviour in the air
    0: 2.0, 1: 4.0, 2: 8.0, 3: 9.0, 4: 15.0, 5: 19.0, 6: 21.0, 7: 23.0,
    # two streams (SDM) — crippled by the poor spatial diversity of the
    # aerial channel, except the ultra-robust BPSK 1/2 pair of MCS8
    8: 2.0, 9: 10.0, 10: 16.0, 11: 20.0, 12: 24.0, 13: 28.0, 14: 30.0, 15: 32.0,
}


@dataclass(frozen=True)
class ErrorModel:
    """Maps (SNR, MCS, frame length) to a packet error probability."""

    thresholds_db: Mapping[int, float] = field(
        default_factory=lambda: dict(AERIAL_THRESHOLDS)
    )
    #: Logistic transition width (dB).
    slope_db: float = 1.2
    sdm_efficiency: float = SDM_EFFICIENCY
    reference_bytes: int = REFERENCE_FRAME_BYTES

    def __post_init__(self) -> None:
        if self.slope_db <= 0:
            raise ValueError("slope_db must be positive")
        if not 0.0 < self.sdm_efficiency <= 1.0:
            raise ValueError("sdm_efficiency must be in (0, 1]")
        if self.reference_bytes <= 0:
            raise ValueError("reference_bytes must be positive")
        missing = set(MCS_TABLE) - set(self.thresholds_db)
        if missing:
            raise ValueError(f"thresholds missing for MCS indices {sorted(missing)}")
        # A read-only copy: the caller's mapping may change later, but
        # this model's tables (and the caches derived from them below
        # and in _lookup_tables) may not.
        object.__setattr__(
            self, "thresholds_db", MappingProxyType(dict(self.thresholds_db))
        )
        # (threshold, uses_sdm) per modelled MCS, read on every per().
        object.__setattr__(self, "_per_mcs", {
            idx: (self.thresholds_db[idx], entry.uses_sdm)
            for idx, entry in MCS_TABLE.items()
        })

    def __reduce__(self):
        # A mappingproxy does not pickle; rebuild from a plain dict.
        return (type(self), (
            dict(self.thresholds_db), self.slope_db, self.sdm_efficiency,
            self.reference_bytes,
        ))

    # ------------------------------------------------------------------
    def threshold_db(self, mcs_index: int) -> float:
        """Effective sensitivity threshold of ``MCS{mcs_index}``."""
        try:
            return self.thresholds_db[mcs_index]
        except KeyError:
            raise KeyError(f"no threshold for MCS{mcs_index}") from None

    def per(self, snr_db: float, mcs_index: int, frame_bytes: int = REFERENCE_FRAME_BYTES) -> float:
        """Packet error probability for one (sub)frame.

        The reference-length logistic PER is rescaled to ``frame_bytes``
        through the per-bit success probability, so shorter frames fare
        better and longer frames worse, as in reality.
        """
        if frame_bytes <= 0:
            raise ValueError("frame_bytes must be positive")
        try:
            threshold, uses_sdm = self._per_mcs[mcs_index]
        except KeyError:
            get_mcs(mcs_index)  # raises for an index outside MCS_TABLE
            raise
        x = (snr_db - threshold) / self.slope_db
        # Logistic in SNR.  The exponent is clamped only so np.exp never
        # overflows: beyond |x| = 40 the result no longer depends on it
        # (docs/PERFORMANCE.md, "Scalar link fixed cost").  The
        # transcendentals go through NumPy's scalar ufunc path so that
        # :meth:`per_array` (the vectorised twin) matches bit for bit.
        x = 60.0 if x > 60.0 else -60.0 if x < -60.0 else x
        per_ref = 1.0 / (1.0 + float(np.exp(x)))
        success = float(
            np.power(1.0 - per_ref, frame_bytes / self.reference_bytes)
        )
        if uses_sdm:
            success *= self.sdm_efficiency
        return 1.0 - success

    def per_array(
        self,
        snr_db: np.ndarray,
        mcs_index: np.ndarray,
        frame_bytes: int = REFERENCE_FRAME_BYTES,
    ) -> np.ndarray:
        """Vectorised :meth:`per` over broadcast ``snr_db`` / ``mcs_index``.

        ``mcs_index`` is an integer array (per-replica MCS choices);
        ``snr_db`` broadcasts against it.  Elementwise the result is
        bit-identical to the scalar :meth:`per`.
        """
        if frame_bytes <= 0:
            raise ValueError("frame_bytes must be positive")
        snr = np.asarray(snr_db, dtype=float)
        mcs = np.asarray(mcs_index, dtype=np.int64)
        thresholds, sdm, has_gaps = self._lookup_tables()
        # Viewed unsigned, a negative index is huge: one comparison
        # checks both ends of the table.
        if (mcs.view(np.uint64) >= thresholds.shape[0]).any():
            raise KeyError(f"no threshold for MCS indices {np.unique(mcs)}")
        thr = thresholds[mcs]
        if has_gaps and np.isnan(thr).any():
            bad = np.unique(mcs[np.isnan(thr)])
            raise KeyError(f"no threshold for MCS indices {bad.tolist()}")
        x = (snr - thr) / self.slope_db
        per_ref = 1.0 / (1.0 + np.exp(np.minimum(np.maximum(x, -60.0), 60.0)))
        success = np.power(1.0 - per_ref, frame_bytes / self.reference_bytes)
        success = np.where(sdm[mcs], success * self.sdm_efficiency, success)
        return 1.0 - success

    def success_probability_array(
        self,
        snr_db: np.ndarray,
        mcs_index: np.ndarray,
        frame_bytes: int = REFERENCE_FRAME_BYTES,
    ) -> np.ndarray:
        """Complement of :meth:`per_array`."""
        return 1.0 - self.per_array(snr_db, mcs_index, frame_bytes)

    def _lookup_tables(self) -> "tuple[np.ndarray, np.ndarray, bool]":
        """(threshold, uses_sdm, has_gaps) indexed by MCS (lazily built).

        ``has_gaps`` says whether any entry is NaN: an index below the
        largest with no threshold, or a NaN threshold.
        ``__post_init__`` forces every ``MCS_TABLE`` index to be
        present, so the shipped tables have none and :meth:`per_array`
        skips its NaN check for them.
        """
        cached = getattr(self, "_tables", None)
        if cached is None:
            size = max(self.thresholds_db) + 1
            thresholds = np.full(size, np.nan)
            sdm = np.zeros(size, dtype=bool)
            for idx, value in self.thresholds_db.items():
                thresholds[idx] = value
                if idx in MCS_TABLE:
                    sdm[idx] = get_mcs(idx).uses_sdm
            cached = (thresholds, sdm, bool(np.isnan(thresholds).any()))
            object.__setattr__(self, "_tables", cached)
        return cached

    def success_probability(
        self, snr_db: float, mcs_index: int, frame_bytes: int = REFERENCE_FRAME_BYTES
    ) -> float:
        """Complement of :meth:`per`."""
        return 1.0 - self.per(snr_db, mcs_index, frame_bytes)

    # ------------------------------------------------------------------
    def required_snr_db(
        self,
        mcs_index: int,
        target_per: float = 0.1,
        frame_bytes: int = REFERENCE_FRAME_BYTES,
    ) -> float:
        """SNR at which the PER drops to ``target_per`` (bisection).

        Returns ``inf`` when the target is unreachable (e.g. below the
        SDM efficiency floor).
        """
        if not 0.0 < target_per < 1.0:
            raise ValueError("target_per must be in (0, 1)")
        lo, hi = -40.0, 80.0
        if self.per(hi, mcs_index, frame_bytes) > target_per:
            return float("inf")
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self.per(mid, mcs_index, frame_bytes) > target_per:
                lo = mid
            else:
                hi = mid
        return hi

"""``ErrorModel.per`` and ``per_array`` as they stood with their guards.

Both twins used to short-circuit the logistic outside ``|x| <= 40``
(``x`` the threshold-normalised SNR), return early when the reference
PER reached 1 and clamp the result to ``[0, 1]``.  Those guards never
change a finite result, so :mod:`repro.phy.error` dropped them; these
copies, verbatim apart from taking the model as an argument, are the
oracle ``tests/phy/test_per_reference.py`` holds the current code to.
"""

from __future__ import annotations

import numpy as np

from repro.phy.error import REFERENCE_FRAME_BYTES, ErrorModel
from repro.phy.mcs import get_mcs


def per(
    model: ErrorModel,
    snr_db: float,
    mcs_index: int,
    frame_bytes: int = REFERENCE_FRAME_BYTES,
) -> float:
    if frame_bytes <= 0:
        raise ValueError("frame_bytes must be positive")
    entry = get_mcs(mcs_index)
    threshold = model.threshold_db(mcs_index)
    x = (snr_db - threshold) / model.slope_db
    if x > 40.0:
        per_ref = 0.0
    elif x < -40.0:
        per_ref = 1.0
    else:
        per_ref = 1.0 / (1.0 + float(np.exp(x)))
    if per_ref >= 1.0:
        return 1.0
    success_ref = 1.0 - per_ref
    success = float(
        np.power(success_ref, frame_bytes / model.reference_bytes)
    )
    if entry.uses_sdm:
        success *= model.sdm_efficiency
    return min(1.0, max(0.0, 1.0 - success))


def per_array(
    model: ErrorModel,
    snr_db: np.ndarray,
    mcs_index: np.ndarray,
    frame_bytes: int = REFERENCE_FRAME_BYTES,
) -> np.ndarray:
    snr = np.asarray(snr_db, dtype=float)
    mcs = np.asarray(mcs_index, dtype=np.int64)
    thresholds, sdm, _ = model._lookup_tables()
    thr = thresholds[mcs]
    x = (snr - thr) / model.slope_db
    exp_x = np.exp(np.minimum(np.maximum(x, -60.0), 60.0))
    per_ref = np.where(
        x > 40.0, 0.0, np.where(x < -40.0, 1.0, 1.0 / (1.0 + exp_x))
    )
    success_ref = 1.0 - per_ref
    success = np.power(success_ref, frame_bytes / model.reference_bytes)
    success = np.where(sdm[mcs], success * model.sdm_efficiency, success)
    per = np.minimum(1.0, np.maximum(0.0, 1.0 - success))
    return np.where(per_ref >= 1.0, 1.0, per)

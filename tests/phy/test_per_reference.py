"""The guard-free PER twins against their guarded predecessors.

``ErrorModel.per`` and ``per_array`` no longer select on ``|x| > 40``,
return early at a reference PER of 1 or clamp to ``[0, 1]``
(``tests/phy/reference_per.py`` keeps that code).  For every finite or
infinite SNR the results are bit-identical and no NumPy warning is
raised; a NaN SNR now gives NaN in both twins, where the scalar twin
used to clamp it to a PER of 0.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy import TEXTBOOK_THRESHOLDS, ErrorModel
from repro.phy.mcs import all_mcs_indices

from . import reference_per

MODELS = (
    ErrorModel(),
    ErrorModel(thresholds_db=TEXTBOOK_THRESHOLDS, slope_db=0.7),
    ErrorModel(slope_db=2.5, sdm_efficiency=1.0, reference_bytes=500),
)
MCS = all_mcs_indices()
FRAMES = (1, 40, 1516, 1540, 3000, 65_535)


def _snr_for(model, mcs, x):
    """The SNR whose normalised distance from the threshold is ``x``."""
    return model.threshold_db(mcs) + x * model.slope_db


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _assert_twins_match_reference(model, snrs, mcs, frame_bytes):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any NumPy warning fails
        got_scalar = [model.per(s, int(m), frame_bytes) for s, m in zip(snrs, mcs)]
        got_array = model.per_array(np.asarray(snrs), np.asarray(mcs), frame_bytes)
    with np.errstate(all="ignore"):
        want_scalar = [
            reference_per.per(model, s, int(m), frame_bytes)
            for s, m in zip(snrs, mcs)
        ]
        want_array = reference_per.per_array(
            model, np.asarray(snrs), np.asarray(mcs), frame_bytes
        )
    assert _bits(got_scalar) == _bits(want_scalar)
    assert _bits(got_array) == _bits(want_array)
    assert _bits(got_scalar) == _bits(got_array)


#: Normalised SNRs at and around every guard the twins used to carry,
#: and past np.exp's overflow point (x = 709.78).
EDGES = (
    0.0, 37.0, 37.4, 39.999, 40.0, 40.0 + 1e-12, 59.999, 60.0, 60.0 + 1e-9,
    709.0, 709.79, 710.0, 1e6, 1e300, math.inf,
)


@pytest.mark.parametrize("model", MODELS, ids=["aerial", "textbook", "wide"])
@pytest.mark.parametrize("frame_bytes", FRAMES)
def test_guard_edges_bit_identical(model, frame_bytes):
    xs = [sign * x for x in EDGES for sign in (1.0, -1.0)]
    xs += [math.nextafter(40.0, 0.0), math.nextafter(-40.0, 0.0)]
    snrs, mcs = [], []
    for m in MCS:
        for x in xs:
            snrs.append(_snr_for(model, m, x) if math.isfinite(x) else x)
            mcs.append(m)
    _assert_twins_match_reference(model, snrs, mcs, frame_bytes)


@settings(max_examples=300, deadline=None)
@given(
    model=st.sampled_from(MODELS),
    xs=st.lists(
        st.floats(min_value=-60.0, max_value=60.0, allow_nan=False),
        min_size=1, max_size=40,
    ),
    mcs=st.lists(st.sampled_from(MCS), min_size=40, max_size=40),
    frame_bytes=st.integers(min_value=1, max_value=20_000),
)
def test_normalised_snr_range_bit_identical(model, xs, mcs, frame_bytes):
    mcs = mcs[: len(xs)]
    snrs = [_snr_for(model, m, x) for m, x in zip(mcs, xs)]
    _assert_twins_match_reference(model, snrs, mcs, frame_bytes)


@settings(max_examples=200, deadline=None)
@given(
    snr=st.floats(min_value=-1e308, max_value=1e308, allow_nan=False),
    mcs=st.sampled_from(MCS),
)
def test_any_snr_bit_identical(snr, mcs):
    _assert_twins_match_reference(ErrorModel(), [snr], [mcs], 1516)


def test_nan_snr_gives_nan_in_both_twins():
    model = ErrorModel()
    for mcs in (0, 3, 8):
        assert math.isnan(model.per(math.nan, mcs))
        assert math.isnan(model.per_array(np.array([math.nan]), np.array([mcs]))[0])

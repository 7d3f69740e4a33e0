"""The exact Eq. 2 path on log-law rows and its grid fallback.

:func:`repro.core.optimizer.certified_argmax` solves falling log-law
rows exactly; every row it cannot certify, and every row on another
throughput law, must get the grid kernel's answer bit for bit.
"""

import numpy as np
import pytest

import repro.core.optimizer as optimizer
from repro.api import BatchSolverEngine, airplane_scenario, quadrocopter_scenario
from repro.core.optimizer import argmax_utility, certified_argmax
from repro.core.throughput import (
    MIN_THROUGHPUT_BPS,
    LogFitThroughput,
    SpeedScaledThroughput,
    TableThroughput,
)
from repro.engine.batch import _Params
from repro.obs import ObsContext

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional dep
    HAVE_HYPOTHESIS = False

#: The paper's two fits, ``(slope Mbit/s per octave, intercept Mbit/s)``.
PAPER_FITS = ((-5.56, 49.0), (-10.5, 73.0))

#: Points of the dense oracle scan.
ORACLE_POINTS = 1_000_000

#: The engine's boundary-snap margin: a snapped answer may trail the
#: maximum by this relative utility.
SNAP_REL = optimizer._SNAP_REL

TOLERANCE_M = 1e-4

#: A base with an interior optimum on the quadrocopter fit.
BASE = quadrocopter_scenario(
    mdata_mb=20.0, rho_per_m=3e-3, d0_m=250.0, speed_mps=5.0
)

#: Rows that never reach the certificate, with the distances the grid
#: kernel gave them before the certificate existed.
GRID_ROWS = {
    # Two throughput peaks inside one grid bracket (non-concave rescan).
    "two-peaks": (
        quadrocopter_scenario().with_(
            throughput=TableThroughput(
                {20: 5e6, 40: 30e6, 45: 6e6, 55: 31e6, 60: 5e6, 100: 4e6}
            )
        ),
        55.0,
    ),
    "rising-log-law": (
        BASE.with_(throughput=LogFitThroughput(2.0, 10.0)), 250.0
    ),
    "speed-scaled": (
        BASE.with_(
            throughput=SpeedScaledThroughput(LogFitThroughput(-10.5, 73.0))
        ),
        62.26093035138091,
    ),
}


def log_row(slope, intercept, rho, mdata_mb, speed, d0):
    return quadrocopter_scenario(
        mdata_mb=mdata_mb, speed_mps=speed, rho_per_m=rho, d0_m=d0
    ).with_(throughput=LogFitThroughput(slope, intercept))


def clamp_distance(slope, intercept):
    """Where the fit reaches ``MIN_THROUGHPUT_BPS``."""
    return 2.0 ** ((MIN_THROUGHPUT_BPS / 1e6 - intercept) / slope)


def solve_kernels(scenario):
    """``(certified best, certified?, grid best, params)`` for one row."""
    params = _Params([scenario])
    best, certified = certified_argmax(
        params.dmin, params.d0, params.v, params.bits, params.rho,
        params.slope, params.intercept, params.utility, TOLERANCE_M,
    )
    grid, _ = argmax_utility(
        params.dmin, params.d0, params.utility, 1.0, TOLERANCE_M
    )
    return best[0], bool(certified[0]), grid[0], params


def oracle_max(params):
    """The largest utility on a 10^6-point scan of ``[d_min, d0]``."""
    d = np.linspace(params.dmin[0], params.d0[0], ORACLE_POINTS)[None, :]
    return float(params.utility(d).max())


def check_certified_row(scenario):
    best, certified, grid, params = solve_kernels(scenario)
    if not certified:
        return False
    u = float(params.utility(np.array([best]))[0])
    u_grid = float(params.utility(np.array([grid]))[0])
    u_star = oracle_max(params)
    assert u >= u_grid * (1.0 - 1e-12)
    if params.dmin[0] < best < params.d0[0]:
        # An interior answer is the maximum itself.
        assert u >= u_star * (1.0 - 1e-12)
    else:
        # A boundary answer is within the snap margin of it.
        assert u >= u_star * (1.0 - SNAP_REL) * (1.0 - 1e-12)
    assert abs(best - grid) <= TOLERANCE_M or best in (
        params.dmin[0], params.d0[0]
    )
    return True


class TestCertifiedRows:
    @pytest.mark.parametrize("fit", PAPER_FITS)
    @pytest.mark.parametrize("rho", [0.0, 1e-4, 3e-3, 2e-2, 5e-2])
    @pytest.mark.parametrize("d0_over_clamp", [0.3, 0.9, 1.5])
    def test_paper_fits_certify_and_beat_the_grid(self, fit, rho, d0_over_clamp):
        d0 = max(25.0, d0_over_clamp * clamp_distance(*fit))
        assert check_certified_row(log_row(*fit, rho, 20.0, 5.0, d0))

    def test_interior_answer_moves_within_tolerance(self):
        best, certified, grid, _ = solve_kernels(BASE)
        assert certified
        assert 20.0 < best < 250.0
        assert best != grid and abs(best - grid) <= TOLERANCE_M

    def test_clamped_range_takes_d0(self):
        # The fit is clamped over the whole range, so U rises to d0.
        row = log_row(-10.5, 40.0, 1e-3, 20.0, 5.0, 200.0)
        assert clamp_distance(-10.5, 40.0) < 20.0
        best, certified, grid, _ = solve_kernels(row)
        assert certified and best == grid == 200.0

    def test_degenerate_range_pins_the_floor(self):
        row = log_row(-10.5, 73.0, 1e-2, 20.0, 5.0, 20.0 + 5e-5)
        best, certified, grid, _ = solve_kernels(row)
        assert certified and best == grid == 20.0

    if HAVE_HYPOTHESIS:

        @settings(max_examples=60, deadline=None)
        @given(
            fit=st.sampled_from(PAPER_FITS)
            | st.tuples(st.floats(-20.0, -0.5), st.floats(5.0, 150.0)),
            rho=st.floats(0.0, 5e-2),
            mdata_mb=st.floats(0.5, 100.0),
            speed=st.floats(1.0, 25.0),
            d0_over_clamp=st.floats(0.2, 3.0),
        )
        @example(
            fit=(-5.56, 49.0), rho=5e-2, mdata_mb=100.0, speed=1.0,
            d0_over_clamp=2.5,
        )
        @example(
            fit=(-10.5, 73.0), rho=0.0, mdata_mb=0.5, speed=25.0,
            d0_over_clamp=0.5,
        )
        def test_property_matches_oracle(
            self, fit, rho, mdata_mb, speed, d0_over_clamp
        ):
            # d0 on either side of the clamp distance, above the floor.
            d0 = min(2_000.0, max(21.0, d0_over_clamp * clamp_distance(*fit)))
            row = log_row(*fit, rho, mdata_mb, speed, d0)
            assert check_certified_row(row)


class TestGridFallback:
    @pytest.mark.parametrize("name", sorted(GRID_ROWS))
    def test_other_laws_keep_the_grid_answer_bitwise(self, name):
        scenario, pinned = GRID_ROWS[name]
        params = _Params([scenario])
        grid, _ = argmax_utility(
            params.dmin, params.d0, params.utility, 1.0, TOLERANCE_M
        )
        obs = ObsContext.enabled(deterministic=True)
        (decision,) = BatchSolverEngine(cache_size=0).solve_batch(
            [scenario], obs=obs
        )
        assert decision.distance_m == grid[0] == pinned
        assert obs.metrics.value("engine.uncertified_rows") == 1

    def test_uncertified_log_law_row_takes_the_grid(self, monkeypatch):
        # With no splits allowed the interior-optimum row cannot be
        # certified, so it must get the grid kernel's bits.
        monkeypatch.setattr(optimizer, "_CERT_DEPTH", 0)
        best, certified, grid, _ = solve_kernels(BASE)
        assert not certified
        obs = ObsContext.enabled(deterministic=True)
        batch = BatchSolverEngine(cache_size=0).solve_batch(
            [airplane_scenario(), BASE], obs=obs
        )
        assert batch[1].distance_m == grid
        assert obs.metrics.value("engine.uncertified_rows") == 1

    def test_certified_batches_emit_no_counter(self):
        obs = ObsContext.enabled(deterministic=True)
        BatchSolverEngine(cache_size=0).solve_batch(
            [airplane_scenario(), BASE], obs=obs
        )
        assert "engine.uncertified_rows" not in obs.metrics

    def test_manifest_body_is_the_same_with_obs_on_and_off(self):
        from repro import api

        rows = [airplane_scenario(), BASE, GRID_ROWS["two-peaks"][0]]
        plain = api.solve_batch(rows, engine=BatchSolverEngine(), cache=False)
        obs = ObsContext.enabled(deterministic=True)
        traced = api.solve_batch(
            rows, engine=BatchSolverEngine(), cache=False, obs=obs
        )
        provenance = ("metrics", "trace", "events", "created_unix_s")
        body = {
            key: value
            for key, value in plain.manifest.to_dict().items()
            if key not in provenance
        }
        assert body == {
            key: value
            for key, value in traced.manifest.to_dict().items()
            if key not in provenance
        }
        counters = traced.manifest.to_dict()["metrics"]["counters"]
        assert counters["engine.uncertified_rows"] == 1

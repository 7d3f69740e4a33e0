"""Property: an Eq. 2 row's answer depends on that row alone.

``solve_batch`` under any ``chunk_size`` and any row order must return,
bit for bit, what a solo ``solve`` of each scenario returns — the
guarantee that lets the result store and the relay solver batch rows
freely.  Batches mix rows the exact log-law path certifies with rows
that take the grid kernel: other throughput laws, and (with the
certificate's depth cut) log-law rows it cannot certify.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.optimizer as optimizer
from repro.api import BatchSolverEngine, airplane_scenario, quadrocopter_scenario
from repro.core.throughput import (
    LogFitThroughput,
    SpeedScaledThroughput,
    TableThroughput,
)
from repro.obs import ObsContext

COLUMNS = (
    "distance_m", "utility", "cdelay_s", "shipping_s", "transmission_s",
    "discount", "contact_distance_m", "speed_mps", "data_bits",
)

#: Two throughput peaks inside one grid bracket: exercises the
#: non-concave rescan path alongside the plain rows.
TWO_PEAKS = TableThroughput(
    {20: 5e6, 40: 30e6, 45: 6e6, 55: 31e6, 60: 5e6, 100: 4e6}
)

#: Laws the certificate never sees: they always take the grid kernel.
GRID_LAWS = {
    "two-peaks": TWO_PEAKS,
    "rising": LogFitThroughput(2.0, 10.0),
    "speed-scaled": SpeedScaledThroughput(LogFitThroughput(-10.5, 73.0)),
}

rows = st.tuples(
    st.sampled_from(["airplane", "quadrocopter", *sorted(GRID_LAWS)]),
    st.floats(0.5, 100.0),  # Mdata (MB)
    st.floats(1.0, 25.0),  # speed (m/s)
    st.floats(0.0, 2e-2),  # rho (1/m)
    st.floats(25.0, 400.0),  # d0 (m)
)


def make(kind, mdata_mb, speed, rho, d0):
    if kind == "airplane":
        return airplane_scenario(
            mdata_mb=mdata_mb, speed_mps=speed, rho_per_m=rho, d0_m=d0
        )
    scenario = quadrocopter_scenario(
        mdata_mb=mdata_mb, speed_mps=speed, rho_per_m=rho, d0_m=d0
    )
    if kind in GRID_LAWS:
        scenario = scenario.with_(throughput=GRID_LAWS[kind])
    return scenario


class TestPointLocality:
    @settings(max_examples=40, deadline=None)
    @given(
        params=st.lists(rows, min_size=2, max_size=40),
        chunk_size=st.integers(1, 64),
        cert_depth=st.sampled_from([None, 0, 1, 2]),
        data=st.data(),
    )
    def test_batch_rows_equal_solo_solves(
        self, params, chunk_size, cert_depth, data
    ):
        scenarios = [make(*p) for p in params]
        order = data.draw(st.permutations(range(len(scenarios))))
        shuffled = [scenarios[i] for i in order]
        with pytest.MonkeyPatch.context() as patch:
            if cert_depth is not None:
                patch.setattr(optimizer, "_CERT_DEPTH", cert_depth)
            batch = BatchSolverEngine(
                cache_size=0, chunk_size=chunk_size
            ).solve_batch(shuffled)
            solo = BatchSolverEngine(cache_size=0)
            for row, scenario in enumerate(shuffled):
                want = solo.solve(scenario)
                got = batch[row]
                for name in COLUMNS:
                    assert np.array_equal(
                        getattr(got, name), getattr(want, name)
                    ), (name, row, scenario.cache_key())

    @pytest.mark.parametrize("cert_depth", [None, 1])
    def test_mixed_batch_holds_both_paths(self, cert_depth, monkeypatch):
        # The fixture batch really mixes certified and uncertified rows.
        if cert_depth is not None:
            monkeypatch.setattr(optimizer, "_CERT_DEPTH", cert_depth)
        scenarios = [
            make(kind, 20.0, 5.0, rho, d0)
            for kind in ("airplane", "quadrocopter", *sorted(GRID_LAWS))
            for rho in (1e-4, 3e-3, 2e-2)
            for d0 in (60.0, 250.0)
        ]
        obs = ObsContext.enabled(deterministic=True)
        batch = BatchSolverEngine(cache_size=0, chunk_size=7).solve_batch(
            scenarios, obs=obs
        )
        uncertified = obs.metrics.value("engine.uncertified_rows")
        grid_rows = 6 * len(GRID_LAWS)
        if cert_depth is None:
            assert uncertified == grid_rows
        else:
            assert grid_rows < uncertified < len(scenarios)
        solo = BatchSolverEngine(cache_size=0)
        for row, scenario in enumerate(scenarios):
            assert batch[row] == solo.solve(scenario)

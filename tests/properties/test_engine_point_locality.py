"""Property: an Eq. 2 row's answer depends on that row alone.

``solve_batch`` under any ``chunk_size`` and any row order must return,
bit for bit, what a solo ``solve`` of each scenario returns — the
guarantee that lets the result store and the relay solver batch rows
freely.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import BatchSolverEngine, airplane_scenario, quadrocopter_scenario
from repro.core.throughput import TableThroughput

COLUMNS = (
    "distance_m", "utility", "cdelay_s", "shipping_s", "transmission_s",
    "discount", "contact_distance_m", "speed_mps", "data_bits",
)

#: Two throughput peaks inside one grid bracket: exercises the
#: non-concave rescan path alongside the plain rows.
TWO_PEAKS = TableThroughput(
    {20: 5e6, 40: 30e6, 45: 6e6, 55: 31e6, 60: 5e6, 100: 4e6}
)

rows = st.tuples(
    st.sampled_from(["airplane", "quadrocopter", "two-peaks"]),
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
    if kind == "two-peaks":
        scenario = scenario.with_(throughput=TWO_PEAKS)
    return scenario


class TestPointLocality:
    @settings(max_examples=40, deadline=None)
    @given(
        params=st.lists(rows, min_size=2, max_size=40),
        chunk_size=st.integers(1, 64),
        data=st.data(),
    )
    def test_batch_rows_equal_solo_solves(self, params, chunk_size, data):
        scenarios = [make(*p) for p in params]
        order = data.draw(st.permutations(range(len(scenarios))))
        shuffled = [scenarios[i] for i in order]
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

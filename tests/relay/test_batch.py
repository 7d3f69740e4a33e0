"""The batch relay solver: R=1 lockstep and fleet agreement."""

import struct

import numpy as np
import pytest

from repro.core import airplane_scenario, quadrocopter_scenario
from repro.core.throughput import (
    LogFitThroughput,
    SpeedScaledThroughput,
    TableThroughput,
)
from repro.engine.batch import BatchSolverEngine, _Params
from repro.relay import BatchRelaySolver, RelayChain, RelaySolver
from repro.relay.solver import _DP_BLOCK

from .reference_dp import _dp_select, _hop_candidates


def _chain_fleet():
    """A small mixed fleet: lengths, hand-offs and deadlines vary."""
    quad, air = quadrocopter_scenario(), airplane_scenario()
    return [
        RelayChain.of([quad], name="solo"),
        RelayChain.of([air], name="solo-air", mdata_mb=3.0),
        RelayChain.of([quad, air], handoff_s=5.0, name="pair"),
        RelayChain.of(
            [air, quad, air], handoff_s=2.5, name="triple",
            deadline_s=200.0, mdata_mb=1.5,
        ),
        RelayChain.of(
            [quad] * 4, handoff_s=[1.0, 2.0, 3.0], name="quad4",
            deadline_s=90.0,
        ),
    ]


class TestLockstep:
    @pytest.mark.parametrize("index", range(5))
    def test_r1_bit_identical_to_scalar(self, index):
        # Fresh engines per path: lockstep must not depend on shared
        # memo state between the scalar and batch solves.
        chain = _chain_fleet()[index]
        scalar = RelaySolver(BatchSolverEngine()).solve(chain)
        (batch,) = BatchRelaySolver(BatchSolverEngine()).solve([chain])
        assert batch == scalar

    def test_fleet_matches_scalar_per_chain(self):
        chains = _chain_fleet()
        scalar_engine = BatchSolverEngine()
        scalar = [RelaySolver(scalar_engine).solve(c) for c in chains]
        batch = BatchRelaySolver(BatchSolverEngine()).solve(chains)
        assert list(batch) == scalar


class TestBatchResultSurface:
    def test_arrays_and_indexing(self):
        chains = _chain_fleet()
        result = BatchRelaySolver().solve(chains)
        assert len(result) == len(chains)
        np.testing.assert_array_equal(
            result.utility, [d.utility for d in result.decisions]
        )
        np.testing.assert_array_equal(
            result.survival, [d.survival for d in result.decisions]
        )
        np.testing.assert_array_equal(
            result.delay_s, [d.delay_s for d in result.decisions]
        )
        assert result[2] == result.decisions[2]
        assert [d["chain"] for d in result.to_dicts()] == [
            "solo", "solo-air", "pair", "triple", "quad4",
        ]

    def test_obs_counts_every_chain_and_hop(self):
        from repro.obs import ObsContext

        obs = ObsContext.enabled(deterministic=True)
        chains = _chain_fleet()
        BatchRelaySolver().solve(chains, obs=obs)
        counters = obs.metrics.to_dict()["counters"]
        assert counters["relay.chains"] == len(chains)
        assert counters["relay.hops"] == sum(c.n_hops for c in chains)
        assert obs.events.kinds()["decision.relay"] == len(chains)


class TestLazyDecisions:
    """The columnar result reads like the tuple of decisions it replaced."""

    @pytest.fixture
    def solved(self):
        chains = _chain_fleet()
        scalar_engine = BatchSolverEngine()
        scalar = [RelaySolver(scalar_engine).solve(c) for c in chains]
        return BatchRelaySolver(BatchSolverEngine()).solve(chains), scalar

    def test_indexing_matches_a_tuple(self, solved):
        result, scalar = solved
        assert result[-1] == scalar[-1]
        assert result[-len(scalar)] == scalar[0]
        assert result[np.int64(2)] == scalar[2]
        assert result[1:4] == tuple(scalar[1:4])
        assert result[::-2] == tuple(scalar[::-2])
        assert result[7:] == ()
        with pytest.raises(IndexError):
            result[len(scalar)]
        with pytest.raises(IndexError):
            result[-len(scalar) - 1]

    def test_iteration_decisions_and_dicts(self, solved):
        result, scalar = solved
        assert list(result) == scalar
        assert result.decisions == tuple(scalar)
        assert result.to_dicts() == [d.to_dict() for d in scalar]
        np.testing.assert_array_equal(
            result.meets_deadline, [d.meets_deadline for d in scalar]
        )

    def test_solve_builds_no_decision_until_one_is_read(self, monkeypatch):
        from repro.relay import solver

        built = []

        class CountingHopChoice(solver.HopChoice):
            def __init__(self, hop, *args):
                built.append(hop)
                super().__init__(hop, *args)

        monkeypatch.setattr(solver, "HopChoice", CountingHopChoice)
        chains = _chain_fleet()
        result = BatchRelaySolver(BatchSolverEngine()).solve(chains)
        assert result.utility.shape == (len(chains),)
        assert built == []
        decision = result[3]
        # The first read builds every decision once; later reads reuse them.
        assert len(built) == sum(c.n_hops for c in chains)
        assert decision.hops[0].policy in ("optimal", "now", "closest")
        built.clear()
        assert list(result) == list(result.decisions)
        assert result[3] is decision
        result.to_dicts()
        assert built == []

    def test_obs_output_is_unchanged(self):
        # Counters and the decision.relay event log of the per-chain
        # solver, captured before the columnar rewrite.
        import hashlib
        import json

        from repro.obs import ObsContext

        for solve in ("batch", "scalar"):
            obs = ObsContext.enabled(deterministic=True)
            if solve == "batch":
                BatchRelaySolver(BatchSolverEngine()).solve(
                    _chain_fleet(), obs=obs
                )
            else:
                solver = RelaySolver(BatchSolverEngine())
                for chain in _chain_fleet():
                    solver.solve(chain, obs=obs)
            counters = obs.metrics.to_dict()["counters"]
            assert counters == {"relay.chains": 5, "relay.hops": 11}
            events = json.dumps(obs.events.to_dicts(), sort_keys=True)
            assert hashlib.sha256(events.encode()).hexdigest() == (
                "ab9efe9d30e7a09d59007e261e9e6ff241edff8ac5200770e074663555934acd"
            )


# ----------------------------------------------------------------------
# One stacked hop block per fleet
# ----------------------------------------------------------------------

def _bits(x):
    return struct.pack("<d", x)


def _assert_matches_scalar_and_reference(fleet):
    """Batch equals the scalar solver chain by chain, bit for bit, and
    both match the per-chain reference DP."""
    engine = BatchSolverEngine()
    result = BatchRelaySolver(BatchSolverEngine()).solve(fleet)
    assert len(result) == len(fleet)
    scalar = RelaySolver(engine)
    for chain, decision in zip(fleet, result):
        assert decision == scalar.solve(chain)
        scenarios = chain.scenarios()
        rows = _hop_candidates(
            engine, scenarios, [engine.solve(s) for s in scenarios]
        )
        path, survival, delay, feasible = _dp_select(
            rows, [hop.handoff_s for hop in chain.hops], chain.deadline_s
        )
        assert decision.policies == tuple(
            rows[i][k][0] for i, k in enumerate(path)
        )
        assert _bits(decision.survival) == _bits(survival)
        assert _bits(decision.delay_s) == _bits(delay)
        assert decision.meets_deadline == feasible


def _hop(i, h, law=None):
    base = (quadrocopter_scenario, airplane_scenario)[(i + h) % 2](
        rho_per_m=1e-4 * (1 + (7 * i + h) % 40),
        speed_mps=3.0 + (5 * i + 3 * h) % 20,
        d0_m=40.0 + (11 * i + 29 * h) % 250,
    )
    return base if law is None else base.with_(throughput=law)


def _fleet(n, hops_of, law_of=lambda i, h: None, deadline_of=lambda i: None):
    return [
        RelayChain.of(
            [_hop(i, h, law_of(i, h)) for h in range(hops_of(i))],
            handoff_s=float(i % 5),
            mdata_mb=2.0 + i % 30,
            deadline_s=deadline_of(i),
            name=f"c{i}",
        )
        for i in range(n)
    ]


GRID_LAWS = (
    TableThroughput({20.0: 36e6, 40.0: 35e6, 60.0: 33e6, 100.0: 17.8e6}),
    SpeedScaledThroughput(LogFitThroughput(-10.5, 73.0)),
    LogFitThroughput(2.0, 10.0),
)


class TestStackedHops:
    def test_one_block_and_no_breakdown_at(self, monkeypatch):
        built = []
        init = _Params.__init__

        def counting_init(self, scenarios):
            built.append(len(scenarios))
            init(self, scenarios)

        def no_breakdown_at(*args, **kwargs):
            raise AssertionError("breakdown_at called")

        monkeypatch.setattr(_Params, "__init__", counting_init)
        monkeypatch.setattr(BatchSolverEngine, "breakdown_at", no_breakdown_at)
        chains = _chain_fleet()
        BatchRelaySolver(BatchSolverEngine()).solve(chains)
        assert built == [sum(c.n_hops for c in chains)]

    def test_empty_fleet(self):
        result = BatchRelaySolver(BatchSolverEngine()).solve([])
        assert len(result) == 0
        assert result.utility.shape == (0,)
        assert result.to_dicts() == []

    def test_single_hop_count(self):
        _assert_matches_scalar_and_reference(_fleet(40, lambda i: 2))

    def test_two_dp_blocks_of_one_hop_count(self):
        # More chains of one hop count than one DP block holds.
        fleet = _fleet(
            _DP_BLOCK + 37, lambda i: 1,
            deadline_of=lambda i: None if i % 4 else 5.0 + i % 60,
        )
        _assert_matches_scalar_and_reference(fleet)

    def test_table_and_speed_scaled_hops(self):
        fleet = _fleet(
            36, lambda i: 1 + i % 3,
            law_of=lambda i, h: (None, *GRID_LAWS)[(i + 2 * h) % 4],
        )
        _assert_matches_scalar_and_reference(fleet)

    def test_deadlines(self):
        fleet = _fleet(
            60, lambda i: 1 + i % 4,
            deadline_of=lambda i: None if i % 3 == 0 else 20.0 + 15.0 * (i % 17),
        )
        result = BatchRelaySolver(BatchSolverEngine()).solve(fleet)
        assert 0 < int(np.count_nonzero(result.meets_deadline)) < len(fleet)
        _assert_matches_scalar_and_reference(fleet)

"""The scalar relay solver: candidates, DP exactness, bit contracts."""

import itertools

import pytest

from repro.core import airplane_scenario, quadrocopter_scenario
from repro.engine.batch import BatchSolverEngine
from repro.relay import HOP_POLICIES, RelayChain, RelayDecision, RelaySolver

from .reference_dp import _hop_candidates


@pytest.fixture
def engine():
    return BatchSolverEngine()


def _brute_force(rows, handoffs, deadline_s):
    """Enumerate every candidate combination (the DP's ground truth)."""
    best = None
    fallback = None
    for path in itertools.product(*(range(len(row)) for row in rows)):
        survival = 1.0
        delay = 0.0
        for i, index in enumerate(path):
            survival *= rows[i][index][6]
            delay += rows[i][index][3] + handoffs[i]
        utility = survival / delay
        if fallback is None or delay < fallback[1]:
            fallback = (survival, delay, utility)
        if deadline_s is not None and delay > deadline_s:
            continue
        if best is None or utility > best[2]:
            best = (survival, delay, utility)
    return best, fallback


class TestOneHopBitIdentity:
    @pytest.mark.parametrize(
        "factory", [airplane_scenario, quadrocopter_scenario]
    )
    def test_fields_verbatim_from_engine(self, engine, factory):
        scenario = factory()
        decision = engine.solve(scenario)
        relay = RelaySolver(engine).solve(RelayChain.of([scenario]))
        (hop,) = relay.hops
        assert hop.policy == "optimal"
        assert hop.distance_m == decision.distance_m
        assert hop.utility == decision.utility
        assert hop.cdelay_s == decision.cdelay_s
        assert hop.shipping_s == decision.shipping_s
        assert hop.transmission_s == decision.transmission_s
        assert hop.discount == decision.discount

    @pytest.mark.parametrize(
        "factory", [airplane_scenario, quadrocopter_scenario]
    )
    def test_chain_aggregates_bitwise(self, engine, factory):
        scenario = factory()
        decision = engine.solve(scenario)
        relay = RelaySolver(engine).solve(RelayChain.of([scenario]))
        assert relay.survival == decision.discount
        assert relay.delay_s == decision.cdelay_s
        assert relay.utility == decision.discount / decision.cdelay_s
        assert relay.handoff_s == 0.0
        assert relay.meets_deadline


class TestDynamicProgram:
    @pytest.mark.parametrize("deadline_s", [None, 120.0, 60.0, 30.0])
    def test_matches_brute_force_enumeration(self, engine, deadline_s):
        chain = RelayChain.of(
            [quadrocopter_scenario(), airplane_scenario(),
             quadrocopter_scenario()],
            handoff_s=5.0,
            mdata_mb=2.0,
            deadline_s=deadline_s,
        )
        scenarios = chain.scenarios()
        decisions = [engine.solve(s) for s in scenarios]
        rows = _hop_candidates(engine, scenarios, decisions)
        handoffs = [hop.handoff_s for hop in chain.hops]
        relay = RelaySolver(engine).solve(chain)
        best, fallback = _brute_force(rows, handoffs, deadline_s)
        if best is not None:
            assert relay.meets_deadline
            assert relay.utility == best[2]
            assert relay.delay_s == best[1]
        else:
            assert not relay.meets_deadline
            assert relay.delay_s == fallback[1]

    def test_every_policy_is_a_known_name(self, engine):
        chain = RelayChain.of(
            [quadrocopter_scenario(), airplane_scenario()], handoff_s=5.0
        )
        relay = RelaySolver(engine).solve(chain)
        assert all(p in HOP_POLICIES for p in relay.policies)

    def test_infeasible_deadline_reports_min_delay_chain(self, engine):
        chain = RelayChain.of(
            [quadrocopter_scenario()] * 3, handoff_s=5.0, deadline_s=1.0
        )
        relay = RelaySolver(engine).solve(chain)
        assert not relay.meets_deadline
        assert relay.delay_s > 1.0
        _, fallback = _brute_force(
            _hop_candidates(
                engine,
                chain.scenarios(),
                [engine.solve(s) for s in chain.scenarios()],
            ),
            [hop.handoff_s for hop in chain.hops],
            1.0,
        )
        assert relay.delay_s == fallback[1]

    def test_handoff_increases_delay_only(self, engine):
        base = RelaySolver(engine).solve(
            RelayChain.of([quadrocopter_scenario()] * 2, handoff_s=0.0)
        )
        loaded = RelaySolver(engine).solve(
            RelayChain.of([quadrocopter_scenario()] * 2, handoff_s=10.0)
        )
        assert loaded.handoff_s == 10.0
        assert loaded.utility < base.utility


class TestDecisionSurface:
    def test_to_dict_round_trip_is_exact(self, engine):
        relay = RelaySolver(engine).solve(
            RelayChain.of(
                [quadrocopter_scenario(), airplane_scenario()],
                handoff_s=5.0,
                deadline_s=300.0,
            )
        )
        assert RelayDecision.from_dict(relay.to_dict()) == relay

    def test_obs_records_counters_and_event(self, engine):
        from repro.obs import ObsContext

        obs = ObsContext.enabled(deterministic=True)
        chain = RelayChain.of(
            [quadrocopter_scenario(), airplane_scenario()]
        )
        RelaySolver(engine).solve(chain, obs=obs)
        counters = obs.metrics.to_dict()["counters"]
        assert counters["relay.chains"] == 1
        assert counters["relay.hops"] == 2
        assert obs.events.kinds().get("decision.relay") == 1

"""The array DP against the per-chain DP it replaced (the oracle).

:mod:`tests.relay.reference_dp` keeps the tuple-row Pareto DP verbatim.
The columnar :func:`~repro.relay.solver._frontier_dp` must pick the
same path with bitwise the same survival, delay and deadline flag on
any candidate table, including tables built so that ties in delay,
survival and ratio are common and tables whose frontier reaches the
256-state cap.
"""

import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import airplane_scenario, quadrocopter_scenario
from repro.engine.batch import BatchResult, BatchSolverEngine
from repro.relay import BatchRelaySolver, RelayChain, RelaySolver
from repro.relay.solver import (
    HOP_POLICIES,
    _frontier_dp,
    _solve_columns,
    _stack_hops,
)

from . import reference_dp
from .reference_dp import _dp_select, _hop_candidates

#: Quantised values: products and sums collide often, so exact ties in
#: delay, survival and ratio reach every tie-break.
DISCOUNTS = (0.25, 0.5, 0.75, 1.0)
CDELAYS = (1.0, 2.0, 3.0, 4.0, 6.0)
HANDOFFS = (0.0, 0.5, 1.0)


def _bits(x):
    return struct.pack("<d", x)


def _wide_tables(delay_step, survival_step):
    """Tables with frontiers past the 256-state cap and exact ties.

    Slot ``k`` of hop ``j`` adds ``k * 2**j * delay_step`` to the delay
    and ``(2 - k) * 2**j * survival_step`` halvings to the survival, so
    more delay buys more survival and eight hops give hundreds of
    frontier states.  Delays are integers and discounts powers of
    two, so the folds are exact and many states tie in delay, survival
    or both.  Steps are ``(G, hops, 3)`` arrays of small integers.
    """
    units = 2.0 ** np.arange(delay_step.shape[1])[:, None]
    cdelay = 1.0 + np.arange(3) * units * delay_step
    discount = 2.0 ** -((2 - np.arange(3)) * units * survival_step)
    return discount, cdelay


@st.composite
def candidate_tables(draw):
    """1-4 chains of 1-8 hops, 1-3 valid candidates per hop."""
    mode = draw(st.sampled_from(["quantised", "generic", "wide"]))
    hops = 8 if mode == "wide" else draw(st.integers(1, 8))
    chains = draw(st.integers(1, 4))
    shape = (chains, hops, 3)

    def values(elements):
        flat = draw(st.lists(elements, min_size=chains * hops * 3,
                             max_size=chains * hops * 3))
        return np.reshape(np.array(flat, dtype=float), shape)

    if mode == "wide":
        step = values(st.sampled_from([1, 2]))
        discount, cdelay = _wide_tables(step, np.ones(shape))
        dropped = np.zeros(shape, dtype=bool)
    else:
        if mode == "generic":
            # Delay and survival rise together within a hop, so no
            # candidate dominates another.
            cdelay = np.sort(values(st.floats(0.01, 1.0)), axis=2) * 10.0
            discount = np.sort(values(st.floats(0.01, 1.0)), axis=2)
        else:
            cdelay = values(st.sampled_from(CDELAYS))
            discount = values(st.sampled_from(DISCOUNTS))
        dropped = values(st.booleans()).astype(bool)
        dropped[:, :, 0] = False
    hand = st.floats(0.0, 5.0) if mode == "generic" else st.sampled_from(HANDOFFS)
    handoff = values(hand)[:, :, 0]
    deadlines = []
    for c in range(chains):
        live = np.where(dropped[c], np.nan, cdelay[c])
        shortest = float(np.sum(np.nanmin(live, axis=1) + handoff[c]))
        longest = float(np.sum(np.nanmax(live, axis=1) + handoff[c]))
        kind = draw(st.sampled_from(["none", "slack", "tight", "infeasible"]))
        if kind == "none":
            deadlines.append(None)
        elif kind == "slack":
            deadlines.append(longest + 1.0)
        elif kind == "tight":
            frac = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
            deadlines.append(shortest + frac * (longest - shortest))
        else:
            deadlines.append(shortest / 2.0)
    return discount, cdelay, dropped, handoff, deadlines


def _oracle(discount, cdelay, dropped, handoff, deadline):
    """The reference DP on one chain's table, paths mapped to slots."""
    rows, slots = [], []
    for j in range(discount.shape[0]):
        valid = [k for k in range(3) if not dropped[j, k]]
        slots.append(valid)
        rows.append([
            (HOP_POLICIES[k], 0.0, 0.0, float(cdelay[j, k]), 0.0, 0.0,
             float(discount[j, k]))
            for k in valid
        ])
    path, survival, delay, feasible = _dp_select(
        rows, [float(h) for h in handoff], deadline
    )
    return (
        tuple(slots[j][i] for j, i in enumerate(path)),
        survival, delay, feasible,
    )


def _assert_matches_oracle(discount, cdelay, dropped, handoff, deadlines):
    # The caller hands dropped slots in as twins of slot 0.
    slots, survival, delay, feasible = _frontier_dp(
        np.where(dropped, discount[:, :, :1], discount),
        np.where(dropped, cdelay[:, :, :1], cdelay),
        handoff,
        np.array([np.inf if d is None else d for d in deadlines]),
    )
    for c, deadline in enumerate(deadlines):
        path, ref_s, ref_d, ref_feasible = _oracle(
            discount[c], cdelay[c], dropped[c], handoff[c], deadline
        )
        assert tuple(slots[c].tolist()) == path
        assert _bits(float(survival[c])) == _bits(ref_s)
        assert _bits(float(delay[c])) == _bits(ref_d)
        assert bool(feasible[c]) == ref_feasible


class TestOracleProperty:
    @given(tables=candidate_tables())
    @settings(max_examples=300, deadline=None)
    def test_array_dp_matches_reference_bitwise(self, tables):
        _assert_matches_oracle(*tables)

    def test_wide_tables_reach_the_cap(self, monkeypatch):
        widest = []
        prune = reference_dp._prune

        def counting_prune(states):
            kept = prune(states)
            widest.append(len(kept))
            return kept

        monkeypatch.setattr(reference_dp, "_prune", counting_prune)
        steps = np.ones((2, 8, 3))
        steps[1] += np.arange(8 * 3).reshape(8, 3) % 5 % 2
        discount, cdelay = _wide_tables(steps, np.ones(steps.shape))
        dropped = np.zeros(steps.shape, dtype=bool)
        handoff = np.full((2, 8), 0.5)
        deadlines = [None, 1.0 + float(np.sum(np.median(cdelay[1], axis=1)))]
        _assert_matches_oracle(discount, cdelay, dropped, handoff, deadlines)
        assert max(widest) == reference_dp._MAX_FRONTIER


class TestSolverAgainstReference:
    def test_boundary_at_the_engine_optimum_is_dropped(self):
        # An optimum snapped to d0 whose cdelay is one ulp above the
        # re-derived breakdown at d0: the "now" boundary at the same
        # distance must be dropped, not allowed to win on that ulp.
        engine = BatchSolverEngine()
        chain = RelayChain.of(
            [quadrocopter_scenario().with_(rho_per_m=0.0, mdata_mb=1.0)]
        )
        scenarios = chain.scenarios()
        snapped = engine.solve(scenarios[0])
        assert snapped.distance_m == snapped.contact_distance_m
        cdelay = float(np.nextafter(snapped.cdelay_s, np.inf))
        result = BatchResult.from_decisions([dataclasses.replace(
            snapped, cdelay_s=cdelay, utility=snapped.discount / cdelay,
        )])
        decision = _solve_columns(result, _stack_hops([chain]), [chain])[0]
        assert decision.policies == ("optimal",)
        assert decision.delay_s == cdelay

    def test_fleet_matches_reference_per_chain(self):
        quad, air = quadrocopter_scenario(), airplane_scenario()
        fleet = [
            RelayChain.of(
                [(quad, air)[(i + h) % 2].with_(
                    rho_per_m=1e-4 * (1 + (7 * i + h) % 40),
                    speed_mps=3.0 + (5 * i + 3 * h) % 20,
                ) for h in range(1 + i % 4)],
                handoff_s=float(i % 5),
                mdata_mb=2.0 + i % 30,
                deadline_s=None if i % 3 else 60.0 + 10.0 * (i % 20),
                name=f"c{i}",
            )
            for i in range(60)
        ]
        engine = BatchSolverEngine()
        result = BatchRelaySolver(engine).solve(fleet)
        for chain, decision in zip(fleet, result):
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


#: Eight hops whose candidates are pairwise Pareto-incomparable: the
#: exact frontier grows past 800 states, so the 256-state cap decides
#: the unconstrained answer.
CAP_HOPS = (
    (quadrocopter_scenario, 12.8, 0.01665, 167.0),
    (quadrocopter_scenario, 8.4, 0.01536, 63.0),
    (quadrocopter_scenario, 22.2, 0.02154, 92.0),
    (quadrocopter_scenario, 22.3, 0.03098, 214.0),
    (airplane_scenario, 14.1, 0.00183, 168.0),
    (quadrocopter_scenario, 11.5, 0.00774, 86.0),
    (airplane_scenario, 11.7, 0.0001, 123.0),
    (quadrocopter_scenario, 7.0, 0.00854, 172.0),
)

#: ``sha256(json.dumps(decision.to_dict(), sort_keys=True))`` and the
#: chosen policies, captured from the per-chain DP.
CAP_PINNED = {
    None: (
        "dc7db75ac671ad91a9ee2cd7f6b88da0e58bf944cd637ca7700cd5acc69aafad",
        ("closest", "now", "optimal", "optimal", "closest", "optimal",
         "closest", "optimal"),
        1.387611353631601e-06,
    ),
    150.0: (
        "2be58877cf7f567e2a233479345e46c87e8947e8e82bd64d4a78dca5bb5b39cf",
        ("closest", "now", "closest", "closest", "optimal", "optimal",
         "now", "optimal"),
        7.801877911615938e-08,
    ),
    120.0: (
        "3cee0934489621c12c5903a5c64e5e77a0e9767adb5de4d5188e1bcb10c62570",
        ("closest",) * 8,
        2.1012667263027623e-08,
    ),
}


def _cap_chain(deadline_s):
    return RelayChain.of(
        [factory(speed_mps=v, rho_per_m=rho, d0_m=d0)
         for factory, v, rho, d0 in CAP_HOPS],
        handoff_s=2.0, mdata_mb=20.0, name="cap", deadline_s=deadline_s,
    )


class TestFrontierCap:
    @pytest.mark.parametrize("deadline_s", sorted(CAP_PINNED, key=str))
    def test_capped_chain_is_pinned(self, deadline_s):
        digest, policies, utility = CAP_PINNED[deadline_s]
        chain = _cap_chain(deadline_s)
        scalar = RelaySolver(BatchSolverEngine()).solve(chain)
        (batch,) = BatchRelaySolver(BatchSolverEngine()).solve([chain])
        assert batch == scalar
        assert scalar.policies == policies
        assert scalar.utility == utility
        assert scalar.meets_deadline == (deadline_s != 120.0)
        payload = json.dumps(scalar.to_dict(), sort_keys=True).encode()
        assert hashlib.sha256(payload).hexdigest() == digest

    def test_cap_changes_the_unconstrained_answer(self, monkeypatch):
        # Without the cap the reference DP finds a better chain, so the
        # pinned answer above really exercises the truncation.
        engine = BatchSolverEngine()
        chain = _cap_chain(None)
        scenarios = chain.scenarios()
        rows = _hop_candidates(
            engine, scenarios, [engine.solve(s) for s in scenarios]
        )
        handoffs = [hop.handoff_s for hop in chain.hops]
        capped = _dp_select(rows, handoffs, None)
        monkeypatch.setattr(reference_dp, "_MAX_FRONTIER", 10**6)
        uncapped = _dp_select(rows, handoffs, None)
        assert uncapped[1] / uncapped[2] > capped[1] / capped[2]
        assert capped[1] / capped[2] == CAP_PINNED[None][2]

"""The relay DP as it stood before the columnar rewrite: the oracle.

``_hop_candidates``, ``_prune`` and ``_dp_select`` are kept verbatim
from the per-chain implementation (one tuple row per candidate, Python
sorts per chain).  The columnar solver in :mod:`repro.relay.solver`
must reproduce their path, survival, delay and feasibility bit for bit;
``tests/relay/test_dp_oracle.py`` holds it to that.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.optimizer import OptimalDecision
from repro.engine.batch import BatchSolverEngine

_MAX_FRONTIER = 256


def _hop_candidates(
    engine: BatchSolverEngine,
    scenarios: Sequence,
    decisions: Sequence[OptimalDecision],
) -> List[List[Tuple[str, float, float, float, float, float, float]]]:
    """Per-hop candidate tuples: (policy, d, U, cdelay, ship, tx, disc).

    The ``optimal`` candidate copies the engine decision's fields
    verbatim; the boundary candidates are evaluated through the same
    elementwise :meth:`~repro.engine.batch.BatchSolverEngine.breakdown_at`
    arrays whether one hop or a whole fleet is being solved — this
    function is the single candidate source for both solvers, which is
    what makes scalar↔batch lockstep structural rather than tested-in.

    A boundary whose distance equals the engine optimum (a snapped
    decision) is dropped: re-deriving it through a different float path
    could differ in the last ulp and steal the tie.
    """
    d0 = np.array([s.contact_distance_m for s in scenarios], dtype=float)
    dmin = np.array([s.min_distance_m for s in scenarios], dtype=float)
    at_now = engine.breakdown_at(scenarios, d0)
    at_closest = engine.breakdown_at(scenarios, dmin)
    rows: List[List[Tuple[str, float, float, float, float, float, float]]] = []
    for i, decision in enumerate(decisions):
        row = [
            (
                "optimal",
                decision.distance_m,
                decision.utility,
                decision.cdelay_s,
                decision.shipping_s,
                decision.transmission_s,
                decision.discount,
            )
        ]
        if float(d0[i]) != decision.distance_m:
            row.append(
                ("now", float(d0[i]))
                + tuple(float(column[i]) for column in at_now)
            )
        if float(dmin[i]) != decision.distance_m:
            row.append(
                ("closest", float(dmin[i]))
                + tuple(float(column[i]) for column in at_closest)
            )
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# The dynamic program
# ----------------------------------------------------------------------

def _prune(
    states: List[Tuple[float, float, Tuple[int, ...]]],
) -> List[Tuple[float, float, Tuple[int, ...]]]:
    """Keep the Pareto frontier of (survival desc, delay asc) states.

    Sorting by (delay, -survival, path) makes the sweep deterministic:
    among states equal on both axes the lexicographically smallest
    candidate path survives, which orders ``optimal`` first.
    """
    states.sort(key=lambda s: (s[1], -s[0], s[2]))
    kept: List[Tuple[float, float, Tuple[int, ...]]] = []
    best_survival = -1.0
    for survival, delay, path in states:
        if survival > best_survival:
            kept.append((survival, delay, path))
            best_survival = survival
            if len(kept) >= _MAX_FRONTIER:
                break
    return kept


def _dp_select(
    rows: Sequence[Sequence[tuple]],
    handoffs: Sequence[float],
    deadline_s: Optional[float],
) -> Tuple[Tuple[int, ...], float, float, bool]:
    """Pick one candidate per hop maximising the chain utility.

    Returns ``(candidate indices, survival, delay_s, feasible)``.
    States fold multiplicatively in survival and additively in delay
    (candidate index 3 is cdelay, index 6 the discount), the frontier
    is pruned exactly per layer, and the final pick maximises
    ``survival / delay`` among deadline-feasible states — falling back
    to the minimum-delay chain when nothing is feasible.
    """
    frontier: List[Tuple[float, float, Tuple[int, ...]]] = [(1.0, 0.0, ())]
    for row, handoff in zip(rows, handoffs):
        grown = [
            (
                survival * candidate[6],
                delay + candidate[3] + handoff,
                path + (index,),
            )
            for survival, delay, path in frontier
            for index, candidate in enumerate(row)
        ]
        frontier = _prune(grown)
    if deadline_s is not None:
        feasible = [state for state in frontier if state[1] <= deadline_s]
    else:
        feasible = frontier
    if feasible:
        survival, delay, path = min(
            feasible, key=lambda s: (-(s[0] / s[1]), s[1], s[2])
        )
        return path, survival, delay, True
    survival, delay, path = min(
        frontier, key=lambda s: (s[1], -s[0], s[2])
    )
    return path, survival, delay, False

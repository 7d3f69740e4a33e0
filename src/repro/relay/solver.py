"""Per-hop now-vs-ship decisions for relay chains (DP over Eq. 1/2).

Each hop of a :class:`~repro.relay.chain.RelayChain` chooses between
three candidate policies:

* ``optimal`` — the hop's own Eq. 2 solution (ship to ``dopt``, then
  transmit), taken verbatim from the shared
  :class:`~repro.engine.batch.BatchSolverEngine`;
* ``now`` — transmit from the contact distance ``d0`` (no flying, no
  survival discount);
* ``closest`` — ship all the way to the hop's distance floor.

A hop-greedy pick of ``optimal`` everywhere maximises each factor of
the chain utility separately but not their combination: the utility is
a *ratio* ``prod(discount) / sum(delay)``, so a cheap hop may trade
its own optimum for chain-level survival or for a delivery deadline.
The solver therefore runs a dynamic program over the exact Pareto
frontier of ``(survival product, delay sum)`` states — survival and
delay are each additive/multiplicative per hop, so any chain-level
objective that is monotone in both (the utility ratio, a deadline cut)
is maximised by some frontier state.

Bit-identity contracts (pinned by the property suite):

* a 1-hop chain with zero hand-off returns the engine's
  :class:`~repro.core.optimizer.OptimalDecision` fields verbatim —
  boundary candidates that coincide with the engine optimum are
  dropped rather than re-derived, and a non-snapped engine optimum
  strictly dominates both boundaries by the engine's own snap margin;
* candidates and the array DP are one columnar function,
  :func:`_solve_columns`, over the hop parameter block
  :func:`_stack_hops` builds; :class:`RelaySolver` calls both on one
  chain and :class:`~repro.relay.batch.BatchRelaySolver` on a whole
  fleet, so scalar and batch paths stay in R=1 lockstep by
  construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..engine.batch import (
    BatchResult,
    BatchSolverEngine,
    _Params,
    default_engine,
)
from ..obs import ObsContext, RunManifest
from .chain import RelayChain

__all__ = [
    "HOP_POLICIES",
    "BatchRelayResult",
    "HopChoice",
    "RelayDecision",
    "RelaySolver",
    "relay_manifest",
]

#: The candidate policies each hop chooses between, in tie-break order
#: (the engine optimum wins exact utility ties).
HOP_POLICIES = ("optimal", "now", "closest")

#: Cap on Pareto states kept per DP layer.  With three candidates per
#: hop the exact frontier stays tiny after dominance pruning; the cap
#: only bounds pathological hand-crafted chains, deterministically
#: (lowest-delay states are kept).
_MAX_FRONTIER = 256

#: Chains per DP block, bounding the layer arrays when some chains carry
#: wide frontiers.  Scheduling only: each chain's DP is row-local.
_DP_BLOCK = 2048


@dataclass(frozen=True)
class HopChoice:
    """The policy one hop ends up with, plus its Eq. 1 breakdown."""

    hop: int
    policy: str
    distance_m: float
    utility: float
    cdelay_s: float
    shipping_s: float
    transmission_s: float
    discount: float
    handoff_s: float

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping; floats round-trip exactly."""
        return {
            "hop": self.hop,
            "policy": self.policy,
            "distance_m": self.distance_m,
            "utility": self.utility,
            "cdelay_s": self.cdelay_s,
            "shipping_s": self.shipping_s,
            "transmission_s": self.transmission_s,
            "discount": self.discount,
            "handoff_s": self.handoff_s,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "HopChoice":
        """Inverse of :meth:`to_dict` (store rehydration)."""
        return cls(
            hop=int(payload["hop"]),
            policy=str(payload["policy"]),
            distance_m=float(payload["distance_m"]),
            utility=float(payload["utility"]),
            cdelay_s=float(payload["cdelay_s"]),
            shipping_s=float(payload["shipping_s"]),
            transmission_s=float(payload["transmission_s"]),
            discount=float(payload["discount"]),
            handoff_s=float(payload["handoff_s"]),
        )


@dataclass(frozen=True)
class RelayDecision:
    """The solved chain: per-hop choices plus chain-level aggregates."""

    chain: str
    hops: Tuple[HopChoice, ...]
    #: Chain utility: ``survival / delay_s`` (generalised Eq. 1).
    utility: float
    #: Product of the per-hop survival discounts.
    survival: float
    #: End-to-end delay: per-hop Cdelay plus hand-off overheads.
    delay_s: float
    #: Total hand-off overhead included in ``delay_s``.
    handoff_s: float
    deadline_s: Optional[float]
    #: True when ``delay_s`` meets the deadline (always True without
    #: one); False means no candidate combination was feasible and the
    #: minimum-delay chain is reported instead.
    meets_deadline: bool

    @property
    def n_hops(self) -> int:
        """Number of hops in the solved chain."""
        return len(self.hops)

    @property
    def policies(self) -> Tuple[str, ...]:
        """Per-hop policy names, in chain order."""
        return tuple(choice.policy for choice in self.hops)

    def to_dict(self) -> Dict[str, object]:
        """JSON document; identical across replays of the same chain."""
        return {
            "chain": self.chain,
            "utility": self.utility,
            "survival": self.survival,
            "delay_s": self.delay_s,
            "handoff_s": self.handoff_s,
            "deadline_s": self.deadline_s,
            "meets_deadline": self.meets_deadline,
            "hops": [choice.to_dict() for choice in self.hops],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RelayDecision":
        """Inverse of :meth:`to_dict` — ``from_dict(d.to_dict()) == d``."""
        deadline = payload["deadline_s"]
        return cls(
            chain=str(payload["chain"]),
            hops=tuple(
                HopChoice.from_dict(choice) for choice in payload["hops"]
            ),
            utility=float(payload["utility"]),
            survival=float(payload["survival"]),
            delay_s=float(payload["delay_s"]),
            handoff_s=float(payload["handoff_s"]),
            deadline_s=None if deadline is None else float(deadline),
            meets_deadline=bool(payload["meets_deadline"]),
        )


# ----------------------------------------------------------------------
# The columnar solve (shared by the scalar and batch solvers)
# ----------------------------------------------------------------------

@dataclass(eq=False, repr=False)
class BatchRelayResult:
    """N solved chains as columns, one entry per chain and per hop.

    ``utility``, ``survival``, ``delay_s`` and ``meets_deadline`` are
    per-chain arrays.  Indexing (negative indices and slices too),
    iteration, :attr:`decisions` and :meth:`to_dicts` behave as on a
    tuple of :class:`RelayDecision`; the first of them builds every
    decision, once.
    """

    _chains: Sequence[RelayChain]
    #: Chain ``i`` owns hop rows ``_offsets[i]:_offsets[i + 1]``.
    _offsets: List[int]
    #: Per hop: the chosen :data:`HOP_POLICIES` index, and its distance,
    #: U, cdelay, shipping, transmission and discount as a (6, hops) block.
    _policy: np.ndarray
    _hop_values: np.ndarray
    survival: np.ndarray
    delay_s: np.ndarray
    meets_deadline: np.ndarray

    def __post_init__(self) -> None:
        self.utility = self.survival / self.delay_s

    def __len__(self) -> int:
        return len(self._chains)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[RelayDecision, Tuple[RelayDecision, ...]]:
        return self.decisions[index]

    def __iter__(self) -> Iterator[RelayDecision]:
        return iter(self.decisions)

    @cached_property
    def decisions(self) -> Tuple[RelayDecision, ...]:
        """Every chain's decision, in order (built once, on first read)."""
        return tuple(map(self._decision, range(len(self))))

    def to_dicts(self) -> List[dict]:
        """JSON-ready mapping per chain (CLI/manifest output)."""
        return [decision.to_dict() for decision in self]

    def _decision(self, index: int) -> RelayDecision:
        chain = self._chains[index]
        lo, hi = self._offsets[index], self._offsets[index + 1]
        rows = zip(
            chain.hops,
            self._policy[lo:hi].tolist(),
            zip(*self._hop_values[:, lo:hi].tolist()),
        )
        return RelayDecision(
            chain=chain.name,
            hops=tuple(
                HopChoice(i, HOP_POLICIES[policy], *values, hop.handoff_s)
                for i, (hop, policy, values) in enumerate(rows)
            ),
            utility=float(self.utility[index]),
            survival=float(self.survival[index]),
            delay_s=float(self.delay_s[index]),
            handoff_s=chain.total_handoff_s,
            deadline_s=chain.deadline_s,
            meets_deadline=bool(self.meets_deadline[index]),
        )


def _stack_hops(
    chains: Sequence[RelayChain],
) -> Tuple[_Params, np.ndarray, np.ndarray]:
    """Every hop of ``chains``, in order, as one parameter block, plus
    the per-hop hand-offs and the per-chain hop counts."""
    hops = [hop for chain in chains for hop in chain.hops]
    params = _Params([hop.scenario for hop in hops])
    handoff = np.array([hop.handoff_s for hop in hops], dtype=float)
    counts = np.array([len(chain.hops) for chain in chains], dtype=np.intp)
    return params, handoff, counts


def _solve_columns(
    result: BatchResult,
    stacked: Tuple[_Params, np.ndarray, np.ndarray],
    chains: Sequence[RelayChain],
) -> BatchRelayResult:
    """Pick one candidate per hop for every chain (``stacked`` is
    :func:`_stack_hops` of ``chains``, and ``result`` solves its block).

    The table holds distance, U, cdelay, shipping, transmission and
    discount per :data:`HOP_POLICIES` slot and hop: ``optimal`` is the
    engine columns verbatim; ``now`` (``d0``) and ``closest`` (``dmin``)
    come from one elementwise breakdown of the block stacked on itself
    at ``[d0; dmin]``, so stacking rows changes no bit.  A boundary at
    the engine optimum (a snapped decision) is dropped: re-deriving it
    could differ in the last ulp and steal the tie, so its cdelay and
    discount become slot 0's, a twin the DP never picks.
    """
    params, handoff, counts = stacked
    n = len(params)
    bounds = np.concatenate((params.d0, params.dmin))
    table = np.concatenate(
        ((result.distance_m, result.utility, result.cdelay_s,
          result.shipping_s, result.transmission_s, result.discount),
         (bounds, *params.doubled().breakdown(bounds))),
        axis=1,
    ).reshape(6, 3, n)
    np.copyto(table[2::3, 1:], table[2::3, :1], where=table[0, 1:] == table[0, :1])
    offsets = np.zeros(len(chains) + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    # No deadline (``None``) arrives as NaN and means an infinite one.
    deadline = np.array([chain.deadline_s for chain in chains], dtype=float)
    deadline[np.isnan(deadline)] = np.inf
    policy = np.zeros(n, dtype=np.intp)
    survival, delay = np.empty((2, len(chains)))
    feasible = np.empty(len(chains), dtype=bool)
    for n_hops in np.flatnonzero(np.bincount(counts)).tolist():
        members = np.flatnonzero(counts == n_hops)
        for start in range(0, len(members), _DP_BLOCK):
            ids = members[start:start + _DP_BLOCK]
            hops = offsets[ids, None] + np.arange(n_hops)
            policy[hops], survival[ids], delay[ids], feasible[ids] = _frontier_dp(
                table[5, :, hops], table[2, :, hops], handoff[hops], deadline[ids],
            )
    return BatchRelayResult(
        chains, offsets.tolist(), policy, table[:, policy, np.arange(n)],
        survival, delay, feasible,
    )


def _frontier_dp(
    discount: np.ndarray,
    cdelay: np.ndarray,
    handoff: np.ndarray,
    deadline: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Pareto-frontier DP over G chains of one hop count: takes
    ``(G, hops, 3)`` tables, ``(G, hops)`` hand-offs and ``(G,)``
    deadlines (``inf`` for none); returns the slot per hop and each
    chain's survival, delay and deadline flag.

    States fold as ``survival * discount`` (negated, exactly, so it
    sorts ascending) and ``(delay + cdelay) + handoff``.  A layer keeps,
    in (delay, -survival, path) order, the states of strictly rising
    survival, at most :data:`_MAX_FRONTIER`.  Frontiers are stored in
    path order (state ``p`` grown by slot ``k`` sits at ``3p + k``), so
    stable sorts break exact ties by path.  A dropped slot arrives as a
    twin of slot 0 and a short frontier is padded with twins of its last
    state: a twin equals its original in every value at a later
    position, so it is never kept or picked in its place and never moves
    the running survival.  The pick
    maximises ``survival / delay``, then minimises delay, over
    deadline-feasible states; with none, it minimises delay (kept
    states have distinct delays, so survival never breaks that tie).
    """
    g, hops, _ = discount.shape
    rows = np.arange(g)[:, None]
    neg_survival = np.full((g, 1), -1.0)
    delay = np.zeros((g, 1))
    grown_at = []
    for j in range(hops):
        grown_s = (neg_survival[:, :, None] * discount[:, None, j]).reshape(g, -1)
        grown_d = (
            (delay[:, :, None] + cdelay[:, None, j]) + handoff[:, j, None, None]
        ).reshape(g, -1)
        order = np.lexsort((grown_s, grown_d))
        ranked = grown_s[rows, order]
        # Keep a state that beats the survival of every state before it.
        best_before = np.empty(ranked.shape)
        best_before[:, 0] = np.inf
        np.minimum.accumulate(ranked[:, :-1], axis=1, out=best_before[:, 1:])
        keep = ranked < best_before
        width = keep.sum(axis=1).max()
        if width > _MAX_FRONTIER:
            keep &= np.cumsum(keep, axis=1) <= _MAX_FRONTIER
            width = _MAX_FRONTIER
        # Kept positions in path order, padded with the last one.
        last = np.where(keep, order, -1).max(axis=1, keepdims=True)
        at = np.sort(np.where(keep, order, last))[:, :width]
        grown_at.append(at)
        neg_survival, delay = grown_s[rows, at], grown_d[rows, at]
    fits = delay <= deadline[:, None]
    feasible = fits.any(axis=1)
    pick = np.where(
        feasible,
        np.lexsort((delay, neg_survival / delay, ~fits))[:, 0],
        delay.argmin(axis=1),
    )
    rows = rows[:, 0]
    survival, delay = -neg_survival[rows, pick], delay[rows, pick]
    slots = np.empty((g, hops), dtype=np.intp)
    for j in reversed(range(hops)):
        pick, slots[:, j] = np.divmod(grown_at[j][rows, pick], 3)
    return slots, survival, delay, feasible


# ----------------------------------------------------------------------
# The scalar solver
# ----------------------------------------------------------------------

class RelaySolver:
    """Solves one relay chain at a time (the scalar reference path)."""

    def __init__(self, engine: Optional[BatchSolverEngine] = None) -> None:
        self.engine = engine or default_engine()

    def solve(
        self,
        chain: RelayChain,
        obs: Optional[ObsContext] = None,
    ) -> RelayDecision:
        """Solve the chain's per-hop now-vs-ship decisions.

        ``obs`` records a ``relay.solve`` span, ``relay.*`` counters
        and a ``decision.relay`` event; ``None`` (the default) leaves
        the solve path untouched.
        """
        if obs is None:
            return self._solve(chain)[0]
        span = None
        if obs.tracer is not None:
            span = obs.tracer.span("relay.solve", hops=chain.n_hops)
            span.__enter__()
        try:
            result = self._solve(chain)
        finally:
            if span is not None:
                span.__exit__(None, None, None)
        _record_relay_obs(obs, result)
        return result[0]

    def _solve(self, chain: RelayChain) -> BatchRelayResult:
        result = BatchResult.from_decisions(
            [self.engine.solve(scn) for scn in chain.scenarios()]
        )
        return _solve_columns(result, _stack_hops([chain]), [chain])


def _record_relay_obs(obs: ObsContext, result: BatchRelayResult) -> None:
    """``relay.*`` counters and one event per solved chain.

    Shared by the scalar and batch solvers so both emit the same metric
    names (the campaign-style parity contract).
    """
    if obs.metrics is not None:
        obs.metrics.counter("relay.chains").inc(len(result))
        obs.metrics.counter("relay.hops").inc(result._offsets[-1])
    if obs.events is not None:
        for chain, utility, delay_s, meets_deadline in zip(
            result._chains, result.utility.tolist(),
            result.delay_s.tolist(), result.meets_deadline.tolist(),
        ):
            obs.events.emit(
                "decision.relay", 0.0, chain=chain.name, utility=utility,
                delay_s=delay_s, meets_deadline=meets_deadline,
            )


def relay_manifest(
    decision: RelayDecision,
    chain: RelayChain,
    obs: Optional[ObsContext] = None,
    git_rev: Optional[str] = "auto",
) -> RunManifest:
    """The one manifest builder for relay solves.

    ``repro relay --json`` and :func:`repro.api.solve_relay` both
    serialise through this function, so CLI stdout and the library's
    :class:`~repro.obs.RunManifest` are byte-identical for the same
    chain — and, with the default deterministic obs context, a
    warm-cache run prints the same bytes as the cold run that
    populated the store.
    """
    return RunManifest.build(
        kind="relay",
        config=chain.to_dict(),
        outputs=decision.to_dict(),
        obs=obs,
        git_rev=git_rev,
    )

"""Vectorised relay-chain solver for fleets of chains.

:class:`BatchRelaySolver` is the RL105-registered batch twin of
:class:`~repro.relay.solver.RelaySolver`: at R=1 (one chain) it is
bit-identical to the scalar path, and over a fleet it amortises the
engine work by stacking every hop of every chain into shared
vectorised passes.

Bit-lockstep is structural, not tuned-in:

* every hop of every chain goes through one stacked
  :meth:`~repro.engine.batch.BatchSolverEngine.solve_batch` call —
  the engine's Eq. 2 kernel is row-local (own grid, refinement and
  snapping per row), so each hop's answer equals its solo solve;
* boundary candidates come from the same elementwise
  :func:`~repro.relay.solver._hop_candidates` evaluation the scalar
  solver uses, and the DP itself is the shared
  :func:`~repro.relay.solver._assemble`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..engine.batch import BatchSolverEngine, default_engine
from ..obs import ObsContext
from .chain import RelayChain
from .solver import (
    RelayDecision,
    _assemble,
    _hop_candidates,
    _record_relay_obs,
)

__all__ = ["BatchRelayResult", "BatchRelaySolver"]


class BatchRelayResult:
    """Container of N solved chains with array-valued aggregates."""

    def __init__(self, decisions: Tuple[RelayDecision, ...]) -> None:
        self.decisions = decisions
        self.utility = np.array([d.utility for d in decisions])
        self.survival = np.array([d.survival for d in decisions])
        self.delay_s = np.array([d.delay_s for d in decisions])

    def __len__(self) -> int:
        return len(self.decisions)

    def __getitem__(self, index: int) -> RelayDecision:
        return self.decisions[index]

    def __iter__(self) -> Iterator[RelayDecision]:
        return iter(self.decisions)

    def to_dicts(self) -> List[dict]:
        """JSON-ready mapping per chain (CLI/manifest output)."""
        return [decision.to_dict() for decision in self.decisions]


class BatchRelaySolver:
    """Solves fleets of relay chains in shared vectorised passes."""

    def __init__(self, engine: Optional[BatchSolverEngine] = None) -> None:
        self.engine = engine or default_engine()

    def solve(
        self,
        chains: Iterable[RelayChain],
        obs: Optional[ObsContext] = None,
    ) -> BatchRelayResult:
        """Solve every chain; bit-identical to the scalar path per chain.

        ``obs`` records a ``relay.solve_batch`` span plus the same
        ``relay.*`` counters and ``decision.relay`` events the scalar
        solver emits; ``None`` leaves the hot path untouched.
        """
        chain_list = list(chains)
        if obs is None:
            return self._solve(chain_list)
        span = None
        if obs.tracer is not None:
            span = obs.tracer.span("relay.solve_batch", n=len(chain_list))
            span.__enter__()
        try:
            result = self._solve(chain_list)
        finally:
            if span is not None:
                span.__exit__(None, None, None)
        _record_relay_obs(obs, result.decisions)
        return result

    def _solve(self, chain_list: List[RelayChain]) -> BatchRelayResult:
        scenarios = [
            scn for chain in chain_list for scn in chain.scenarios()
        ]
        decisions = self.engine.solve_batch(scenarios)
        rows = _hop_candidates(self.engine, scenarios, decisions)
        out: List[RelayDecision] = []
        offset = 0
        for chain in chain_list:
            out.append(_assemble(chain, rows[offset:offset + chain.n_hops]))
            offset += chain.n_hops
        return BatchRelayResult(tuple(out))

"""Vectorised relay-chain solver for fleets of chains.

:class:`BatchRelaySolver` is the RL105-registered batch twin of
:class:`~repro.relay.solver.RelaySolver`: at R=1 (one chain) it is
bit-identical to the scalar path, and over a fleet it amortises the
engine work by stacking every hop of every chain into shared
vectorised passes.

The fleet's hops are read once: :func:`~repro.relay.solver._stack_hops`
walks the chains into one parameter block plus hand-off and hop-count
arrays, and that block feeds both the Eq. 2 pass and the candidate
table.

Bit-lockstep is structural, not tuned-in:

* every hop of every chain goes through one stacked
  :meth:`~repro.engine.batch.BatchSolverEngine.solve_batch` call on
  that block — the engine's Eq. 2 kernel is row-local (own grid,
  refinement and snapping per row), so each hop's answer equals its
  solo solve;
* candidates and the DP are the same columnar
  :func:`~repro.relay.solver._solve_columns` the scalar solver runs
  on one chain's block; the ``now``/``closest`` breakdown and the
  array DP are row-local per hop and per chain.

The result stays columnar: :class:`~repro.relay.solver.BatchRelayResult`
builds its :class:`~repro.relay.solver.RelayDecision` objects on the
first read of one, and keeps them.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..engine.batch import BatchSolverEngine, default_engine
from ..obs import ObsContext
from .chain import RelayChain
from .solver import (
    BatchRelayResult,
    _record_relay_obs,
    _solve_columns,
    _stack_hops,
)

__all__ = ["BatchRelaySolver"]


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
        _record_relay_obs(obs, result)
        return result

    def _solve(self, chain_list: List[RelayChain]) -> BatchRelayResult:
        stacked = _stack_hops(chain_list)
        result = self.engine.solve_batch(stacked[0])
        return _solve_columns(result, stacked, chain_list)

"""Relay-chain scenario model: N store-and-forward hops of Eq. 1/2.

The paper solves the now-or-later decision for a single sender/receiver
pair; its related work (UAV ferrying, DTN store-carry-forward) chains
that decision across several relaying UAVs.  A :class:`RelayChain` is
the static description of such a chain: an ordered tuple of
:class:`RelayHop` entries, each a full single-link
:class:`~repro.core.scenario.Scenario` (its own contact distance,
throughput law, failure rate and cruise speed) plus the hand-off
overhead paid before the hop starts (association, re-buffering,
turn-around).

The *same* ``Mdata`` flows through every hop — a relay must receive
the batch in full before forwarding it — so :meth:`RelayChain.of`
normalises every hop scenario to the chain's data size.  The chain
utility generalises Eq. 1:

    U_chain = prod_i exp(-rho_i * (d0_i - d_i)) /
              (sum_i [Cdelay_i(d_i) + handoff_i])

which :mod:`repro.relay.solver` maximises hop by hop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from ..core.scenario import Scenario

__all__ = ["RelayHop", "RelayChain"]

#: Hop scenario parameters that must be finite: a NaN would make the
#: chain utility NaN, which no frontier order can rank.
_FINITE_FIELDS = ("contact_distance_m", "min_distance_m", "cruise_speed_mps",
                  "failure_rate_per_m", "data_bits")


def _all_finite(key: tuple) -> bool:
    """False when a float in the (nested) cache-key tuple is NaN or inf."""
    return all(
        _all_finite(item) if isinstance(item, tuple)
        else not isinstance(item, float) or math.isfinite(item)
        for item in key
    )


@dataclass(frozen=True)
class RelayHop:
    """One hop of a relay chain: a single-link scenario plus hand-off.

    ``handoff_s`` is the overhead paid *before* this hop's clock
    starts (receiving the batch from the previous carrier, association,
    turn-around); the first hop of a chain conventionally carries 0.
    """

    scenario: Scenario
    handoff_s: float = 0.0

    def __post_init__(self) -> None:
        # Chained comparisons reject NaN and infinities too.
        if not 0 <= self.handoff_s < math.inf:
            raise ValueError("handoff_s must be non-negative")
        for name in _FINITE_FIELDS:
            if not math.isfinite(getattr(self.scenario, name)):
                raise ValueError(f"hop {name} must be finite")
        cache_key = getattr(self.scenario.throughput, "cache_key", None)
        key = None if cache_key is None else cache_key()
        if key is not None and not _all_finite(key):
            raise ValueError("hop throughput model must be finite")

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready echo of this hop's parameters."""
        scn = self.scenario
        return {
            "scenario": scn.name,
            "mdata_mb": scn.data_megabytes,
            "speed_mps": scn.cruise_speed_mps,
            "rho_per_m": scn.failure_rate_per_m,
            "d0_m": scn.contact_distance_m,
            "dmin_m": scn.min_distance_m,
            "handoff_s": self.handoff_s,
        }


@dataclass(frozen=True)
class RelayChain:
    """An ordered chain of relay hops with an optional delivery deadline."""

    name: str
    hops: Tuple[RelayHop, ...]
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.hops:
            raise ValueError("a relay chain needs at least one hop")
        if self.deadline_s is not None and not 0 < self.deadline_s < math.inf:
            raise ValueError("deadline_s must be positive")

    # ------------------------------------------------------------------
    @classmethod
    def of(
        cls,
        scenarios: Sequence[Scenario],
        handoff_s: Union[float, Sequence[float]] = 0.0,
        name: str = "relay",
        deadline_s: Optional[float] = None,
        mdata_mb: Optional[float] = None,
    ) -> "RelayChain":
        """Build a chain from per-hop scenarios, normalising the data.

        The chain carries one batch end to end, so every hop scenario
        is rewritten to the chain's data size — ``mdata_mb`` when
        given, otherwise the first scenario's.  ``handoff_s`` may be a
        scalar (applied to every hop after the first) or a sequence of
        length N or N-1 (the first hop never pays a hand-off).
        """
        scenario_list = list(scenarios)
        if not scenario_list:
            raise ValueError("a relay chain needs at least one hop")
        if mdata_mb is not None:
            bits = float(mdata_mb) * 8e6
        else:
            bits = scenario_list[0].data_bits
        if isinstance(handoff_s, (int, float)):
            overheads = [0.0] + [float(handoff_s)] * (len(scenario_list) - 1)
        else:
            overheads = [float(h) for h in handoff_s]
            if len(overheads) == len(scenario_list) - 1:
                overheads = [0.0] + overheads
            if len(overheads) != len(scenario_list):
                raise ValueError(
                    "handoff_s sequence must have one entry per hop "
                    "(or per hand-off, i.e. hops - 1)"
                )
        hops = tuple(
            RelayHop(scenario=scn.with_(data_bits=bits), handoff_s=overhead)
            for scn, overhead in zip(scenario_list, overheads)
        )
        return cls(name=name, hops=hops, deadline_s=deadline_s)

    # ------------------------------------------------------------------
    @property
    def n_hops(self) -> int:
        """Number of hops in the chain."""
        return len(self.hops)

    @property
    def data_bits(self) -> float:
        """The batch size the chain carries (first hop's ``Mdata``)."""
        return self.hops[0].scenario.data_bits

    @property
    def total_handoff_s(self) -> float:
        """Total hand-off overhead along the chain."""
        return sum(hop.handoff_s for hop in self.hops)

    def scenarios(self) -> Tuple[Scenario, ...]:
        """The per-hop single-link scenarios, in chain order."""
        return tuple(hop.scenario for hop in self.hops)

    def cache_key(self) -> Optional[tuple]:
        """Hashable identity of the chain, or ``None`` if uncacheable.

        Built from each hop scenario's
        :meth:`~repro.core.scenario.Scenario.cache_key` (which covers
        the throughput law), the hand-off overheads and the deadline —
        the persistent result store hashes this via
        :func:`repro.store.config_key`.
        """
        parts = []
        for hop in self.hops:
            scenario_key = hop.scenario.cache_key()
            if scenario_key is None:
                return None
            parts.append((scenario_key, hop.handoff_s))
        return (tuple(parts), self.deadline_s)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready echo of the chain (manifest config)."""
        return {
            "chain": self.name,
            "n_hops": self.n_hops,
            "deadline_s": self.deadline_s,
            "hops": [hop.to_dict() for hop in self.hops],
        }

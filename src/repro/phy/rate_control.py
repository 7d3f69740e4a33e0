"""Rate-control algorithms.

Three controllers matching the paper's PHY study (Section 3.1):

* :class:`FixedMcs` — the fixed-PHY-rate configuration that doubled
  throughput in the field tests.
* :class:`BestMcsOracle` — per-burst genie that knows the mean SNR and
  picks the expected-goodput-maximising MCS; upper-bounds what any
  adaptation could do.
* :class:`ArfController` — the vendor (Ralink-style) automatic rate
  fallback the testbed actually ran; its per-burst reactiveness on a
  fast-varying aerial channel reproduces the paper's finding that the
  best fixed MCS "outperforms PHY auto rate adaptation (with 100% or
  more higher throughput)".
* :class:`MinstrelController` — a model of the Linux Minstrel-HT
  algorithm (EWMA statistics, lookaround sampling), provided as an
  ablation: a modern throughput-driven controller closes much of the
  fixed-vs-auto gap, supporting the paper's diagnosis that the loss
  came from the adaptation algorithm rather than the radio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence

import numpy as np

from .error import ErrorModel
from .mcs import all_mcs_indices, get_mcs
from .phy80211n import PhyConfig

__all__ = [
    "RateController",
    "FixedMcs",
    "BestMcsOracle",
    "MinstrelController",
    "ArfController",
    "BatchRateController",
    "BatchFixedMcs",
    "BatchArfController",
    "BatchBestMcsOracle",
    "batch_controller",
    "scalar_controller",
    "DEFAULT_CANDIDATES",
    "DEFAULT_ARF_CHAIN",
]

#: MCS candidates used by adaptive controllers (1-2 streams, all rates).
DEFAULT_CANDIDATES: List[int] = all_mcs_indices()


class RateController(Protocol):
    """Interface every rate-control algorithm implements."""

    def select(self, now_s: float, snr_hint_db: Optional[float] = None) -> int:
        """Choose the MCS index for the next burst."""
        ...

    def feedback(
        self, now_s: float, mcs_index: int, attempted: int, succeeded: int
    ) -> None:
        """Report the outcome of a burst (subframe counts)."""
        ...


@dataclass
class FixedMcs:
    """Always transmit at one configured MCS."""

    index: int

    def __post_init__(self) -> None:
        get_mcs(self.index)  # validate

    def select(self, now_s: float, snr_hint_db: Optional[float] = None) -> int:
        """The configured index, unconditionally."""
        return self.index

    def feedback(
        self, now_s: float, mcs_index: int, attempted: int, succeeded: int
    ) -> None:
        """Fixed rate ignores feedback."""


class BestMcsOracle:
    """Genie controller: maximises expected goodput at a known mean SNR.

    The oracle needs an SNR hint (mean SNR at the current distance); it
    deliberately ignores instantaneous fading, mirroring the paper's
    methodology of picking the best *fixed* MCS per distance.
    """

    def __init__(
        self,
        error_model: ErrorModel,
        phy: PhyConfig = PhyConfig(),
        candidates: Optional[Sequence[int]] = None,
        subframe_bytes: int = 1540,
    ) -> None:
        self._error_model = error_model
        self._phy = phy
        self._candidates = (
            list(candidates) if candidates is not None else list(DEFAULT_CANDIDATES)
        )
        if not self._candidates:
            raise ValueError("candidate set must not be empty")
        # Candidate column and its PHY rates, for the one-call scoring
        # in select().
        self._candidate_column = np.asarray(self._candidates, dtype=np.int64)
        self._rates = np.array([phy.data_rate_bps(i) for i in self._candidates])
        self._subframe_bytes = subframe_bytes
        self._last_choice = self._candidates[0]
        # The hint behind _last_choice (None: no hint yet).
        self._last_hint: Optional[float] = None

    @property
    def candidates(self) -> List[int]:
        """The MCS indices the oracle considers."""
        return list(self._candidates)

    def expected_goodput_bps(self, snr_db: float, mcs_index: int) -> float:
        """Expected PHY goodput (rate x success probability) at ``snr_db``."""
        rate = self._phy.data_rate_bps(mcs_index)
        p = self._error_model.success_probability(
            snr_db, mcs_index, self._subframe_bytes
        )
        return rate * p

    def select(self, now_s: float, snr_hint_db: Optional[float] = None) -> int:
        """The goodput-maximising candidate for the hinted SNR.

        The choice is a pure function of the hint (the mean SNR, which a
        hovering link holds fixed), so it is recomputed only when the
        hint value changes.  All candidates are scored in one
        :meth:`ErrorModel.success_probability_array` call, elementwise
        equal to :meth:`expected_goodput_bps`; ``argmax`` keeps the
        first maximum, as ``max`` over the candidates would.
        """
        if snr_hint_db is None or snr_hint_db == self._last_hint:
            return self._last_choice
        goodput = self._rates * self._error_model.success_probability_array(
            snr_hint_db, self._candidate_column, self._subframe_bytes
        )
        best = self._candidates[int(np.argmax(goodput))]
        self._last_choice = best
        self._last_hint = snr_hint_db
        return best

    def feedback(
        self, now_s: float, mcs_index: int, attempted: int, succeeded: int
    ) -> None:
        """The oracle does not learn from feedback."""


#: Rate chain of the vendor (Ralink-style) auto-rate algorithm: single
#: stream rates in ascending order, with the robust two-stream MCS8
#: slotted at its PHY-rate position.
DEFAULT_ARF_CHAIN: List[int] = [0, 8, 1, 2, 3, 4, 5, 6, 7]


class ArfController:
    """Automatic-rate-fallback controller (vendor-driver behaviour).

    The testbed's Ralink RT3572 relied on the vendor rate control, an
    ARF-descendant: step *down* the rate chain after a burst with poor
    delivery, step *up* after a streak of clean bursts.  ARF is
    reactive per burst, so on an aerial channel whose coherence time is
    comparable to the burst interval it perpetually chases a state that
    has already changed — transmitting too high during fade onsets
    (losses) and too low during recoveries (waste).  This is the
    auto-rate behaviour behind the paper's Figures 5-7; the fixed-MCS
    configuration of Fig. 6 beats it by "100% or more".
    """

    def __init__(
        self,
        chain: Optional[Sequence[int]] = None,
        up_streak: int = 8,
        down_threshold: float = 0.6,
        start_index: int = 0,
    ) -> None:
        self._chain = list(chain) if chain is not None else list(DEFAULT_ARF_CHAIN)
        if not self._chain:
            raise ValueError("rate chain must not be empty")
        for idx in self._chain:
            get_mcs(idx)  # validate
        if up_streak < 1:
            raise ValueError("up_streak must be >= 1")
        if not 0.0 < down_threshold <= 1.0:
            raise ValueError("down_threshold must be in (0, 1]")
        if not 0 <= start_index < len(self._chain):
            raise ValueError("start_index out of chain bounds")
        self._position = start_index
        self._up_streak = up_streak
        self._down_threshold = down_threshold
        self._clean_bursts = 0

    @property
    def chain(self) -> List[int]:
        """The configured rate chain (ascending PHY rate)."""
        return list(self._chain)

    @property
    def current_mcs(self) -> int:
        """MCS at the current chain position."""
        return self._chain[self._position]

    def select(self, now_s: float, snr_hint_db: Optional[float] = None) -> int:
        """The current chain position; ARF ignores SNR hints."""
        return self._chain[self._position]

    def feedback(
        self, now_s: float, mcs_index: int, attempted: int, succeeded: int
    ) -> None:
        """Step down on a bad burst, up after ``up_streak`` clean ones."""
        if attempted < 0 or succeeded < 0 or succeeded > attempted:
            raise ValueError(
                f"invalid feedback: attempted={attempted} succeeded={succeeded}"
            )
        if attempted == 0:
            return
        ratio = succeeded / attempted
        if ratio < self._down_threshold:
            self._clean_bursts = 0
            if self._position > 0:
                self._position -= 1
        else:
            self._clean_bursts += 1
            if self._clean_bursts >= self._up_streak:
                self._clean_bursts = 0
                if self._position < len(self._chain) - 1:
                    self._position += 1


class BatchRateController(Protocol):
    """Interface of the replica-batched rate-control algorithms.

    Identical contract to :class:`RateController` but every argument
    and return value is a per-replica ``(R,)`` array; one instance
    carries the state of all R replicas.
    """

    n_replicas: int

    def select(
        self, now_s: float, snr_hint_db: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-replica MCS indices for the next burst."""
        ...

    def feedback(
        self,
        now_s: float,
        mcs_index: np.ndarray,
        attempted: np.ndarray,
        succeeded: np.ndarray,
    ) -> None:
        """Report per-replica burst outcomes (subframe counts)."""
        ...


class BatchFixedMcs:
    """Fixed MCS per replica (one index, or one per replica)."""

    def __init__(self, index, n_replicas: int) -> None:
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        self.n_replicas = n_replicas
        indices = np.broadcast_to(
            np.asarray(index, dtype=np.int64), (n_replicas,)
        ).copy()
        for idx in np.unique(indices):
            get_mcs(int(idx))  # validate
        indices.flags.writeable = False
        self._indices = indices

    def select(
        self, now_s: float, snr_hint_db: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The configured indices (read-only), unconditionally."""
        return self._indices

    def feedback(
        self, now_s: float, mcs_index, attempted, succeeded
    ) -> None:
        """Fixed rate ignores feedback."""


class BatchArfController:
    """Array-state ARF: R independent chain positions stepped at once.

    Transition rules are exactly :class:`ArfController`'s (step down on
    a burst below ``down_threshold``, step up after ``up_streak`` clean
    bursts), applied per replica with NumPy masks.  The algorithm is
    deterministic, so replica r of a batch evolves identically to a
    scalar controller fed the same outcomes.
    """

    def __init__(
        self,
        n_replicas: int,
        chain: Optional[Sequence[int]] = None,
        up_streak: int = 8,
        down_threshold: float = 0.6,
        start_index: int = 0,
    ) -> None:
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        self._chain = np.asarray(
            list(chain) if chain is not None else DEFAULT_ARF_CHAIN,
            dtype=np.int64,
        )
        if self._chain.size == 0:
            raise ValueError("rate chain must not be empty")
        for idx in self._chain:
            get_mcs(int(idx))  # validate
        if up_streak < 1:
            raise ValueError("up_streak must be >= 1")
        if not 0.0 < down_threshold <= 1.0:
            raise ValueError("down_threshold must be in (0, 1]")
        if not 0 <= start_index < self._chain.size:
            raise ValueError("start_index out of chain bounds")
        self.n_replicas = n_replicas
        self._position = np.full(n_replicas, start_index, dtype=np.int64)
        self._up_streak = up_streak
        self._down_threshold = down_threshold
        self._clean_bursts = np.zeros(n_replicas, dtype=np.int64)

    @property
    def chain(self) -> List[int]:
        """The configured rate chain (ascending PHY rate)."""
        return self._chain.tolist()

    @property
    def positions(self) -> np.ndarray:
        """Per-replica chain positions (copy)."""
        return self._position.copy()

    @property
    def current_mcs(self) -> np.ndarray:
        """Per-replica MCS at the current chain positions."""
        return self._chain[self._position]

    def select(
        self, now_s: float, snr_hint_db: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Current per-replica chain MCS; ARF ignores SNR hints."""
        return self._chain[self._position]

    def feedback(
        self,
        now_s: float,
        mcs_index: np.ndarray,
        attempted: np.ndarray,
        succeeded: np.ndarray,
    ) -> None:
        """Apply the per-replica down/up transitions in one pass.

        Inactive replicas (nothing attempted) keep their state.  A
        stored streak is always below ``up_streak`` (reaching it resets
        it), so only this call's clean bursts can step up.
        """
        attempted = np.asarray(attempted, dtype=np.int64)
        succeeded = np.asarray(succeeded, dtype=np.int64)
        # 0 <= succeeded <= attempted, which implies attempted >= 0.
        if (np.minimum(succeeded, attempted - succeeded) < 0).any():
            raise ValueError("invalid feedback: succeeded must be in [0, attempted]")
        active = attempted > 0
        ratio = succeeded / np.maximum(attempted, 1)
        down = active & (ratio < self._down_threshold)
        streak = np.where(down, 0, self._clean_bursts + active)
        up = streak >= self._up_streak
        self._clean_bursts = np.where(up, 0, streak)
        self._position = np.minimum(
            np.maximum(self._position + up - down, 0), self._chain.size - 1
        )


class BatchBestMcsOracle:
    """Array-state genie: per-replica goodput-maximising MCS at the hint.

    Same tie-breaking as :class:`BestMcsOracle` (first candidate wins),
    evaluated as one candidates x replicas matrix per epoch through
    :meth:`ErrorModel.per_array`.
    """

    def __init__(
        self,
        error_model: ErrorModel,
        n_replicas: int,
        phy: PhyConfig = PhyConfig(),
        candidates: Optional[Sequence[int]] = None,
        subframe_bytes: int = 1540,
    ) -> None:
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        self._error_model = error_model
        self._phy = phy
        self._candidates = np.asarray(
            list(candidates) if candidates is not None else DEFAULT_CANDIDATES,
            dtype=np.int64,
        )
        if self._candidates.size == 0:
            raise ValueError("candidate set must not be empty")
        self._rates = np.array(
            [phy.data_rate_bps(int(c)) for c in self._candidates]
        )
        self._subframe_bytes = subframe_bytes
        self.n_replicas = n_replicas
        self._last_choice = np.full(
            n_replicas, self._candidates[0], dtype=np.int64
        )
        self._last_choice.flags.writeable = False
        # Private copy of the hint behind _last_choice (None: no hint yet).
        self._last_hint: Optional[np.ndarray] = None

    @property
    def candidates(self) -> List[int]:
        """The MCS indices the oracle considers."""
        return self._candidates.tolist()

    # The scalar oracle scores one (snr, mcs) pair at a time; the batch
    # oracle evaluates the whole candidates x replicas matrix in one
    # call, so the per-candidate mcs_index parameter has no analogue.
    def expected_goodput_bps(self, snr_db: np.ndarray) -> np.ndarray:  # reprolint: disable=RL105
        """Candidates x replicas matrix of rate x success probability."""
        snr = np.asarray(snr_db, dtype=float)
        success = self._error_model.success_probability_array(
            snr[None, :], self._candidates[:, None], self._subframe_bytes
        )
        return self._rates[:, None] * success

    def select(
        self, now_s: float, snr_hint_db: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-replica goodput-maximising candidates for the hinted SNR.

        The choice is a pure function of the hint, which a campaign
        holds fixed (the memoised mean SNR), so it is recomputed only
        when the hint values change.  The result is read-only.
        """
        if snr_hint_db is None:
            return self._last_choice
        hint = np.asarray(snr_hint_db, dtype=float)
        last = self._last_hint
        if (
            last is not None
            and hint.shape == last.shape
            and (hint == last).all()
        ):
            return self._last_choice
        goodput = self.expected_goodput_bps(hint)
        choice = self._candidates[np.argmax(goodput, axis=0)]
        choice.flags.writeable = False
        self._last_choice = choice
        self._last_hint = hint.copy()
        return choice

    def feedback(
        self, now_s: float, mcs_index, attempted, succeeded
    ) -> None:
        """The oracle does not learn from feedback."""


def scalar_controller(spec: str, error_model: Optional[ErrorModel] = None,
                      phy: Optional[PhyConfig] = None) -> RateController:
    """Build a scalar controller from a spec string.

    Specs: ``"arf"``, ``"fixed:<mcs>"``, ``"oracle"`` — the picklable
    controller naming shared with the replica-batched campaign runner.
    """
    if spec == "arf":
        return ArfController()
    if spec == "oracle":
        return BestMcsOracle(
            error_model if error_model is not None else ErrorModel(),
            phy if phy is not None else PhyConfig(),
        )
    if spec.startswith("fixed:"):
        return FixedMcs(int(spec.split(":", 1)[1]))
    raise ValueError(f"unknown controller spec {spec!r}")


def batch_controller(
    spec: str,
    n_replicas: int,
    error_model: Optional[ErrorModel] = None,
    phy: Optional[PhyConfig] = None,
) -> "BatchRateController":
    """Build the replica-batched controller for a spec string."""
    if spec == "arf":
        return BatchArfController(n_replicas)
    if spec == "oracle":
        return BatchBestMcsOracle(
            error_model if error_model is not None else ErrorModel(),
            n_replicas,
            phy if phy is not None else PhyConfig(),
        )
    if spec.startswith("fixed:"):
        return BatchFixedMcs(int(spec.split(":", 1)[1]), n_replicas)
    raise ValueError(f"unknown controller spec {spec!r}")


@dataclass
class _McsStats:
    """Per-MCS EWMA success statistics kept by Minstrel."""

    ewma_success: float = 0.5
    attempts_window: int = 0
    successes_window: int = 0
    ever_sampled: bool = False


class MinstrelController:
    """Minstrel-HT-style auto rate adaptation.

    Behaviour modelled after the Linux implementation:

    * per-MCS success probability tracked with an EWMA (weight
      ``ewma_level``), refreshed every ``update_interval_s``;
    * a ``lookaround_rate`` fraction of bursts sample a random
      non-optimal MCS to keep statistics alive;
    * between updates the controller transmits at the MCS with the best
      estimated throughput (rate x EWMA success probability).

    No SNR hints are used — exactly why it struggles when the channel
    decorrelates faster than the update interval.

    The lookaround sampler requires an injected ``rng`` drawn from a
    named :class:`~repro.sim.random.RandomStreams` stream; there is no
    default generator (seeded-stream discipline, lint rule RL101).
    """

    def __init__(
        self,
        phy: PhyConfig = PhyConfig(),
        candidates: Optional[Sequence[int]] = None,
        update_interval_s: float = 0.1,
        ewma_level: float = 0.75,
        lookaround_rate: float = 0.1,
        rng: Optional[np.random.Generator] = None,
        subframe_bytes: int = 1540,
    ) -> None:
        if not 0.0 < ewma_level < 1.0:
            raise ValueError("ewma_level must be in (0, 1)")
        if not 0.0 <= lookaround_rate < 1.0:
            raise ValueError("lookaround_rate must be in [0, 1)")
        if update_interval_s <= 0:
            raise ValueError("update_interval_s must be positive")
        self._phy = phy
        self._candidates = (
            list(candidates) if candidates is not None else list(DEFAULT_CANDIDATES)
        )
        if not self._candidates:
            raise ValueError("candidate set must not be empty")
        self._update_interval = update_interval_s
        self._ewma_level = ewma_level
        self._lookaround = lookaround_rate
        if rng is None:
            raise ValueError(
                "MinstrelController requires an injected Generator; draw "
                "one from a named RandomStreams stream, e.g. "
                "streams.get('minstrel')"
            )
        self._rng = rng
        self._subframe_bytes = subframe_bytes
        self._stats: Dict[int, _McsStats] = {i: _McsStats() for i in self._candidates}
        self._last_update = 0.0
        # Start conservatively at the most robust candidate.
        self._current = min(
            self._candidates, key=lambda i: self._phy.data_rate_bps(i)
        )

    # ------------------------------------------------------------------
    @property
    def current_mcs(self) -> int:
        """The MCS the controller currently considers best."""
        return self._current

    def estimated_throughput_bps(self, mcs_index: int) -> float:
        """Rate x EWMA success probability for one candidate."""
        stats = self._stats[mcs_index]
        return self._phy.data_rate_bps(mcs_index) * stats.ewma_success

    # ------------------------------------------------------------------
    def select(self, now_s: float, snr_hint_db: Optional[float] = None) -> int:
        """Best-throughput MCS, or a random lookaround sample."""
        self._maybe_update(now_s)
        if self._rng.random() < self._lookaround:
            others = [i for i in self._candidates if i != self._current]
            if others:
                return int(self._rng.choice(others))
        return self._current

    def feedback(
        self, now_s: float, mcs_index: int, attempted: int, succeeded: int
    ) -> None:
        """Accumulate burst outcomes into the current window."""
        if attempted < 0 or succeeded < 0 or succeeded > attempted:
            raise ValueError(
                f"invalid feedback: attempted={attempted} succeeded={succeeded}"
            )
        stats = self._stats.get(mcs_index)
        if stats is None:
            return
        stats.attempts_window += attempted
        stats.successes_window += succeeded
        self._maybe_update(now_s)

    # ------------------------------------------------------------------
    def _maybe_update(self, now_s: float) -> None:
        if now_s - self._last_update < self._update_interval:
            return
        self._last_update = now_s
        for stats in self._stats.values():
            if stats.attempts_window > 0:
                window_prob = stats.successes_window / stats.attempts_window
                if stats.ever_sampled:
                    stats.ewma_success = (
                        self._ewma_level * stats.ewma_success
                        + (1.0 - self._ewma_level) * window_prob
                    )
                else:
                    stats.ewma_success = window_prob
                    stats.ever_sampled = True
            stats.attempts_window = 0
            stats.successes_window = 0
        self._current = max(self._candidates, key=self.estimated_throughput_bps)

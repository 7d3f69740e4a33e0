"""The paper's two baseline scenarios (Section 4) as ready-made objects.

* **Airplane**: Mdata = 28 MB, v = 10 m/s, rho = 1.11e-4 /m,
  Asector = 500 x 500 m (scanned from 70 m altitude), d0 = 300 m,
  s(d) = 1e6 (-5.56 log2 d + 49).
* **Quadrocopter**: Mdata = 56.2 MB, v = 4.5 m/s, rho = 2.46e-4 /m,
  Asector = 100 x 100 m (scanned from 10 m altitude), d0 = 100 m,
  s(d) = 1e6 (-10.5 log2 d + 73).

A scenario bundles everything the optimiser needs and exposes
convenience constructors for the utility model and optimiser.
:class:`ScenarioSweep` is the columnar form of a one-parameter sweep of
a scenario: one base plus a float64 column of values.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from ..airframe.platform import AIRPLANE, QUADROCOPTER, PlatformSpec
from ..measurements.datasets import (
    AIRPLANE_FIT,
    MIN_SAFE_SEPARATION_M,
    QUADROCOPTER_FIT,
)
from .delay import CommunicationDelayModel
from .failure import ExponentialFailure, FailureModel
from .mission import CameraModel, SectorMission
from .optimizer import DistanceOptimizer, OptimalDecision
from .throughput import LogFitThroughput, ThroughputModel
from .utility import DelayedGratificationUtility

__all__ = [
    "Scenario",
    "ScenarioSweep",
    "airplane_scenario",
    "quadrocopter_scenario",
    "sweep_rows",
]


@dataclass(frozen=True)
class Scenario:
    """One fully-specified delayed-gratification problem instance."""

    name: str
    platform: PlatformSpec
    throughput: ThroughputModel
    mission: SectorMission
    cruise_speed_mps: float
    failure_rate_per_m: float
    contact_distance_m: float
    min_distance_m: float = MIN_SAFE_SEPARATION_M
    #: Override of the mission-derived data size, bits (None = derive).
    data_bits_override: Optional[float] = None

    def __post_init__(self) -> None:
        if self.cruise_speed_mps <= 0:
            raise ValueError("cruise speed must be positive")
        if self.failure_rate_per_m < 0:
            raise ValueError("failure rate must be non-negative")
        if self.min_distance_m <= 0:
            raise ValueError("safety floor must be positive")
        if self.contact_distance_m < self.min_distance_m:
            raise ValueError("contact distance below the safety floor")
        bits = self.data_bits_override
        require_finite(
            (
                self.min_distance_m,
                self.contact_distance_m,
                self.cruise_speed_mps,
                1.0 if bits is None else bits,
                self.failure_rate_per_m,
            )
        )

    # ------------------------------------------------------------------
    @property
    def data_bits(self) -> float:
        """``Mdata`` in bits (mission-derived unless overridden)."""
        if self.data_bits_override is not None:
            return self.data_bits_override
        return self.mission.data_bits

    @property
    def data_megabytes(self) -> float:
        """``Mdata`` in MB."""
        return self.data_bits / 8e6

    def with_data_megabytes(self, mdata_mb: float) -> "Scenario":
        """A copy with the traffic demand overridden (Fig. 9 sweeps)."""
        if mdata_mb <= 0:
            raise ValueError("Mdata must be positive")
        return replace(self, data_bits_override=mdata_mb * 8e6)

    def with_speed(self, speed_mps: float) -> "Scenario":
        """A copy with the cruise speed overridden (Fig. 9 sweeps)."""
        return replace(self, cruise_speed_mps=speed_mps)

    def with_failure_rate(self, rate_per_m: float) -> "Scenario":
        """A copy with the failure rate overridden (Fig. 8 sweeps)."""
        return replace(self, failure_rate_per_m=rate_per_m)

    #: ``with_`` convenience keys -> dataclass fields.  Values given
    #: through a convenience key use mission units (MB, m/s, 1/m, m).
    _ALIASES = {
        "mdata_mb": "data_bits_override",
        "speed_mps": "cruise_speed_mps",
        "rho_per_m": "failure_rate_per_m",
        "d0_m": "contact_distance_m",
        "data_bits": "data_bits_override",
    }

    #: The parameter fields :meth:`cache_key` holds after the throughput
    #: model's key, in key order; the ``data_bits_override`` slot holds
    #: the resolved :attr:`data_bits`.  These are the fields a
    #: :class:`ScenarioSweep` sweeps.
    KEY_FIELDS = (
        "min_distance_m",
        "contact_distance_m",
        "cruise_speed_mps",
        "data_bits_override",
        "failure_rate_per_m",
    )

    def with_(self, **overrides: object) -> "Scenario":
        """A copy with any mix of parameters overridden.

        Accepts both raw dataclass field names and the convenience keys
        every sweep uses: ``mdata_mb`` (MB), ``speed_mps``, ``rho_per_m``,
        ``d0_m``, and ``data_bits``.  This is the one construction path
        the CLI, examples, and experiments share — no more hand-rolled
        ``dataclasses.replace`` with ad-hoc bit/metre conversions.
        """
        fields: dict = {}
        for key, value in overrides.items():
            if key == "mdata_mb":
                if not isinstance(value, numbers.Real) or value <= 0:
                    raise ValueError("Mdata must be positive")
                value = float(value) * 8e6
            field_name = self._ALIASES.get(key, key)
            if field_name not in self.__dataclass_fields__:
                raise TypeError(
                    f"unknown scenario parameter {key!r}; expected one of "
                    f"{sorted(self._ALIASES)} or a Scenario field name"
                )
            fields[field_name] = value
        return replace(self, **fields)

    def cache_key(self) -> "Optional[tuple]":
        """Hashable identity of the solved problem (batch-engine memo).

        ``None`` when the throughput model cannot describe itself — such
        scenarios are solved but never memoised.
        """
        model_key_fn = getattr(self.throughput, "cache_key", None)
        if model_key_fn is None:
            return None
        model_key = model_key_fn()
        if model_key is None:
            return None
        return (model_key,) + _key_values(self)

    # ------------------------------------------------------------------
    def delay_model(self) -> CommunicationDelayModel:
        """The Cdelay model for this scenario."""
        return CommunicationDelayModel(self.throughput, self.min_distance_m)

    def failure_model(self) -> FailureModel:
        """The paper's exponential failure model at this scenario's rho."""
        return ExponentialFailure(self.failure_rate_per_m)

    def utility_model(self) -> DelayedGratificationUtility:
        """U(d) for this scenario."""
        return DelayedGratificationUtility(self.delay_model(), self.failure_model())

    def optimizer(self, grid_step_m: float = 1.0) -> DistanceOptimizer:
        """A ready-to-run optimiser."""
        return DistanceOptimizer(self.utility_model(), grid_step_m=grid_step_m)

    def solve(self) -> OptimalDecision:
        """dopt and its breakdown for the scenario's own parameters.

        Routed through the shared batch engine, so repeated solves of
        the same instance (planners, sweeps, figure regenerators) are
        memoised.  ``self.optimizer().optimize(...)`` remains the
        un-memoised scalar reference path.
        """
        from ..engine import default_engine  # local: core must not cycle

        return default_engine().solve(self)


def _key_attr(name: str) -> str:
    """The attribute a key field's :meth:`Scenario.cache_key` slot reads."""
    return "data_bits" if name == "data_bits_override" else name


#: Reads the :attr:`Scenario.KEY_FIELDS` values of a scenario, in order.
_key_values = attrgetter(*map(_key_attr, Scenario.KEY_FIELDS))


def require_finite(values: Sequence[float]) -> None:
    """Raise for the first non-finite of the :attr:`Scenario.KEY_FIELDS`
    ``values`` (given in key order), naming its field."""
    try:
        if all(map(math.isfinite, values)):
            return
    except TypeError:  # a one-element array value: NumPy decides
        pass
    for name, value in zip(Scenario.KEY_FIELDS, values):
        if not np.isfinite(value).all():
            raise ValueError(f"{_key_attr(name)} must be finite, got {value}")


class ScenarioSweep:
    """One scenario with one key field swept over a float64 column.

    The columnar form of ``[base.with_(**{field: v}) for v in values]``:
    the batch engine reads its parameter columns and memo keys straight
    from ``base`` and ``values``, so no per-value :class:`Scenario` is
    built.  ``field`` is one of :attr:`Scenario.KEY_FIELDS` or a
    :meth:`Scenario.with_` alias of one; it is stored canonicalised,
    with ``mdata_mb`` values converted to bits.  Row ``i`` is exactly
    ``base.with_(**{self.field: float(self.values[i])})``, built on
    demand by indexing or iterating.

    ``Scenario.__post_init__``'s checks, finiteness included, run as one
    mask over the column when the container is built; the first
    offending value raises the error its ``with_`` copy would.
    """

    __slots__ = ("base", "field", "values")

    def __init__(
        self,
        base: Scenario,
        field: str,
        values: "Union[Sequence[float], np.ndarray]",
    ) -> None:
        name = Scenario._ALIASES.get(field, field)
        if name not in Scenario.KEY_FIELDS:
            raise ValueError(
                f"cannot sweep {field!r} as a column; expected one of "
                f"{list(Scenario.KEY_FIELDS)} or an alias of one"
            )
        column = np.asarray(values, dtype=float)
        if column.ndim != 1:
            raise ValueError("sweep values must be one-dimensional")
        if field == "mdata_mb":
            with np.errstate(over="ignore"):  # inf is flagged below
                bits = column * 8e6
            bad = (column <= 0) | ~np.isfinite(bits)
            if bad.any():
                # The first offending value raises ``with_``'s error.
                base.with_(mdata_mb=float(column[np.argmax(bad)]))
            column = bits
        self.base = base
        self.field = name
        self.values = column
        speed = self.column("cruise_speed_mps")
        rho = self.column("failure_rate_per_m")
        d0 = self.column("contact_distance_m")
        dmin = self.column("min_distance_m")
        bad = (
            (speed <= 0)
            | (rho < 0)
            | (dmin <= 0)
            | (d0 < dmin)
            | ~np.isfinite(column)  # the base's own fields are finite
        )
        if bad.any():
            # Building the first offending row raises its error.
            self[int(np.argmax(bad))]

    @property
    def key_slot(self) -> int:
        """Index of the swept value in :meth:`Scenario.cache_key`."""
        return 1 + Scenario.KEY_FIELDS.index(self.field)

    def column(self, name: str) -> np.ndarray:
        """Per-row values of key field ``name``: the swept column, or
        the base's value broadcast (``data_bits_override`` reads the
        resolved :attr:`Scenario.data_bits`)."""
        if name == self.field:
            return self.values
        return np.full(len(self.values), getattr(self.base, _key_attr(name)))

    def take(
        self, indices: "Union[Sequence[int], np.ndarray]"
    ) -> "ScenarioSweep":
        """The sweep of the rows at ``indices``, in that order."""
        return ScenarioSweep(self.base, self.field, self.values[indices])

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def __getitem__(
        self, index: "Union[int, slice]"
    ) -> "Union[Scenario, ScenarioSweep]":
        if isinstance(index, slice):
            return ScenarioSweep(self.base, self.field, self.values[index])
        return self.base.with_(**{self.field: float(self.values[index])})

    def __iter__(self) -> Iterator[Scenario]:
        for index in range(len(self)):
            yield self[index]


def sweep_rows(
    base: Scenario, param: str, values: Iterable[object]
) -> "Union[ScenarioSweep, List[Scenario]]":
    """The scenarios of ``base`` with ``param`` swept over ``values``.

    A :class:`ScenarioSweep` when ``param`` is a key field (or its
    alias) and every value is a real number; otherwise the
    ``base.with_(**{param: value})`` list.  Both hold the same rows.
    """
    if not isinstance(values, np.ndarray):
        values = list(values)
    field = Scenario._ALIASES.get(param, param)
    if field in Scenario.KEY_FIELDS and _real_column(values):
        return ScenarioSweep(base, param, values)
    return [base.with_(**{param: value}) for value in values]


def _real_column(values: "Union[List[object], np.ndarray]") -> bool:
    """Whether ``values`` is a flat run of real numbers."""
    if isinstance(values, np.ndarray):
        return values.ndim == 1 and values.dtype.kind in "iuf"
    return all(issubclass(t, numbers.Real) for t in set(map(type, values)))


def _apply_factory_overrides(
    scenario: Scenario,
    mdata_mb: Optional[float],
    speed_mps: Optional[float],
    rho_per_m: Optional[float],
    d0_m: Optional[float],
) -> Scenario:
    """Uniform keyword-only overrides shared by both baseline factories."""
    overrides = {
        key: value
        for key, value in (
            ("mdata_mb", mdata_mb),
            ("speed_mps", speed_mps),
            ("rho_per_m", rho_per_m),
            ("d0_m", d0_m),
        )
        if value is not None
    }
    return scenario.with_(**overrides) if overrides else scenario


def airplane_scenario(
    *,
    mdata_mb: Optional[float] = None,
    speed_mps: Optional[float] = None,
    rho_per_m: Optional[float] = None,
    d0_m: Optional[float] = None,
) -> Scenario:
    """The paper's airplane baseline (Section 4), with optional overrides."""
    base = Scenario(
        name="airplane",
        platform=AIRPLANE,
        throughput=LogFitThroughput(
            AIRPLANE_FIT.slope_mbps_per_octave, AIRPLANE_FIT.intercept_mbps
        ),
        mission=SectorMission(
            sector_area_m2=500.0 * 500.0, altitude_m=70.0, camera=CameraModel()
        ),
        cruise_speed_mps=10.0,
        failure_rate_per_m=1.11e-4,
        contact_distance_m=300.0,
    )
    return _apply_factory_overrides(base, mdata_mb, speed_mps, rho_per_m, d0_m)


def quadrocopter_scenario(
    *,
    mdata_mb: Optional[float] = None,
    speed_mps: Optional[float] = None,
    rho_per_m: Optional[float] = None,
    d0_m: Optional[float] = None,
) -> Scenario:
    """The paper's quadrocopter baseline (Section 4), with optional overrides."""
    base = Scenario(
        name="quadrocopter",
        platform=QUADROCOPTER,
        throughput=LogFitThroughput(
            QUADROCOPTER_FIT.slope_mbps_per_octave, QUADROCOPTER_FIT.intercept_mbps
        ),
        mission=SectorMission(
            sector_area_m2=100.0 * 100.0, altitude_m=10.0, camera=CameraModel()
        ),
        cruise_speed_mps=4.5,
        failure_rate_per_m=2.46e-4,
        contact_distance_m=100.0,
    )
    return _apply_factory_overrides(base, mdata_mb, speed_mps, rho_per_m, d0_m)

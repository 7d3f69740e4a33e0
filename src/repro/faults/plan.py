"""Fault plans: reproducible, serialisable descriptions of what breaks when.

The paper prices failure analytically — the discount ``δ(d) =
exp(-ρ(d0-d))`` of Eq. 1 — but nothing in the simulator could actually
*experience* an outage or a crash.  A :class:`FaultPlan` closes that
gap: it is the complete, deterministic description of every fault a run
will suffer, so the same ``(seed, plan)`` pair always replays the same
trace.  Plans are plain data (JSON round-trippable) and batchable: a
campaign can carry one plan per replica.

Fault kinds
-----------
``link_outage``
    The radio link delivers nothing during ``[at_s, at_s + duration_s)``.
    Applied through :class:`repro.faults.outage.OutageSchedule` and the
    ``outage=`` hook of :class:`~repro.net.link.WirelessLink` /
    :class:`~repro.net.batchlink.BatchWirelessLink`.
``node_loss``
    The carrier UAV is lost at ``at_s`` (the event the Eq. 1 hazard
    prices).  Loss times can be sampled from the paper's exponential
    model via :func:`repro.faults.injector.sample_crash_distance_m`.
``gps_degradation``
    GPS noise sigmas are multiplied by ``magnitude`` during
    ``[at_s, at_s + duration_s)`` (jamming / canyon multipath), applied
    through :meth:`repro.geo.gps.GpsReceiver.set_degradation`.
``battery_brownout``
    A ``magnitude`` fraction of the *remaining* charge is lost
    instantly at ``at_s`` (cell sag / damaged pack), applied through
    :meth:`repro.airframe.battery.Battery.brownout`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Tuple

import numpy as np

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan"]

#: The fault taxonomy (see docs/ROBUSTNESS.md).
FAULT_KINDS = (
    "link_outage",
    "node_loss",
    "gps_degradation",
    "battery_brownout",
)

#: Kinds that describe a window rather than an instant.
_WINDOW_KINDS = {"link_outage", "gps_degradation"}


@dataclass(frozen=True)
class FaultSpec:
    """One timed fault event.

    ``magnitude`` is kind-specific: a sigma multiplier for
    ``gps_degradation`` (>= 1 degrades), a charge-drop fraction in
    (0, 1] for ``battery_brownout``; unused otherwise.
    """

    kind: str
    at_s: float
    duration_s: float = 0.0
    magnitude: float = 1.0
    #: Which component the fault targets (free-form label; the link
    #: outage schedule filters on it, default ``"link"``).
    target: str = "link"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.at_s < 0:
            raise ValueError(f"fault time must be non-negative: {self.at_s}")
        if self.duration_s < 0:
            raise ValueError(
                f"fault duration must be non-negative: {self.duration_s}"
            )
        if self.kind in _WINDOW_KINDS and self.duration_s <= 0:
            raise ValueError(f"{self.kind} requires a positive duration_s")
        if self.kind == "gps_degradation" and self.magnitude < 1.0:
            raise ValueError("gps_degradation magnitude must be >= 1")
        if self.kind == "battery_brownout" and not 0.0 < self.magnitude <= 1.0:
            raise ValueError(
                "battery_brownout magnitude must be a fraction in (0, 1]"
            )

    @property
    def end_s(self) -> float:
        """End of the fault window (== ``at_s`` for instant faults)."""
        return self.at_s + self.duration_s

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping."""
        return {
            "kind": self.kind,
            "at_s": float(self.at_s),
            "duration_s": float(self.duration_s),
            "magnitude": float(self.magnitude),
            "target": self.target,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=str(payload["kind"]),
            at_s=float(payload["at_s"]),
            duration_s=float(payload.get("duration_s", 0.0)),
            magnitude=float(payload.get("magnitude", 1.0)),
            target=str(payload.get("target", "link")),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded, time-sorted list of fault events.

    The plan *is* the reproducibility contract: the chaos runner, the
    campaign engine and the CLI all take a plan (plus the run seed) and
    promise identical traces for identical inputs.  An empty plan is a
    strict no-op — the fault layer adds no events, consumes no random
    draws and leaves every engine bit-identical to its pre-fault
    behaviour (pinned by ``tests/test_golden_values.py``).
    """

    name: str = "plan"
    seed: int = 0
    faults: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.faults, key=lambda f: (f.at_s, f.kind, f.target))
        )
        object.__setattr__(self, "faults", ordered)

    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """Whether the plan injects nothing."""
        return not self.faults

    def __len__(self) -> int:
        return len(self.faults)

    def kinds(self) -> Dict[str, int]:
        """Count of faults per kind (for reports and metrics)."""
        counts: Dict[str, int] = {}
        for spec in self.faults:
            counts[spec.kind] = counts.get(spec.kind, 0) + 1
        return counts

    def of_kind(self, kind: str) -> Tuple[FaultSpec, ...]:
        """All faults of one kind, in time order."""
        return tuple(f for f in self.faults if f.kind == kind)

    def outage_windows_s(
        self, target: str = "link"
    ) -> Tuple[Tuple[float, float], ...]:
        """``(start, end)`` link-outage windows aimed at ``target``."""
        return tuple(
            (f.at_s, f.end_s)
            for f in self.faults
            if f.kind == "link_outage" and f.target == target
        )

    # ------------------------------------------------------------------
    def add(self, spec: FaultSpec) -> "FaultPlan":
        """A copy of the plan with one more fault."""
        return replace(self, faults=(*self.faults, spec))

    def with_outage(
        self, at_s: float, duration_s: float, target: str = "link"
    ) -> "FaultPlan":
        """Convenience: add one link outage window."""
        return self.add(
            FaultSpec("link_outage", at_s, duration_s, target=target)
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping of the whole plan."""
        return {
            "name": self.name,
            "seed": int(self.seed),
            "faults": [spec.to_dict() for spec in self.faults],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultPlan":
        """Inverse of :meth:`to_dict`."""
        faults = payload.get("faults", [])
        if not isinstance(faults, list):
            raise ValueError("'faults' must be a list of fault specs")
        return cls(
            name=str(payload.get("name", "plan")),
            seed=int(payload.get("seed", 0)),
            faults=tuple(FaultSpec.from_dict(entry) for entry in faults),
        )

    def to_json(self) -> str:
        """The plan as one JSON document."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, document: str) -> "FaultPlan":
        """Parse a plan from :meth:`to_json` output."""
        return cls.from_dict(json.loads(document))

    # ------------------------------------------------------------------
    @classmethod
    def sampled_outages(
        cls,
        rng: np.random.Generator,
        horizon_s: float,
        rate_per_s: float,
        mean_duration_s: float,
        name: str = "sampled",
        seed: int = 0,
        target: str = "link",
    ) -> "FaultPlan":
        """A plan of Poisson-arriving outages with exponential durations.

        ``rng`` must be an injected generator drawn from a named
        :class:`~repro.sim.random.RandomStreams` stream (seeded-stream
        discipline, RL101) — the draw order is arrival time then
        duration, repeated until the horizon is exceeded, so a given
        generator state always yields the same plan.
        """
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if rate_per_s < 0:
            raise ValueError("rate_per_s must be non-negative")
        if mean_duration_s <= 0:
            raise ValueError("mean_duration_s must be positive")
        specs: List[FaultSpec] = []
        if rate_per_s > 0:
            t = 0.0
            while True:
                t += float(rng.exponential(1.0 / rate_per_s))
                if t >= horizon_s:
                    break
                duration = float(rng.exponential(mean_duration_s))
                if duration <= 0:  # pathological draw; keep the plan valid
                    continue
                specs.append(
                    FaultSpec("link_outage", t, duration, target=target)
                )
        return cls(name=name, seed=seed, faults=tuple(specs))


def merge_plans(name: str, plans: Iterable[FaultPlan]) -> FaultPlan:
    """Union of several plans (first plan's seed wins)."""
    plans = list(plans)
    seed = plans[0].seed if plans else 0
    faults: List[FaultSpec] = []
    for plan in plans:
        faults.extend(plan.faults)
    return FaultPlan(name=name, seed=seed, faults=tuple(faults))

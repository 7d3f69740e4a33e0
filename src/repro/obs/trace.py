"""Dependency-free span tracer with sim-time and wall-time stamps.

:class:`Tracer` records a tree of :class:`Span` records — named,
nestable phases of a run (``engine.solve_batch``, ``campaign.shard``,
``kernel.run``, ``chaos.transfer``...).  Every span carries *two*
clocks:

* **wall time** — seconds of host wall-clock spent inside the span,
  read through an injectable ``clock`` callable (defaulting to
  :data:`repro.perf.wall_clock`).  Passing ``clock=None`` produces a
  *deterministic* tracer: wall durations are recorded as ``0.0`` so
  replay-deterministic pipelines (``repro chaos``) can trace without
  breaking their byte-identity guarantees.
* **sim time** — the kernel's simulated ``now_s``, supplied by the
  instrumented code (``sim_start_s`` at entry; ``sim_end_s`` set on the
  handle before exit).

Tracers are deliberately dependency-free, picklable (campaign workers fill one per process
shard) and mergeable: :meth:`Tracer.merge` concatenates span lists with
stable id remapping, and :meth:`Tracer.summary` aggregates by span name
so the merged summary is independent of how spans were sharded across
workers (the worker-count-invariance contract, pinned by the tests).

The instrumented code pays nothing when tracing is off: every hook
hides behind an ``if obs is not None`` guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from ..perf import wall_clock

__all__ = ["Span", "SpanHandle", "Tracer"]


@dataclass
class Span:
    """One named, possibly nested phase of a run."""

    name: str
    span_id: int
    parent_id: Optional[int] = None
    #: Wall-clock duration (0.0 under a deterministic tracer).
    wall_s: float = 0.0
    #: Simulated-time bounds, when the phase runs on the sim clock.
    sim_start_s: Optional[float] = None
    sim_end_s: Optional[float] = None
    #: Free-form, JSON-ready annotations (counts, shard ids, ...).
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def sim_s(self) -> float:
        """Simulated seconds covered by the span (0.0 if untimed)."""
        if self.sim_start_s is None or self.sim_end_s is None:
            return 0.0
        return max(0.0, self.sim_end_s - self.sim_start_s)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable record."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "wall_s": self.wall_s,
            "sim_start_s": self.sim_start_s,
            "sim_end_s": self.sim_end_s,
            "attrs": dict(self.attrs),
        }


class SpanHandle:
    """Context manager returned by :meth:`Tracer.span`.

    Attributes may be added while the span is open (``handle.attrs``)
    and the simulated end time set via :meth:`end_sim` before exit.
    """

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span
        self._t0 = 0.0

    @property
    def attrs(self) -> Dict[str, object]:
        return self.span.attrs

    def annotate(self, **attrs: object) -> "SpanHandle":
        """Attach JSON-ready attributes to the open span."""
        self.span.attrs.update(attrs)
        return self

    def end_sim(self, sim_end_s: float) -> None:
        """Record the simulated time at which the phase ended."""
        self.span.sim_end_s = float(sim_end_s)

    def __enter__(self) -> "SpanHandle":
        clock = self._tracer._clock
        if clock is not None:
            self._t0 = clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        clock = self._tracer._clock
        if clock is not None:
            self.span.wall_s += clock() - self._t0
        self._tracer._close(self.span)


class Tracer:
    """Collects a tree of spans; picklable and mergeable.

    ``clock=None`` makes the tracer deterministic (all wall durations
    0.0); any zero-argument float callable can be injected for tests.
    """

    def __init__(
        self, clock: Optional[Callable[[], float]] = wall_clock
    ) -> None:
        self._clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    # ------------------------------------------------------------------
    @property
    def deterministic(self) -> bool:
        """Whether wall-clock stamping is disabled."""
        return self._clock is None

    def span(
        self,
        name: str,
        sim_start_s: Optional[float] = None,
        **attrs: object,
    ) -> SpanHandle:
        """Open a named span nested under the currently open one."""
        parent = self._stack[-1] if self._stack else None
        record = Span(
            name=name,
            span_id=len(self.spans),
            parent_id=parent,
            sim_start_s=(
                float(sim_start_s) if sim_start_s is not None else None
            ),
            attrs=dict(attrs),
        )
        self.spans.append(record)
        self._stack.append(record.span_id)
        return SpanHandle(self, record)

    def _close(self, span: Span) -> None:
        if self._stack and self._stack[-1] == span.span_id:
            self._stack.pop()

    # ------------------------------------------------------------------
    def merge(self, other: "Tracer") -> "Tracer":
        """Fold another tracer's spans into this one (in place).

        Span ids are offset so identities stay unique; parent links are
        remapped with the same offset, keeping each shard's tree shape.
        """
        offset = len(self.spans)
        for span in other.spans:
            self.spans.append(
                Span(
                    name=span.name,
                    span_id=span.span_id + offset,
                    parent_id=(
                        span.parent_id + offset
                        if span.parent_id is not None
                        else None
                    ),
                    wall_s=span.wall_s,
                    sim_start_s=span.sim_start_s,
                    sim_end_s=span.sim_end_s,
                    attrs=dict(span.attrs),
                )
            )
        return self

    @classmethod
    def merged(cls, parts: Iterable[Optional["Tracer"]]) -> "Tracer":
        """A fresh tracer holding every span of ``parts`` (None-safe)."""
        total = cls(clock=None)
        for part in parts:
            if part is not None:
                total.merge(part)
        return total

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, object]]:
        """Per-name aggregates, sorted by name.

        ``{name: {count, wall_s, sim_s}}``.  Counts and simulated
        durations are invariant to how spans were sharded across
        workers; wall durations are additive but host-dependent.
        """
        out: Dict[str, Dict[str, object]] = {}
        for span in self.spans:
            entry = out.setdefault(
                span.name, {"count": 0, "wall_s": 0.0, "sim_s": 0.0}
            )
            entry["count"] += 1
            entry["wall_s"] += span.wall_s
            entry["sim_s"] += span.sim_s
        return {name: out[name] for name in sorted(out)}

    def deterministic_summary(self) -> Dict[str, Dict[str, object]]:
        """:meth:`summary` without the host-dependent wall durations."""
        return {
            name: {"count": entry["count"], "sim_s": entry["sim_s"]}
            for name, entry in self.summary().items()
        }

    def to_dicts(self) -> List[Dict[str, object]]:
        """Every span as a JSON-ready mapping, in id order."""
        return [span.to_dict() for span in self.spans]

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Tracer(spans={len(self.spans)}, "
            f"deterministic={self.deterministic})"
        )

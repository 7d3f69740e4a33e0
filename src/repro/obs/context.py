"""ObsContext: the one handle instrumented code passes around.

An :class:`ObsContext` bundles the three observability sinks — a
:class:`~repro.obs.trace.Tracer`, a
:class:`~repro.obs.metrics.MetricsRegistry` and an
:class:`~repro.obs.events.EventLog` — so hot paths take a single
``obs: Optional[ObsContext]`` parameter instead of three.

Instrumentation is zero-cost when off: every hook hides behind
``if obs is not None``; a disabled run executes the exact
pre-observability instruction stream.

Contexts are picklable (campaign workers build one per process shard)
and mergeable: :meth:`merge` folds each sink with its own deterministic
combine, so the parent's merged context is invariant to worker count
and pool completion order.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .events import EventLog
from .metrics import MetricsRegistry
from .trace import Tracer

__all__ = ["ObsContext"]


class ObsContext:
    """Tracer + metrics + events, one handle."""

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.events = events

    # ------------------------------------------------------------------
    @classmethod
    def enabled(cls, deterministic: bool = False) -> "ObsContext":
        """A context with all three sinks live.

        ``deterministic=True`` builds the tracer with ``clock=None`` so
        no wall-clock value can reach the output — required wherever a
        byte-identity contract holds (``repro chaos`` replays).
        """
        return cls(
            tracer=Tracer(clock=None) if deterministic else Tracer(),
            metrics=MetricsRegistry(),
            events=EventLog(),
        )

    @property
    def deterministic(self) -> bool:
        """Whether the tracer is wall-clock-free (or absent)."""
        return self.tracer is None or self.tracer.deterministic

    # ------------------------------------------------------------------
    def merge(self, other: Optional["ObsContext"]) -> "ObsContext":
        """Fold another context's sinks into this one (in place).

        Each sink merges with its own deterministic combine (spans
        concatenate with id remapping, counters sum, gauges max,
        fixed-edge histograms sum element-wise, events interleave by
        time), so the result is worker-count invariant.
        """
        if other is None:
            return self
        if other.tracer is not None:
            if self.tracer is None:
                self.tracer = Tracer(clock=None)
            self.tracer.merge(other.tracer)
        if other.metrics is not None:
            if self.metrics is None:
                self.metrics = MetricsRegistry()
            self.metrics.merge(other.metrics)
        if other.events is not None:
            if self.events is None:
                self.events = EventLog()
            self.events.merge(other.events)
        return self

    @classmethod
    def merged(
        cls, parts: Iterable[Optional["ObsContext"]]
    ) -> "ObsContext":
        """A fresh context combining every part (None-safe)."""
        total = cls()
        for part in parts:
            total.merge(part)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        live = [
            name
            for name, sink in (
                ("tracer", self.tracer),
                ("metrics", self.metrics),
                ("events", self.events),
            )
            if sink is not None
        ]
        return f"ObsContext({', '.join(live) or 'disabled'})"

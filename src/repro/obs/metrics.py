"""Typed metrics registry: counters, gauges, fixed-bucket histograms.

:class:`MetricsRegistry` holds every named number a run reports.  Three
instrument types, each *typed by name* (re-registering a name as a
different type raises):

* :class:`Counter` — monotonically accumulated number.  Merge: sum.
* :class:`Gauge` — last-observed value.  Merge: **max** (the only
  order-free combine for last-value semantics, so shard merges stay
  deterministic regardless of pool completion order).
* :class:`Histogram` — counts over **fixed, registration-time bucket
  edges**.  Merge: element-wise sum, refused outright when edges
  differ — the fixed edges are what makes shard merges deterministic
  and associative.

Metric names are dotted paths (``engine.cache.hits``,
``campaign.throughput_mbps``, ``faults.link_outage``); see
``docs/OBSERVABILITY.md`` for the naming conventions.  Registries are
picklable and mergeable, so campaign shards combine deterministically.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metric_name_mismatches",
]

Number = Union[int, float]


class Counter:
    """A monotonically accumulated number (int-preserving)."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, n: Number = 1) -> None:
        """Add ``n`` (negative increments are rejected)."""
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += n

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def to_value(self) -> Number:
        return self.value


class Gauge:
    """A last-observed value; merges deterministically by max.

    An unset gauge is the merge identity (it contributes nothing), so
    a shard that registered a gauge without ever setting it cannot
    clamp negative values from other shards to the 0.0 default.
    """

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: Number) -> None:
        self.value = float(value)

    def merge(self, other: "Gauge") -> None:
        if other.value is None:
            return
        if self.value is None:
            self.value = other.value
        else:
            self.value = max(self.value, other.value)

    def to_value(self) -> float:
        return 0.0 if self.value is None else self.value


class Histogram:
    """Counts over fixed bucket edges (plus an overflow bucket).

    ``edges`` must be strictly increasing; bucket ``i`` counts values
    ``v <= edges[i]`` (first match), the final bucket counts overflow.
    ``sum`` and ``count`` are kept exactly, so totals and means survive
    bucketing.
    """

    kind = "histogram"

    def __init__(self, name: str, edges: Sequence[float]) -> None:
        edges = tuple(float(e) for e in edges)
        if not edges:
            raise ValueError(f"histogram {name!r} needs at least one edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(
                f"histogram {name!r} edges must be strictly increasing"
            )
        self.name = name
        self.edges: Tuple[float, ...] = edges
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.count: int = 0
        self.sum: float = 0.0

    def observe(self, value: Number, n: int = 1) -> None:
        """Record ``value`` (``n`` times)."""
        if n < 0:
            raise ValueError(f"histogram {self.name!r} cannot un-observe")
        self.counts[self._bucket(float(value))] += n
        self.count += n
        self.sum += float(value) * n

    def _bucket(self, value: float) -> int:
        """Index of the bucket holding ``value`` (``v <= edge`` rule)."""
        if value > self.edges[-1]:
            return len(self.edges)
        return bisect_left(self.edges, value)

    def merge(self, other: "Histogram") -> None:
        if other.edges != self.edges:
            raise ValueError(
                f"histogram {self.name!r} edges differ: "
                f"{self.edges} != {other.edges} — fixed edges are the "
                "deterministic-merge contract"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum

    @property
    def mean(self) -> float:
        """Exact mean of observed values (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def to_value(self) -> Dict[str, object]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }


_INSTRUMENTS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Name-typed registry of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def _get(self, name: str, kind: str):
        metric = self._metrics.get(name)
        if metric is not None:
            if metric.kind != kind:
                raise TypeError(
                    f"metric {name!r} is a {metric.kind}, not a {kind}"
                )
            return metric
        return None

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first use)."""
        metric = self._get(name, "counter")
        if metric is None:
            metric = self._metrics[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        metric = self._get(name, "gauge")
        if metric is None:
            metric = self._metrics[name] = Gauge(name)
        return metric

    def histogram(self, name: str, edges: Sequence[float]) -> Histogram:
        """The histogram named ``name`` (edges fixed at registration)."""
        metric = self._get(name, "histogram")
        if metric is None:
            metric = self._metrics[name] = Histogram(name, edges)
        elif metric.edges != tuple(float(e) for e in edges):
            raise ValueError(
                f"histogram {name!r} already registered with edges "
                f"{metric.edges}"
            )
        return metric

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def kinds(self) -> Dict[str, str]:
        """``{name: kind}`` for every registered metric, sorted."""
        return {name: self._metrics[name].kind for name in self.names()}

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def value(self, name: str):
        """The serialised value of one metric (KeyError if absent)."""
        return self._metrics[name].to_value()

    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry into this one (in place, typed)."""
        for name, metric in other._metrics.items():
            mine = self._metrics.get(name)
            if mine is None:
                if metric.kind == "histogram":
                    mine = Histogram(name, metric.edges)
                else:
                    mine = _INSTRUMENTS[metric.kind](name)
                self._metrics[name] = mine
            elif mine.kind != metric.kind:
                raise TypeError(
                    f"cannot merge {metric.kind} into {mine.kind} "
                    f"for metric {name!r}"
                )
            mine.merge(metric)
        return self

    @classmethod
    def merged(
        cls, parts: Iterable[Optional["MetricsRegistry"]]
    ) -> "MetricsRegistry":
        """A fresh registry holding the combination of ``parts``."""
        total = cls()
        for part in parts:
            if part is not None:
                total.merge(part)
        return total

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable report, grouped by instrument type."""
        out: Dict[str, Dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for name in self.names():
            metric = self._metrics[name]
            out[f"{metric.kind}s"][name] = metric.to_value()
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "MetricsRegistry":
        """Inverse of :meth:`to_dict`."""
        registry = cls()
        for name, value in payload.get("counters", {}).items():
            registry.counter(name).inc(value)
        for name, value in payload.get("gauges", {}).items():
            registry.gauge(name).set(value)
        for name, entry in payload.get("histograms", {}).items():
            histogram = registry.histogram(name, entry["edges"])
            histogram.counts = [int(c) for c in entry["counts"]]
            histogram.count = int(entry["count"])
            histogram.sum = float(entry["sum"])
        return registry

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MetricsRegistry({len(self._metrics)} metrics)"


def metric_name_mismatches(
    left: MetricsRegistry,
    right: MetricsRegistry,
    prefix: str = "",
) -> List[str]:
    """RL105-style parity: names (and types) present on one side only.

    Returns human-readable mismatch descriptions; an empty list means
    the two registries expose the same metric surface.  ``prefix``
    restricts the comparison to one namespace (e.g. ``"campaign."``),
    which is how the scalar↔batch campaign parity test ignores metrics
    that legitimately exist on only one side (store and channel-memo
    counters).
    """
    mismatches: List[str] = []
    kinds_l, kinds_r = left.kinds(), right.kinds()
    if prefix:
        kinds_l = {n: k for n, k in kinds_l.items() if n.startswith(prefix)}
        kinds_r = {n: k for n, k in kinds_r.items() if n.startswith(prefix)}
    for name in sorted(set(kinds_l) | set(kinds_r)):
        if name not in kinds_l:
            mismatches.append(f"{name} ({kinds_r[name]}) missing on left")
        elif name not in kinds_r:
            mismatches.append(f"{name} ({kinds_l[name]}) missing on right")
        elif kinds_l[name] != kinds_r[name]:
            mismatches.append(
                f"{name}: {kinds_l[name]} on left, {kinds_r[name]} on right"
            )
    return mismatches

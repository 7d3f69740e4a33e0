"""Observability layer: tracing, metrics, events and run manifests.

The one instrumentation layer of the package.  Four pieces, all
dependency-free, picklable and deterministically mergeable:

* :class:`Tracer` / :class:`Span` — nested span tracing with both
  wall-clock and simulated-time stamps (``clock=None`` for
  byte-identical deterministic pipelines);
* :class:`MetricsRegistry` — typed counters, gauges and fixed-bucket
  histograms with shard-order-invariant merges;
* :class:`EventLog` — bounded structured event record (faults,
  retries, Eq. 2 decision points, kernel drains);
* :class:`RunManifest` — the versioned JSON record of a run (config,
  seeds, git rev, outputs, metrics, trace, events) shared
  by every CLI and library entry point.

:class:`ObsContext` bundles the live sinks into the single optional
handle hot paths accept; the zero-cost rule is ``if obs is not None``
everywhere.  See
``docs/OBSERVABILITY.md`` for the span taxonomy, metric naming rules
and manifest schema.

The manifest summariser behind ``repro obs summarize`` resolves on
first access (PEP 562 ``__getattr__``); nothing on a solve path uses
it.
"""

from .context import ObsContext
from .events import Event, EventLog
from .manifest import (
    MANIFEST_SCHEMA_VERSION,
    ManifestSchemaError,
    RunManifest,
    git_revision,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_name_mismatches,
)
from .trace import Span, SpanHandle, Tracer

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "Counter",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "ManifestSchemaError",
    "MetricsRegistry",
    "ObsContext",
    "RunManifest",
    "Span",
    "SpanHandle",
    "Tracer",
    "git_revision",
    "metric_name_mismatches",
    "summarize_manifest",
    "summarize_manifest_file",
]


def __getattr__(name: str):
    # Literal relative imports keep each edge in the RL108 import graph.
    if name in ("summarize_manifest", "summarize_manifest_file"):
        from . import summarize as source
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(source, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})

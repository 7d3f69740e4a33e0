"""Run manifests: one versioned, JSON-serialisable record per run.

A :class:`RunManifest` is the durable answer to "*why did this run
produce these numbers?*": it captures the configuration echo, the
seeds, the git revision of the checkout, the outputs, and — when
observability was enabled — the metrics, trace summary and event log
of the run.  Every entry point emits one:

* ``repro solve --metrics-out FILE`` writes one;
* ``repro bench --json`` and ``repro chaos --json`` *are* one (their
  stdout is ``RunManifest.to_json()``, byte-identical to what the
  library's :class:`repro.api.RunResult` carries for the same run);
* the campaign benchmark writes one to ``BENCH_obs.json``.

The schema is versioned (:data:`MANIFEST_SCHEMA_VERSION`);
:meth:`RunManifest.from_dict` refuses documents from a different major
version, which is the drift gate the CI obs-smoke job relies on.
Serialisation is deterministic: ``to_json`` sorts keys and contains no
wall-clock timestamps unless the builder recorded them, so
replay-deterministic pipelines print identical bytes across replays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "ManifestSchemaError",
    "RunManifest",
    "git_revision",
]

#: Bumped on any backwards-incompatible change to the manifest layout.
MANIFEST_SCHEMA_VERSION = 1


class ManifestSchemaError(ValueError):
    """A manifest document does not match the supported schema."""


_GIT_REV_CACHE: Dict[str, Optional[str]] = {}


def git_revision(start: Optional[Path] = None) -> Optional[str]:
    """The commit hash of the enclosing checkout, or ``None``.

    Resolved by reading ``.git/HEAD`` (and the ref file or
    ``packed-refs`` it points to) — pure file reads, no subprocess, so
    it is safe to call from library code and deterministic within one
    checkout.  The result is cached per start directory.
    """
    base = Path(start) if start is not None else Path(__file__).resolve()
    key = str(base)
    if key in _GIT_REV_CACHE:
        return _GIT_REV_CACHE[key]
    rev = _read_git_revision(base)
    _GIT_REV_CACHE[key] = rev
    return rev


def _read_git_revision(base: Path) -> Optional[str]:
    for parent in [base, *base.parents]:
        head = parent / ".git" / "HEAD"
        try:
            content = head.read_text(encoding="utf-8").strip()
        except OSError:
            continue
        if not content.startswith("ref:"):
            return content or None
        ref = content.split(":", 1)[1].strip()
        ref_file = parent / ".git" / ref
        try:
            return ref_file.read_text(encoding="utf-8").strip() or None
        except OSError:
            pass
        packed = parent / ".git" / "packed-refs"
        try:
            for line in packed.read_text(encoding="utf-8").splitlines():
                if line.endswith(ref) and not line.startswith("#"):
                    return line.split(" ", 1)[0] or None
        except OSError:
            pass
        return None
    return None


@dataclass
class RunManifest:
    """Versioned record of one run: config, seeds, rev, outputs, obs."""

    #: What kind of run this was (``solve``, ``solve_batch``, ``sweep``,
    #: ``chaos``, ``bench``, ``campaign``, ``experiment``...).
    kind: str
    #: Echo of the run's configuration (scenario parameters, workload).
    config: Dict[str, object] = field(default_factory=dict)
    #: Every seed the run consumed, by name.
    seeds: Dict[str, int] = field(default_factory=dict)
    #: Commit hash of the checkout (None outside a git checkout).
    git_rev: Optional[str] = None
    #: The run's outputs (JSON-ready; shape depends on ``kind``).
    outputs: Dict[str, object] = field(default_factory=dict)
    #: Retired slot kept for schema-v1 compatibility: :meth:`build`
    #: never fills it, so new manifests serialise it as ``null``.
    telemetry: Optional[Dict[str, object]] = None
    #: ``MetricsRegistry.to_dict()`` of the run, when collected.
    metrics: Optional[Dict[str, object]] = None
    #: ``Tracer.summary()`` of the run, when traced.
    trace: Optional[Dict[str, object]] = None
    #: ``EventLog.to_dicts()`` of the run, when logged.
    events: Optional[List[Dict[str, object]]] = None
    #: Wall-clock creation stamp; ``None`` (the default) keeps
    #: deterministic pipelines byte-identical across replays.
    created_unix_s: Optional[float] = None
    schema_version: int = MANIFEST_SCHEMA_VERSION

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        kind: str,
        config: Optional[Dict[str, object]] = None,
        seeds: Optional[Dict[str, int]] = None,
        outputs: Optional[Dict[str, object]] = None,
        obs=None,
        git_rev: Optional[str] = "auto",
    ) -> "RunManifest":
        """Assemble a manifest, serialising any obs context handed in.

        ``obs`` is an :class:`repro.obs.ObsContext` (or None), whose
        sinks are snapshotted into plain dicts here.  ``git_rev="auto"``
        resolves the enclosing checkout; pass ``None`` (or a string) to
        pin it explicitly, e.g. for golden fixtures.
        """
        if git_rev == "auto":
            git_rev = git_revision()
        metrics = trace = events = None
        if obs is not None:
            if obs.metrics is not None and len(obs.metrics):
                metrics = obs.metrics.to_dict()
            if obs.tracer is not None and len(obs.tracer):
                trace = (
                    obs.tracer.deterministic_summary()
                    if obs.tracer.deterministic
                    else obs.tracer.summary()
                )
            if obs.events is not None and len(obs.events):
                events = obs.events.to_dicts()
        return cls(
            kind=kind,
            config=dict(config or {}),
            seeds={k: int(v) for k, v in (seeds or {}).items()},
            git_rev=git_rev,
            outputs=dict(outputs or {}),
            metrics=metrics,
            trace=trace,
            events=events,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The canonical JSON document (stable field set)."""
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "config": self.config,
            "seeds": self.seeds,
            "git_rev": self.git_rev,
            "outputs": self.outputs,
            "telemetry": self.telemetry,
            "metrics": self.metrics,
            "trace": self.trace,
            "events": self.events,
            "created_unix_s": self.created_unix_s,
        }

    def to_json(self) -> str:
        """Deterministic serialisation: sorted keys, no whitespace drift.

        This is the one JSON emitter shared by ``repro bench --json``,
        ``repro chaos --json`` and the campaign benchmark output, so
        CLI and library bytes agree for the same run.
        """
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunManifest":
        """Inverse of :meth:`to_dict`; refuses schema drift."""
        version = payload.get("schema_version")
        if version != MANIFEST_SCHEMA_VERSION:
            raise ManifestSchemaError(
                f"unsupported manifest schema_version {version!r}; "
                f"this build reads version {MANIFEST_SCHEMA_VERSION}"
            )
        if "kind" not in payload:
            raise ManifestSchemaError("manifest document has no 'kind'")
        return cls(
            kind=str(payload["kind"]),
            config=dict(payload.get("config") or {}),
            seeds={
                k: int(v) for k, v in (payload.get("seeds") or {}).items()
            },
            git_rev=payload.get("git_rev"),
            outputs=dict(payload.get("outputs") or {}),
            telemetry=payload.get("telemetry"),
            metrics=payload.get("metrics"),
            trace=payload.get("trace"),
            events=payload.get("events"),
            created_unix_s=payload.get("created_unix_s"),
            schema_version=int(version),
        )

    @classmethod
    def from_json(cls, document: str) -> "RunManifest":
        """Parse a manifest document (see :meth:`from_dict`)."""
        try:
            payload = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ManifestSchemaError(f"not a JSON document: {exc}") from exc
        if not isinstance(payload, dict):
            raise ManifestSchemaError("manifest document must be an object")
        return cls.from_dict(payload)

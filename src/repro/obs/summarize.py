"""Human-readable digests of run manifests (``repro obs summarize``).

Turns a :class:`~repro.obs.manifest.RunManifest` (or its JSON file)
into a short, stable text report: identity line, top trace spans by
wall (or count, for deterministic traces), metric totals and event
kinds.  Line order is deterministic so the output can be
diffed across runs.
"""

from __future__ import annotations

from typing import List

from .manifest import RunManifest

__all__ = ["summarize_manifest", "summarize_manifest_file"]


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def summarize_manifest(manifest: RunManifest, top: int = 10) -> str:
    """A deterministic multi-line digest of one manifest."""
    lines: List[str] = []
    rev = manifest.git_rev[:12] if manifest.git_rev else "none"
    lines.append(
        f"run kind={manifest.kind} "
        f"schema_version={manifest.schema_version} git_rev={rev}"
    )
    if manifest.seeds:
        seeds = " ".join(
            f"{k}={v}" for k, v in sorted(manifest.seeds.items())
        )
        lines.append(f"seeds: {seeds}")
    if manifest.config:
        keys = ", ".join(sorted(manifest.config))
        lines.append(f"config keys: {keys}")

    if manifest.trace:
        lines.append(f"trace: {len(manifest.trace)} span names")
        ranked = sorted(
            manifest.trace.items(),
            key=lambda kv: (
                -float(kv[1].get("wall_s", 0.0)),
                -int(kv[1].get("count", 0)),
                kv[0],
            ),
        )
        for name, entry in ranked[:top]:
            parts = [f"count={entry.get('count', 0)}"]
            if "wall_s" in entry:
                parts.append(f"wall_s={_fmt(entry['wall_s'])}")
            if entry.get("sim_s"):
                parts.append(f"sim_s={_fmt(entry['sim_s'])}")
            lines.append(f"  span {name}: {' '.join(parts)}")

    if manifest.metrics:
        counters = manifest.metrics.get("counters", {})
        gauges = manifest.metrics.get("gauges", {})
        histograms = manifest.metrics.get("histograms", {})
        lines.append(
            f"metrics: {len(counters)} counters, {len(gauges)} gauges, "
            f"{len(histograms)} histograms"
        )
        for name in sorted(counters)[:top]:
            lines.append(f"  counter {name}={_fmt(counters[name])}")
        for name in sorted(gauges)[:top]:
            lines.append(f"  gauge {name}={_fmt(gauges[name])}")
        for name in sorted(histograms)[:top]:
            entry = histograms[name]
            count = entry.get("count", 0)
            mean = (
                float(entry.get("sum", 0.0)) / count if count else 0.0
            )
            lines.append(
                f"  histogram {name}: count={count} mean={_fmt(mean)}"
            )

    if manifest.events:
        kinds = {}
        for event in manifest.events:
            kind = event.get("kind", "?")
            kinds[kind] = kinds.get(kind, 0) + 1
        lines.append(f"events: {len(manifest.events)} recorded")
        for kind in sorted(kinds):
            lines.append(f"  event {kind} x{kinds[kind]}")

    if manifest.outputs:
        keys = ", ".join(sorted(manifest.outputs))
        lines.append(f"output keys: {keys}")
    return "\n".join(lines)


def summarize_manifest_file(path: str, top: int = 10) -> str:
    """Read a manifest JSON file and digest it (see above)."""
    with open(path, "r", encoding="utf-8") as handle:
        manifest = RunManifest.from_json(handle.read())
    return summarize_manifest(manifest, top=top)

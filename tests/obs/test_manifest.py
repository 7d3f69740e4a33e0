"""Tests for RunManifest: schema, round trips, the golden fixture."""

import json
import pickle

import pytest

from repro.obs import (
    MANIFEST_SCHEMA_VERSION,
    ManifestSchemaError,
    ObsContext,
    RunManifest,
    git_revision,
)

#: The pinned serialisation of a fully deterministic manifest.  Any
#: change to these bytes is a manifest schema change and must bump
#: MANIFEST_SCHEMA_VERSION (and this fixture) deliberately.
GOLDEN = (
    '{"config": {"d0_m": 300.0, "scenario": "golden"}, '
    '"created_unix_s": null, '
    '"events": [{"defer": true, "distance_m": 120.0, '
    '"kind": "decision.eq2", "time_s": 0.0}], '
    '"git_rev": null, "kind": "solve", '
    '"metrics": {"counters": {"engine.cache.misses": 1}, '
    '"gauges": {}, "histograms": {}}, '
    '"outputs": {"distance_m": 120.0, "utility": 0.05}, '
    '"schema_version": 1, "seeds": {"campaign": 1}, '
    '"telemetry": null, '
    '"trace": {"engine.solve": {"count": 1, "sim_s": 0.0}}}'
)


def golden_manifest() -> RunManifest:
    obs = ObsContext.enabled(deterministic=True)
    with obs.tracer.span("engine.solve"):
        pass
    obs.metrics.counter("engine.cache.misses").inc()
    obs.events.emit("decision.eq2", 0.0, distance_m=120.0, defer=True)
    return RunManifest.build(
        kind="solve",
        config={"scenario": "golden", "d0_m": 300.0},
        seeds={"campaign": 1},
        outputs={"distance_m": 120.0, "utility": 0.05},
        obs=obs,
        git_rev=None,
    )


class TestGolden:
    def test_serialisation_matches_pinned_bytes(self):
        assert golden_manifest().to_json() == GOLDEN

    def test_round_trip_from_golden_bytes(self):
        manifest = RunManifest.from_json(GOLDEN)
        assert manifest.kind == "solve"
        assert manifest.to_json() == GOLDEN

    def test_rebuild_is_deterministic(self):
        assert golden_manifest().to_json() == golden_manifest().to_json()


class TestSchema:
    def test_version_constant(self):
        assert golden_manifest().schema_version == MANIFEST_SCHEMA_VERSION

    def test_future_version_refused(self):
        payload = json.loads(GOLDEN)
        payload["schema_version"] = MANIFEST_SCHEMA_VERSION + 1
        with pytest.raises(ManifestSchemaError):
            RunManifest.from_dict(payload)

    def test_missing_kind_refused(self):
        payload = json.loads(GOLDEN)
        del payload["kind"]
        with pytest.raises((ManifestSchemaError, ValueError)):
            RunManifest.from_dict(payload)


class TestBuild:
    def test_disabled_obs_leaves_sinks_null(self):
        manifest = RunManifest.build(
            kind="solve", config={}, outputs={}, git_rev=None
        )
        payload = manifest.to_dict()
        assert payload["metrics"] is None
        assert payload["trace"] is None
        assert payload["events"] is None

    def test_empty_sinks_are_omitted(self):
        obs = ObsContext.enabled(deterministic=True)
        manifest = RunManifest.build(
            kind="solve", config={}, outputs={}, obs=obs, git_rev=None
        )
        payload = manifest.to_dict()
        assert payload["metrics"] is None
        assert payload["trace"] is None

    def test_git_rev_auto_reads_head(self):
        rev = git_revision()
        manifest = RunManifest.build(kind="solve", config={}, outputs={})
        assert manifest.git_rev == rev
        if rev is not None:  # running inside this repo's checkout
            assert len(rev) == 40

    def test_git_rev_cache_resolves_no_path(self, monkeypatch):
        """Once read, the module checkout's revision is served from the
        cache without resolving any path."""
        from pathlib import Path

        rev = git_revision()

        def no_resolve(self, strict=False):
            raise AssertionError("git_revision resolved a path")

        monkeypatch.setattr(Path, "resolve", no_resolve)
        assert git_revision() == rev
        manifest = RunManifest.build(kind="solve", config={}, outputs={})
        assert manifest.git_rev == rev

    def test_pickle_round_trip(self):
        manifest = golden_manifest()
        clone = pickle.loads(pickle.dumps(manifest))
        assert clone.to_json() == manifest.to_json()

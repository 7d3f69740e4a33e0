"""Cache-key derivation: canonical JSON + code fingerprints."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.store import canonical_json, code_fingerprint, config_key
from repro.store import fingerprint as fp_module


class TestCanonicalJson:
    def test_key_order_is_canonical(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )

    def test_compact_separators(self):
        assert canonical_json({"a": [1, 2]}) == '{"a":[1,2]}'

    def test_floats_round_trip_exactly(self):
        import json

        value = 2.46e-4
        assert json.loads(canonical_json(value)) == value

    def test_nan_is_rejected(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))


class TestCodeFingerprint:
    def test_deterministic_across_calls(self):
        modules = ("repro.core.optimizer",)
        assert code_fingerprint(modules) == code_fingerprint(modules)

    def test_distinct_module_sets_differ(self):
        assert code_fingerprint(("repro.core.optimizer",)) != code_fingerprint(
            ("repro.core.utility",)
        )

    def test_missing_module_hashes_instead_of_raising(self):
        first = code_fingerprint(("repro.no_such_module_xyz",))
        assert first == code_fingerprint(("repro.no_such_module_xyz",))
        assert first != code_fingerprint(("repro.core.optimizer",))

    def test_source_change_invalidates(self, tmp_path, monkeypatch):
        """Editing a producing module's source changes its fingerprint."""
        probe = tmp_path / "repro_fp_probe.py"
        probe.write_text(
            textwrap.dedent(
                """
                def answer():
                    return 42
                """
            )
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.delitem(sys.modules, "repro_fp_probe", raising=False)
        modules = ("repro_fp_probe",)
        before = code_fingerprint(modules)
        probe.write_text(
            textwrap.dedent(
                """
                def answer():
                    return 43  # a fixed bug must invalidate entries
                """
            )
        )
        monkeypatch.setattr(fp_module, "_CODE_FP_CACHE", {})
        assert code_fingerprint(modules) != before
        monkeypatch.delitem(sys.modules, "repro_fp_probe", raising=False)


class TestConfigKey:
    MODULES = ("repro.core.optimizer",)

    def test_stable(self):
        key = config_key("test.kind", {"x": 1.5}, self.MODULES)
        assert key == config_key("test.kind", {"x": 1.5}, self.MODULES)
        assert len(key) == 64  # hex SHA-256

    def test_kind_and_config_participate(self):
        base = config_key("test.kind", {"x": 1.5}, self.MODULES)
        assert config_key("test.other", {"x": 1.5}, self.MODULES) != base
        assert config_key("test.kind", {"x": 2.5}, self.MODULES) != base

    def test_extra_bytes_participate(self):
        base = config_key("test.kind", {"x": 1}, self.MODULES)
        assert config_key(
            "test.kind", {"x": 1}, self.MODULES, extra_bytes=b"\x00"
        ) != base

    def test_schema_version_participates(self, monkeypatch):
        base = config_key("test.kind", {"x": 1}, self.MODULES)
        monkeypatch.setattr(
            fp_module,
            "STORE_SCHEMA_VERSION",
            fp_module.STORE_SCHEMA_VERSION + 1,
        )
        assert config_key("test.kind", {"x": 1}, self.MODULES) != base


#: Prints the child process's active SIMD targets and one store key.
_CHILD = (
    "import json\n"
    "from repro.store.fingerprint import config_key, numpy_build\n"
    "print(json.dumps([numpy_build(),"
    " config_key('test.kind', {'x': 1}, ('repro.core.optimizer',))]))\n"
)

#: What an AVX2-only host runs: NumPy's AVX-512 dispatch targets off.
_AVX2_ONLY = "X86_V4 AVX512_ICL AVX512_SPR"


def _child_build_and_key(disable):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(repro.__file__).parents[1]),
                    env.get("PYTHONPATH")) if p
    )
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disable:
        env["NPY_DISABLE_CPU_FEATURES"] = disable
    out = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, check=True,
        capture_output=True, text=True, timeout=120,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


class TestNumpyBuild:
    MODULES = ("repro.core.optimizer",)

    def test_names_the_version_and_active_targets(self):
        import numpy

        build = fp_module.numpy_build()
        assert build["version"] == numpy.__version__
        assert build["simd"] == [
            t for t in numpy._core._multiarray_umath.__cpu_dispatch__
            if numpy._core._multiarray_umath.__cpu_features__[t]
        ]
        assert fp_module.numpy_build() is build  # once per process

    def test_build_participates(self, monkeypatch):
        base = config_key("test.kind", {"x": 1}, self.MODULES)
        build = dict(fp_module.numpy_build(), version="0.0.0")
        monkeypatch.setattr(fp_module, "numpy_build", lambda: build)
        assert config_key("test.kind", {"x": 1}, self.MODULES) != base

    def test_keys_follow_the_simd_path(self):
        """A child with AVX-512 dispatch off keys differently exactly when
        its active targets differ (so this also holds on AVX2 hosts)."""
        plain_build, plain_key = _child_build_and_key(None)
        build, key = _child_build_and_key(_AVX2_ONLY)
        here = fp_module.numpy_build()
        base = config_key("test.kind", {"x": 1}, self.MODULES)
        if os.environ.get("NPY_DISABLE_CPU_FEATURES") is None:
            assert (plain_build, plain_key) == (here, base)
        assert build["version"] == plain_build["version"]
        assert not set(build["simd"]) & {"X86_V4", "AVX512_ICL", "AVX512_SPR"}
        assert (key != plain_key) == (build["simd"] != plain_build["simd"])

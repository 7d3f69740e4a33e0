"""The whole-program rules: RL108, RL109, RL110."""

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import lint_sources

# A minimal tree whose solver entry imports exactly one module, with a
# fingerprint tuple that covers it.  Paths use the same coordinates as
# the real package (``engine/batch.py`` → ``repro.engine.batch``).
COMPLETE_TREE = {
    "engine/batch.py": "from ..core.delay import delay\n",
    "core/delay.py": "def delay(): ...\n",
    "store/fingerprint.py": (
        "SOLVER_CODE_MODULES = (\n"
        '    "repro.engine.batch",\n'
        '    "repro.core.delay",\n'
        ")\n"
    ),
}


def _without(tree, tuple_entry):
    edited = dict(tree)
    edited["store/fingerprint.py"] = edited["store/fingerprint.py"].replace(
        f'    "{tuple_entry}",\n', ""
    )
    return edited


class TestRL108FingerprintCompleteness:
    def test_complete_tuple_is_clean(self):
        report = lint_sources(COMPLETE_TREE, rules=["RL108"])
        assert report.ok
        assert report.findings == []

    def test_missing_closure_module_is_an_error(self):
        report = lint_sources(
            _without(COMPLETE_TREE, "repro.core.delay"), rules=["RL108"]
        )
        assert not report.ok
        (finding,) = report.new_findings
        assert finding.rule == "RL108"
        assert finding.severity == "error"
        assert finding.path == "store/fingerprint.py"
        assert "'repro.core.delay'" in finding.message
        assert "stale-cache" in finding.message

    def test_transitive_closure_is_required(self):
        tree = dict(COMPLETE_TREE)
        tree["core/delay.py"] = "from ..geo.coords import dist\n"
        tree["geo/coords.py"] = "def dist(): ...\n"
        report = lint_sources(tree, rules=["RL108"])
        assert [f.severity for f in report.new_findings] == ["error"]
        assert "'repro.geo.coords'" in report.new_findings[0].message

    def test_dead_entry_is_a_warning_only(self):
        tree = dict(COMPLETE_TREE)
        tree["store/fingerprint.py"] = tree["store/fingerprint.py"].replace(
            ")\n", '    "repro.mac",\n)\n'
        )
        report = lint_sources(tree, rules=["RL108"])
        assert report.ok  # warnings never fail the build
        (finding,) = report.warnings
        assert finding.severity == "warning"
        assert "'repro.mac'" in finding.message
        assert "matches nothing" in finding.message

    def test_prefix_entry_covers_subtree(self):
        tree = dict(COMPLETE_TREE)
        tree["core/delay.py"] = "from .optimizer import solve\n"
        tree["core/optimizer.py"] = "def solve(): ...\n"
        tree["store/fingerprint.py"] = (
            'SOLVER_CODE_MODULES = (\n    "repro.engine.batch",\n'
            '    "repro.core",\n)\n'
        )
        # core/__init__.py absent: "repro.core" covers core.* by prefix.
        report = lint_sources(tree, rules=["RL108"])
        assert report.findings == []

    def test_shim_inits_and_pruned_layers_exempt(self):
        tree = dict(COMPLETE_TREE)
        tree["engine/batch.py"] = (
            "from ..core.delay import delay\n"
            "from ..obs import trace\n"
            "from ..store.results import ResultStore\n"
        )
        tree["core/__init__.py"] = "from .delay import delay\n"  # shim
        tree["obs/__init__.py"] = "def trace(): ...\n"
        tree["store/results.py"] = "class ResultStore: ...\n"
        report = lint_sources(tree, rules=["RL108"])
        assert report.findings == []

    def test_live_mutation_fails_the_real_tree(self, tmp_path):
        """Acceptance check: deleting a SOLVER_CODE_MODULES entry from a
        copy of the real package makes ``repro lint`` fail, naming the
        uncovered module."""
        from repro.analysis import default_root

        root = tmp_path / "repro"
        shutil.copytree(
            default_root(), root, ignore=shutil.ignore_patterns("__pycache__")
        )
        fingerprint = root / "store" / "fingerprint.py"
        text = fingerprint.read_text()
        assert '"repro.core.delay",' in text
        fingerprint.write_text(text.replace('    "repro.core.delay",\n', ""))

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).resolve().parent.parent)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "lint",
                "--path", str(root), "--no-baseline",
                "--rule", "RL108",
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
        )
        assert result.returncode == 1, result.stdout + result.stderr
        assert "repro.core.delay" in result.stdout
        assert "stale-cache" in result.stdout

    def test_live_relay_tuple_mutation_fails_the_real_tree(self, tmp_path):
        """Acceptance check for RELAY_CODE_MODULES: the relay solver's
        import closure (entry ``repro.relay.batch``) reaches
        ``repro.relay.chain``, so deleting that entry from a copy of
        the real package must fail ``repro lint`` naming it."""
        from repro.analysis import default_root

        root = tmp_path / "repro"
        shutil.copytree(
            default_root(), root, ignore=shutil.ignore_patterns("__pycache__")
        )
        fingerprint = root / "store" / "fingerprint.py"
        text = fingerprint.read_text()
        assert text.count('    "repro.relay.chain",\n') == 1
        fingerprint.write_text(
            text.replace('    "repro.relay.chain",\n', "")
        )

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).resolve().parent.parent)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "lint",
                "--path", str(root), "--no-baseline",
                "--rule", "RL108",
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
        )
        assert result.returncode == 1, result.stdout + result.stderr
        assert "repro.relay.chain" in result.stdout
        assert "stale-cache" in result.stdout


BAD_SINK = textwrap.dedent(
    """
    import time
    from repro.store import config_key

    def key_for(config):
        started = time.time()
        return config_key("solve", {"config": config, "at": started})
    """
)


class TestRL109DeterminismTaint:
    def test_clock_into_store_key_flagged(self):
        report = lint_sources({"engine/cache.py": BAD_SINK}, rules=["RL109"])
        (finding,) = report.new_findings
        assert finding.rule == "RL109"
        assert "time.time" in finding.message
        assert "repro.perf" in finding.message

    def test_sanctioned_perf_clock_clean(self):
        source = BAD_SINK.replace("import time", "").replace(
            "time.time()", "0.0"
        ) + "\nfrom repro.perf import wall_clock\nt = wall_clock()\n"
        report = lint_sources({"engine/cache.py": source}, rules=["RL109"])
        assert report.findings == []

    def test_manifest_sink_flagged(self):
        source = textwrap.dedent(
            """
            import os
            from repro.obs.manifest import RunManifest

            def describe(result):
                host = os.environ.get("HOSTNAME")
                return RunManifest.build(kind="solve", extra={"host": host})
            """
        )
        report = lint_sources({"engine/cache.py": source}, rules=["RL109"])
        (finding,) = report.new_findings
        assert "os.environ" in finding.message
        assert "RunManifest" in finding.message

    def test_return_taint_in_fingerprinted_module_flagged(self):
        tree = {
            "engine/batch.py": (
                "import random\n"
                "def solve(scenario):\n"
                "    jitter = random.random()\n"
                "    return jitter\n"
            ),
            "store/fingerprint.py": (
                'SOLVER_CODE_MODULES = ("repro.engine.batch",)\n'
            ),
        }
        report = lint_sources(tree, rules=["RL109"])
        (finding,) = report.new_findings
        assert "'solve'" in finding.message
        assert "repro.engine.batch" in finding.message
        assert "stdlib `random`" in finding.message

    def test_return_taint_outside_fingerprint_not_flagged(self):
        # Same code, but the module is not cacheable: returning a
        # wall-clock value is fine outside the store's reach.
        tree = {
            "report/timing.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.monotonic()\n"
            ),
            "store/fingerprint.py": (
                'SOLVER_CODE_MODULES = ("repro.engine.batch",)\n'
            ),
        }
        report = lint_sources(tree, rules=["RL109"])
        assert report.findings == []

    def test_taint_flows_through_assignment_chains(self):
        source = textwrap.dedent(
            """
            import time
            from repro.store import config_key

            def key_for(config):
                t0 = time.monotonic()
                elapsed = t0 * 1000.0
                return config_key("solve", {"ms": elapsed})
            """
        )
        report = lint_sources({"engine/cache.py": source}, rules=["RL109"])
        assert len(report.new_findings) == 1
        assert "time.monotonic" in report.new_findings[0].message

    def test_reassignment_clears_taint(self):
        source = textwrap.dedent(
            """
            import time
            from repro.store import config_key

            def key_for(config):
                t = time.monotonic()
                t = 0.0
                return config_key("solve", {"t": t})
            """
        )
        report = lint_sources({"engine/cache.py": source}, rules=["RL109"])
        assert report.findings == []


def _hot(body):
    """Wrap a function body into the hot-path module RL110 watches."""
    return {"sim/kernel.py": textwrap.dedent(body)}


class TestRL110ObsGuardDiscipline:
    def test_unguarded_use_flagged(self):
        report = lint_sources(
            _hot(
                """
                def step(state, obs=None):
                    obs.metrics.counter("sim.steps")
                    return state
                """
            ),
            rules=["RL110"],
        )
        (finding,) = report.new_findings
        assert finding.rule == "RL110"
        assert "obs.metrics" in finding.message

    @pytest.mark.parametrize(
        "body",
        [
            # The canonical if-guard.
            """
            def step(state, obs=None):
                if obs is not None:
                    obs.metrics.counter("sim.steps")
                return state
            """,
            # Early return.
            """
            def step(state, obs=None):
                if obs is None:
                    return state
                obs.metrics.counter("sim.steps")
                return state
            """,
            # and-chain.
            """
            def step(state, obs=None):
                _ = obs is not None and obs.metrics.counter("sim.steps")
                return state
            """,
            # Ternary.
            """
            def step(state, obs=None):
                span = obs.trace.span("step") if obs is not None else None
                return state, span
            """,
            # Flag variable derived from the test.
            """
            def step(state, obs=None):
                tracing = obs is not None
                if tracing:
                    obs.metrics.counter("sim.steps")
                return state
            """,
            # Compound guard (or-chain early return, De Morgan).
            """
            def step(state, obs=None):
                if obs is None or state is None:
                    return state
                obs.metrics.counter("sim.steps")
                return state
            """,
        ],
        ids=["if-guard", "early-return", "and-chain", "ternary",
             "flag-var", "or-early-return"],
    )
    def test_guarded_variants_clean(self, body):
        report = lint_sources(_hot(body), rules=["RL110"])
        assert report.findings == [], [f.message for f in report.findings]

    def test_required_obs_param_exempt(self):
        report = lint_sources(
            _hot(
                """
                def step(state, obs):
                    obs.metrics.counter("sim.steps")
                    return state
                """
            ),
            rules=["RL110"],
        )
        assert report.findings == []

    def test_constructed_obs_exempt(self):
        report = lint_sources(
            _hot(
                """
                def step(state):
                    obs = make_context()
                    obs.metrics.counter("sim.steps")
                    return state
                """
            ),
            rules=["RL110"],
        )
        assert report.findings == []

    def test_non_hot_path_file_exempt(self):
        report = lint_sources(
            {
                "report/tables.py": textwrap.dedent(
                    """
                    def render(rows, obs=None):
                        obs.metrics.counter("tables")
                        return rows
                    """
                )
            },
            rules=["RL110"],
        )
        assert report.findings == []

    def test_use_before_early_return_still_flagged(self):
        report = lint_sources(
            _hot(
                """
                def step(state, obs=None):
                    obs.metrics.counter("sim.steps")
                    if obs is None:
                        return state
                    return state
                """
            ),
            rules=["RL110"],
        )
        assert len(report.new_findings) == 1

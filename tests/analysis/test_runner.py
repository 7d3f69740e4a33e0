"""The lint runner: one walk per file, --changed, baseline discovery, SARIF."""

import ast
import json
import subprocess

import pytest

from repro.analysis import (
    default_baseline_path,
    lint_sources,
    run_lint,
    sarif_report,
    write_sarif,
)

TREE = {
    "core/delay.py": "def delay(x_m):\n    return x_m * 2.0\n",
    "engine/batch.py": "from ..core.delay import delay\n",
    "phy/sampler.py": (
        "import numpy as np\n\nrng = np.random.default_rng(0)\n"
    ),
    "sim/clocked.py": "import time\n\ndef now():\n    return time.time()\n",
}


@pytest.fixture
def tree(tmp_path):
    root = tmp_path / "pkg"
    for relative, source in TREE.items():
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return root


class TestOneWalkPerFile:
    def test_each_module_tree_is_walked_exactly_once(self, monkeypatch):
        # Every rule reads ModuleInfo.nodes; a whole-module ast.walk or
        # NodeVisitor pass anywhere else multiplies the per-file cost.
        sources = dict(
            TREE,
            **{
                "store/incremental.py": (
                    "def put(path, obs=None):\n"
                    "    obs.metrics.counter('x').inc()\n"
                    "    open(path, 'w')\n"
                ),
                "store/fingerprint.py": (
                    "SOLVER_CODE_MODULES = ('repro.core.delay',)\n"
                ),
            },
        )
        walked = []
        real_walk, real_visit = ast.walk, ast.NodeVisitor.visit

        def counting_walk(node):
            if isinstance(node, ast.Module):
                walked.append(node)
            return real_walk(node)

        def counting_visit(self, node):
            if isinstance(node, ast.Module):
                walked.append(node)
            return real_visit(self, node)

        monkeypatch.setattr(ast, "walk", counting_walk)
        monkeypatch.setattr(ast.NodeVisitor, "visit", counting_visit)
        report = lint_sources(sources)

        assert report.checked_files == len(sources)
        assert {f.rule for f in report.findings} >= {
            "RL101", "RL102", "RL107", "RL110",
        }
        assert len(walked) == len(sources)
        assert len({id(tree) for tree in walked}) == len(sources)


def _git(root, *args):
    subprocess.run(
        ["git", "-C", str(root), *args], check=True, capture_output=True
    )


class TestChangedOnly:
    def test_changed_filters_to_modified_files(self, tree):
        _git(tree, "init", "-q")
        _git(tree, "-c", "user.email=t@e.st", "-c", "user.name=t",
             "commit", "-q", "--allow-empty", "-m", "seed")
        _git(tree, "add", ".")
        _git(tree, "-c", "user.email=t@e.st", "-c", "user.name=t",
             "commit", "-q", "-m", "tree")

        full = run_lint(root=tree, use_baseline=False)
        assert len(full.new_findings) >= 2  # phy + sim violations

        # Nothing modified: a --changed run reports nothing.
        clean = run_lint(
            root=tree, use_baseline=False, changed_only=True
        )
        assert clean.changed_only is True
        assert clean.new_findings == []

        # Touch one offending file: only its findings are reported.
        target = tree / "sim" / "clocked.py"
        target.write_text(target.read_text() + "\nt2 = time.time()\n")
        report = run_lint(
            root=tree, use_baseline=False, changed_only=True
        )
        assert report.changed_only is True
        assert {f.path for f in report.new_findings} == {"sim/clocked.py"}

    def test_untracked_files_count_as_changed(self, tree):
        _git(tree, "init", "-q")
        _git(tree, "add", ".")
        _git(tree, "-c", "user.email=t@e.st", "-c", "user.name=t",
             "commit", "-q", "-m", "tree")
        fresh = tree / "net" / "fresh.py"
        fresh.parent.mkdir()
        fresh.write_text("from time import monotonic\nt = monotonic()\n")

        report = run_lint(
            root=tree, use_baseline=False, changed_only=True
        )
        assert {f.path for f in report.new_findings} == {"net/fresh.py"}

    def test_outside_git_falls_back_to_full_run(self, tree):
        # tmp trees are not checkouts: --changed degrades to a full
        # report rather than silently reporting nothing.
        report = run_lint(
            root=tree, use_baseline=False, changed_only=True
        )
        assert report.changed_only is False
        assert len(report.new_findings) >= 2


class TestBaselineDiscovery:
    def test_deeply_nested_root_finds_repo_baseline(
        self, tmp_path, monkeypatch
    ):
        # Regression: discovery used to cap the upward walk at four
        # ancestors, missing baselines above deeply nested lint roots.
        repo = tmp_path / "repo"
        root = repo / "a" / "b" / "c" / "d" / "e" / "src" / "pkg"
        root.mkdir(parents=True)
        baseline = repo / ".reprolint-baseline.json"
        baseline.write_text('{"version": 1, "entries": []}')
        monkeypatch.chdir(tmp_path)  # cwd has no baseline of its own
        assert default_baseline_path(root) == baseline

    def test_cwd_baseline_wins(self, tmp_path, monkeypatch):
        workdir = tmp_path / "work"
        workdir.mkdir()
        near = workdir / ".reprolint-baseline.json"
        near.write_text('{"version": 1, "entries": []}')
        root = tmp_path / "repo" / "src" / "pkg"
        root.mkdir(parents=True)
        far = tmp_path / "repo" / ".reprolint-baseline.json"
        far.write_text('{"version": 1, "entries": []}')
        monkeypatch.chdir(workdir)
        assert default_baseline_path(root) == near

    def test_no_baseline_anywhere(self, tmp_path, monkeypatch):
        root = tmp_path / "src" / "pkg"
        root.mkdir(parents=True)
        monkeypatch.chdir(tmp_path)
        assert default_baseline_path(root) is None


class TestSarif:
    def test_document_shape(self):
        report = lint_sources(
            {"sim/clocked.py": "import time\nt = time.time()\n"}
        )
        document = sarif_report(report)
        assert document["version"] == "2.1.0"
        (run,) = document["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "reprolint"
        rule_ids = [rule["id"] for rule in driver["rules"]]
        assert "RL102" in rule_ids and "RL108" in rule_ids
        (result,) = run["results"]
        assert result["ruleId"] == "RL102"
        assert result["level"] == "error"
        assert driver["rules"][result["ruleIndex"]]["id"] == "RL102"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "sim/clocked.py"
        assert location["region"]["startLine"] == 2
        assert len(result["partialFingerprints"]["reprolint/v1"]) == 24

    def test_suppressed_and_baselined_results(self, tmp_path):
        from repro.analysis import Baseline

        sources = {
            "sim/clocked.py": (
                "import time\n"
                "a = time.time()\n"
                "b = time.time()  # reprolint: disable=RL102\n"
            )
        }
        first = lint_sources(sources)
        baseline = Baseline.from_findings(first.findings)
        report = lint_sources(sources, baseline=baseline)
        document = sarif_report(report)
        by_kind = {}
        for result in document["runs"][0]["results"]:
            suppressions = result.get("suppressions", [])
            kind = suppressions[0]["kind"] if suppressions else None
            by_kind[kind] = result
        assert set(by_kind) == {"external", "inSource"}  # nothing new
        assert by_kind["external"]["level"] == "note"  # baselined
        assert by_kind["inSource"]["level"] == "note"  # inline-suppressed

    def test_uri_prefix_applied(self):
        report = lint_sources(
            {"sim/clocked.py": "import time\nt = time.time()\n"}
        )
        document = sarif_report(report, uri_prefix="src/repro")
        (result,) = document["runs"][0]["results"]
        uri = result["locations"][0]["physicalLocation"]["artifactLocation"]
        assert uri["uri"] == "src/repro/sim/clocked.py"

    def test_serialisation_is_deterministic(self, tmp_path):
        report = lint_sources(
            {"sim/clocked.py": "import time\nt = time.time()\n"}
        )
        one = write_sarif(report, tmp_path / "one.sarif")
        two = write_sarif(report, tmp_path / "two.sarif")
        assert one.read_text() == two.read_text()
        json.loads(one.read_text())  # valid JSON

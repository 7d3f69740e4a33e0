"""The ``reprolint`` runner: walk, check, filter, report.

:func:`run_lint` is the single entry point used by the ``repro lint``
CLI subcommand, CI and the tests.  It walks a source tree and checks
each file once: one :func:`ast.parse` and one node walk (see
:class:`~repro.analysis.base.ModuleInfo`) feed the module-level rules,
the inline suppressions and the
:class:`~repro.analysis.graph.ModuleSummary` that the whole-program
rules (RL105/RL108/RL109/RL111) consume.

Each run carries an :class:`~repro.obs.ObsContext`: one span per stage
(``lint.walk`` / ``lint.parse`` / ``lint.check.<tree-rule>`` /
``lint.filter``) plus ``lint.*`` counters, surfaced as ``metrics`` and
``trace`` in the ``--json`` report so lint runtime regressions show up
next to the engine benchmarks.
"""

from __future__ import annotations

import ast
import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Set

from ..obs import ObsContext
from .base import (
    Finding,
    ModuleChecker,
    ModuleInfo,
    TreeChecker,
    all_rules,
    checkers_for,
)
from .baseline import Baseline
from .graph import ModuleSummary, Program, summarize_module
from .parity import BatchTwinParityChecker, ParityPair
from .suppress import split_suppressed, suppressions_for_source

__all__ = [
    "LintReport",
    "run_lint",
    "lint_sources",
    "default_root",
    "default_baseline_path",
    "BASELINE_FILENAME",
]

BASELINE_FILENAME = ".reprolint-baseline.json"

def default_root() -> Path:
    """The installed ``repro`` package — the tree the invariants govern."""
    return Path(__file__).resolve().parent.parent


def default_baseline_path(root: Path) -> Optional[Path]:
    """Locate a committed baseline near ``root`` or the working directory.

    Checks the working directory first (the checkout the developer is
    in), then walks up from the linted root (``src/repro`` →
    ``src`` → repo root → ... → filesystem root), returning the first
    baseline file found.
    """
    candidates = [Path.cwd() / BASELINE_FILENAME]
    candidates += [
        parent / BASELINE_FILENAME for parent in Path(root).resolve().parents
    ]
    for candidate in candidates:
        if candidate.is_file():
            return candidate
    return None


@dataclass
class LintReport:
    """Outcome of one lint run."""

    root: str
    #: Rule IDs that ran.
    rules: List[str]
    #: All findings that survived inline suppression.
    findings: List[Finding]
    #: Findings not covered by the baseline — errors fail the run.
    new_findings: List[Finding]
    #: Findings absorbed by the committed baseline.
    baselined: List[Finding]
    #: Findings silenced by ``# reprolint: disable=...`` comments.
    suppressed: List[Finding]
    #: Scalar↔batch pairings RL105 verified.
    parity_pairs: List[ParityPair]
    checked_files: int
    #: Stage spans and ``lint.*`` counters of the run.
    obs: ObsContext = field(default_factory=ObsContext.enabled)
    #: True when findings were filtered to git-changed files only.
    changed_only: bool = False

    @property
    def errors(self) -> List[Finding]:
        """New findings at error severity (the ones that gate CI)."""
        return [f for f in self.new_findings if f.severity != "warning"]

    @property
    def warnings(self) -> List[Finding]:
        """New findings at warning severity (reported, non-fatal)."""
        return [f for f in self.new_findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when nothing new at error severity (the CI gate)."""
        return not self.errors

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable report (the ``repro lint --json`` payload)."""
        return {
            "root": self.root,
            "rules": list(self.rules),
            "ok": self.ok,
            "checked_files": self.checked_files,
            "changed_only": self.changed_only,
            "counts": {
                "findings": len(self.findings),
                "new": len(self.new_findings),
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "baselined": len(self.baselined),
                "suppressed": len(self.suppressed),
                "parity_pairs": len(self.parity_pairs),
            },
            "new_findings": [f.to_dict() for f in self.new_findings],
            "baselined": [f.to_dict() for f in self.baselined],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "parity_pairs": [p.to_dict() for p in self.parity_pairs],
            "metrics": self.obs.metrics.to_dict(),
            "trace": self.obs.tracer.summary(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def summary_lines(self) -> List[str]:
        """Human-readable report: one line per new finding + a summary."""
        lines = [
            f"{f.path}:{f.line}: {f.rule} "
            + ("[warning] " if f.severity == "warning" else "")
            + f.message
            for f in self.new_findings
        ]
        lines.append(
            f"reprolint: {len(self.errors)} new error(s), "
            f"{len(self.warnings)} warning(s), "
            f"{len(self.baselined)} baselined, "
            f"{len(self.suppressed)} suppressed, "
            f"{len(self.parity_pairs)} parity pair(s) verified "
            f"across {self.checked_files} file(s) "
            f"[rules: {', '.join(self.rules)}]"
        )
        return lines


# ----------------------------------------------------------------------
# Per-file checking
# ----------------------------------------------------------------------

class _FileRecord(NamedTuple):
    """What one parse of one file yields for the rest of the run."""

    #: Module-rule findings, before suppression and baseline filtering.
    findings: List[Finding]
    #: Inline ``# reprolint: disable`` comments (line → rules or all).
    suppressions: Dict[int, Optional[Set[str]]]
    summary: ModuleSummary


def _check_file(
    path: str, source: str, module_checkers: List[ModuleChecker]
) -> _FileRecord:
    """Parse one file and run the module-level rules over it."""
    module = ModuleInfo(
        path=path, source=source, tree=ast.parse(source, filename=path)
    )
    findings: List[Finding] = []
    for checker in module_checkers:
        findings.extend(checker.check_module(module))
    return _FileRecord(
        findings, suppressions_for_source(source), summarize_module(module)
    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def _walk_tree(root: Path) -> List[Path]:
    return sorted(
        p for p in root.rglob("*.py") if "__pycache__" not in p.parts
    )


def _changed_files(root: Path) -> Optional[Set[str]]:
    """Root-relative paths git considers modified, or ``None``.

    ``None`` means "could not tell" (no git, not a checkout, no HEAD
    yet) and callers fall back to a full run.  Changed = unstaged +
    staged edits vs HEAD plus untracked files.
    """
    resolved = root.resolve()

    def _git(*args: str) -> "subprocess.CompletedProcess[str]":
        return subprocess.run(
            ["git", "-C", str(resolved), *args],
            capture_output=True,
            text=True,
            timeout=30,
        )

    try:
        top = _git("rev-parse", "--show-toplevel")
    except (OSError, subprocess.SubprocessError):
        return None
    if top.returncode != 0 or not top.stdout.strip():
        return None
    top_path = Path(top.stdout.strip())
    changed: Set[str] = set()
    for args in (
        ("diff", "--name-only", "HEAD"),
        ("ls-files", "--others", "--exclude-standard"),
    ):
        try:
            proc = _git(*args)
        except (OSError, subprocess.SubprocessError):
            return None
        if proc.returncode != 0:
            return None
        for line in proc.stdout.splitlines():
            name = line.strip()
            if not name:
                continue
            try:
                rel = (top_path / name).resolve().relative_to(resolved)
            except (OSError, ValueError):
                continue
            changed.add(rel.as_posix())
    return changed


def lint_sources(
    sources: Dict[str, str],
    rules: Optional[List[str]] = None,
    baseline: Optional[Baseline] = None,
) -> LintReport:
    """Lint in-memory ``{relative_path: source}`` (fixture-friendly)."""
    ordered = {path: sources[path] for path in sorted(sources)}
    return _lint(ordered, root="<memory>", rules=rules, baseline=baseline)


def run_lint(
    root: Optional[Path] = None,
    rules: Optional[List[str]] = None,
    baseline_path: Optional[Path] = None,
    use_baseline: bool = True,
    changed_only: bool = False,
) -> LintReport:
    """Lint a source tree on disk.

    ``baseline_path=None`` with ``use_baseline=True`` auto-discovers a
    committed ``.reprolint-baseline.json`` via
    :func:`default_baseline_path`.  ``changed_only=True`` restricts
    *reported* findings to files git considers modified — the analysis
    still sees the whole tree, so cross-file rules stay sound — and
    falls back to a full report outside a git checkout.
    """
    root = Path(root) if root is not None else default_root()
    if not root.is_dir():
        raise FileNotFoundError(f"lint root {root} is not a directory")
    obs = ObsContext.enabled()
    with obs.tracer.span("lint.walk"):
        sources = {
            path.relative_to(root).as_posix(): path.read_text(
                encoding="utf-8"
            )
            for path in _walk_tree(root)
        }
    baseline = None
    if use_baseline:
        if baseline_path is None:
            baseline_path = default_baseline_path(root)
        if baseline_path is not None:
            baseline = Baseline.load(Path(baseline_path))
    changed = _changed_files(root) if changed_only else None
    return _lint(
        sources,
        root=str(root),
        rules=rules,
        baseline=baseline,
        obs=obs,
        changed=changed,
    )


def _lint(
    sources: Dict[str, str],
    root: str,
    rules: Optional[List[str]] = None,
    baseline: Optional[Baseline] = None,
    obs: Optional[ObsContext] = None,
    changed: Optional[Set[str]] = None,
) -> LintReport:
    """Check every file, run the tree rules, then filter and report."""
    obs = obs if obs is not None else ObsContext.enabled()
    selected = checkers_for(rules)
    module_checkers = [c for c in selected if isinstance(c, ModuleChecker)]
    tree_checkers = [c for c in selected if isinstance(c, TreeChecker)]
    with obs.tracer.span("lint.parse"):
        records = {
            path: _check_file(path, source, module_checkers)
            for path, source in sources.items()
        }
    findings: List[Finding] = []
    for record in records.values():
        findings.extend(record.findings)
    program = Program(
        root=root,
        summaries={path: record.summary for path, record in records.items()},
    )
    parity_pairs: List[ParityPair] = []
    for checker in tree_checkers:
        with obs.tracer.span(f"lint.check.{checker.rule.id}"):
            findings.extend(checker.check_program(program))
            if isinstance(checker, BatchTwinParityChecker):
                parity_pairs = list(checker.pairs)
    with obs.tracer.span("lint.filter"):
        per_file = {
            path: record.suppressions for path, record in records.items()
        }
        if changed is not None:
            findings = [f for f in findings if f.path in changed]
        findings.sort(key=lambda f: (f.path, f.line, f.rule))
        active, suppressed = split_suppressed(findings, per_file)
        if baseline is not None:
            new, baselined = baseline.split_new(active)
        else:
            new, baselined = list(active), []
    obs.metrics.counter("lint.files").inc(len(records))
    obs.metrics.counter("lint.findings").inc(len(active))
    rule_ids = (
        sorted({c.rule.id for c in selected})
        if rules is not None
        else [rule.id for rule in all_rules()]
    )
    return LintReport(
        root=root,
        rules=rule_ids,
        findings=active,
        new_findings=new,
        baselined=baselined,
        suppressed=suppressed,
        parity_pairs=parity_pairs,
        checked_files=len(records),
        obs=obs,
        changed_only=changed is not None,
    )

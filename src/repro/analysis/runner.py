"""The ``reprolint`` runner: walk, check (incrementally), filter, report.

:func:`run_lint` is the single entry point used by the ``repro lint``
CLI subcommand, CI and the tests.  It walks a source tree and produces
one *record* per file — the module-rule findings, the inline
suppressions, and the :class:`~repro.analysis.graph.ModuleSummary`
that the whole-program rules consume.  Records are plain JSON, which
buys two things:

**Incremental runs.**  With a :class:`~repro.store.ResultStore`
enabled (``REPRO_CACHE_DIR``/``REPRO_CACHE=1``, or an explicit
``cache=``), each record is cached under a key derived from the file's
content hash, the module-rule set and the analysis package's own code
fingerprint (:data:`~repro.store.fingerprint.ANALYSIS_CODE_MODULES`) —
so a warm run re-parses only changed files and a lint-code change
invalidates everything.  Tree rules (RL105/RL108/RL109) always re-run,
but they read summaries, never source, so the warm path does zero
parsing for unchanged files and the report is byte-identical to a cold
run (its ``metrics``/``trace`` aside).

**Parallel cold runs.**  Cache misses are parsed and checked on the
persistent :mod:`repro.exec` process pool (``jobs=`` controls the
width; ``jobs=1`` forces serial).  The backend's adaptive shard
planner groups files into dispatch chunks, replacing the old
``n_jobs * 4`` chunking heuristic.

Each run carries an :class:`~repro.obs.ObsContext`: one span per stage
(``lint.walk`` / ``lint.cache`` / ``lint.parse`` /
``lint.check.<tree-rule>`` / ``lint.filter``) plus ``lint.*``
counters, surfaced as ``metrics`` and ``trace`` in the ``--json``
report so lint runtime regressions show up next to the engine
benchmarks.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..exec import backend_for
from ..obs import ObsContext
from ..store.fingerprint import ANALYSIS_CODE_MODULES, config_key
from ..store.store import ResultStore, resolve_store
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

#: Bumped whenever the per-file record layout changes, so stale cache
#: entries from an older reprolint simply miss.  2: ModuleSummary grew
#: the ``pool_calls`` field RL111 reads.
_RECORD_VERSION = 2

#: Below this many cache misses even a warm pool's dispatch overhead
#: outweighs the parallel parse; stay serial.
_PARALLEL_MIN_FILES = 16

#: Upper bound on auto-selected worker processes.
_MAX_JOBS = 8


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
# Per-file records (the cacheable unit)
# ----------------------------------------------------------------------

def _check_file_record(
    path: str, source: str, module_rule_ids: Sequence[str]
) -> Dict[str, object]:
    """Parse one file and run the module-level rules over it.

    The result is plain JSON — findings, inline suppressions and the
    module summary — so it can live in the content-addressed store and
    feed the tree rules on warm runs without re-parsing.
    """
    tree = ast.parse(source, filename=path)
    module = ModuleInfo(path=path, source=source, tree=tree)
    findings: List[Finding] = []
    if module_rule_ids:
        for checker in checkers_for(list(module_rule_ids)):
            findings.extend(checker.check_module(module))
    suppressions = suppressions_for_source(source)
    return {
        "version": _RECORD_VERSION,
        "findings": [f.to_dict() for f in findings],
        "suppressions": {
            str(line): (sorted(rules) if rules is not None else None)
            for line, rules in suppressions.items()
        },
        "summary": summarize_module(module).to_dict(),
    }


def _check_file_worker(
    item: "Tuple[str, str, Tuple[str, ...]]"
) -> "Tuple[str, Dict[str, object]]":
    path, source, module_rule_ids = item
    return path, _check_file_record(path, source, module_rule_ids)


def _valid_record(body: object) -> bool:
    return (
        isinstance(body, dict)
        and body.get("version") == _RECORD_VERSION
        and isinstance(body.get("findings"), list)
        and isinstance(body.get("suppressions"), dict)
        and isinstance(body.get("summary"), dict)
    )


def _record_key(
    path: str, source: str, module_rule_ids: Sequence[str]
) -> str:
    """Store key for one file's record.

    Keyed on the file's content hash, the module-rule set and (via
    ``ANALYSIS_CODE_MODULES``) the fingerprint of the analysis package
    itself — editing any checker invalidates every cached record.
    """
    sha = hashlib.sha256(source.encode("utf-8")).hexdigest()
    return config_key(
        "lint-file",
        {
            "path": path,
            "sha256": sha,
            "rules": list(module_rule_ids),
            "record": _RECORD_VERSION,
        },
        ANALYSIS_CODE_MODULES,
    )


def _decode_suppressions(
    payload: Dict[str, object]
) -> Dict[int, Optional[Set[str]]]:
    out: Dict[int, Optional[Set[str]]] = {}
    for line, rules in payload.items():
        out[int(line)] = None if rules is None else {str(r) for r in rules}
    return out


# ----------------------------------------------------------------------
# Checking (serial or process pool)
# ----------------------------------------------------------------------

def _resolve_jobs(jobs: Optional[int]) -> int:
    if jobs is not None:
        return max(1, int(jobs))
    return max(1, min(_MAX_JOBS, os.cpu_count() or 1))


def _check_files(
    items: "List[Tuple[str, str]]",
    module_rule_ids: Sequence[str],
    jobs: Optional[int],
    obs: ObsContext,
) -> Dict[str, Dict[str, object]]:
    if not items:
        return {}
    n_jobs = _resolve_jobs(jobs)
    if n_jobs > 1 and len(items) >= _PARALLEL_MIN_FILES:
        payload = [
            (path, source, tuple(module_rule_ids)) for path, source in items
        ]
        pairs, report = backend_for(n_jobs).map(
            _check_file_worker,
            payload,
            parallel=True,
            family="lint.file",
            with_report=True,
        )
        if report.pooled:
            obs.metrics.counter("lint.parallel.files").inc(len(items))
        return dict(pairs)
    return {
        path: _check_file_record(path, source, module_rule_ids)
        for path, source in items
    }


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def _walk_tree(root: Path) -> List[Path]:
    return sorted(
        p for p in root.rglob("*.py") if "__pycache__" not in p.parts
    )


def _split_rules(
    rules: Optional[List[str]],
) -> "Tuple[List[str], List[TreeChecker]]":
    """(module rule IDs, tree checker instances) for a rule selection."""
    selected = checkers_for(rules)
    module_ids = sorted(
        c.rule.id for c in selected if isinstance(c, ModuleChecker)
    )
    tree_checkers = [c for c in selected if isinstance(c, TreeChecker)]
    return module_ids, tree_checkers


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
    module_ids, _tree = _split_rules(rules)
    records = {
        path: _check_file_record(path, sources[path], module_ids)
        for path in sorted(sources)
    }
    return _assemble(records, root="<memory>", rules=rules, baseline=baseline)


def run_lint(
    root: Optional[Path] = None,
    rules: Optional[List[str]] = None,
    baseline_path: Optional[Path] = None,
    use_baseline: bool = True,
    cache: "Union[None, bool, ResultStore]" = None,
    refresh: bool = False,
    jobs: Optional[int] = None,
    changed_only: bool = False,
) -> LintReport:
    """Lint a source tree on disk.

    ``baseline_path=None`` with ``use_baseline=True`` auto-discovers a
    committed ``.reprolint-baseline.json`` via
    :func:`default_baseline_path`.

    ``cache`` follows :func:`repro.store.resolve_store` semantics:
    ``None`` honours the ``REPRO_CACHE*`` environment, ``True`` forces
    the default store, ``False`` disables caching, and a
    :class:`~repro.store.ResultStore` is used as-is.  ``refresh=True``
    ignores (and rewrites) existing records.  ``changed_only=True``
    restricts *reported* findings to files git considers modified —
    the analysis still sees the whole tree, so cross-file rules stay
    sound — and falls back to a full report outside a git checkout.
    """
    root = Path(root) if root is not None else default_root()
    if not root.is_dir():
        raise FileNotFoundError(f"lint root {root} is not a directory")
    obs = ObsContext.enabled()
    with obs.tracer.span("lint.walk"):
        files = _walk_tree(root)
        sources = {
            path.relative_to(root).as_posix(): path.read_text(
                encoding="utf-8"
            )
            for path in files
        }
    store = resolve_store(cache)
    module_ids, _tree = _split_rules(rules)

    records: Dict[str, Dict[str, object]] = {}
    stale: List[str] = []
    keys: Dict[str, str] = {}
    with obs.tracer.span("lint.cache"):
        if store is not None:
            keys = {
                rel: _record_key(rel, source, module_ids)
                for rel, source in sources.items()
            }
            if refresh:
                stale = list(sources)
            else:
                for rel in sources:
                    body = store.get(keys[rel], touch=False)
                    if _valid_record(body):
                        records[rel] = body  # type: ignore[assignment]
                    else:
                        stale.append(rel)
                store.touch_many([keys[rel] for rel in records])
        else:
            stale = list(sources)
    with obs.tracer.span("lint.parse"):
        fresh = _check_files(
            [(rel, sources[rel]) for rel in stale],
            module_ids,
            jobs,
            obs,
        )
    records.update(fresh)
    if store is not None and fresh:
        store.put_many({keys[rel]: fresh[rel] for rel in fresh})
    obs.metrics.counter("lint.cache.hits").inc(len(records) - len(fresh))
    obs.metrics.counter("lint.cache.misses").inc(len(fresh))

    baseline = None
    if use_baseline:
        if baseline_path is None:
            baseline_path = default_baseline_path(root)
        if baseline_path is not None:
            baseline = Baseline.load(Path(baseline_path))
    changed = _changed_files(root) if changed_only else None
    return _assemble(
        records,
        root=str(root),
        rules=rules,
        baseline=baseline,
        obs=obs,
        changed=changed,
    )


def _assemble(
    records: Dict[str, Dict[str, object]],
    root: str,
    rules: Optional[List[str]] = None,
    baseline: Optional[Baseline] = None,
    obs: Optional[ObsContext] = None,
    changed: Optional[Set[str]] = None,
) -> LintReport:
    """Tree rules + suppression/baseline filtering over file records."""
    obs = obs if obs is not None else ObsContext.enabled()
    _module_ids, tree_checkers = _split_rules(rules)
    findings: List[Finding] = []
    for rel in records:
        findings.extend(
            Finding.from_dict(payload)  # type: ignore[arg-type]
            for payload in records[rel]["findings"]  # type: ignore[union-attr]
        )
    summaries = {
        rel: ModuleSummary.from_dict(records[rel]["summary"])  # type: ignore[arg-type]
        for rel in records
    }
    program = Program(root=root, summaries=summaries)
    parity_pairs: List[ParityPair] = []
    for checker in tree_checkers:
        with obs.tracer.span(f"lint.check.{checker.rule.id}"):
            findings.extend(checker.check_program(program))
            if isinstance(checker, BatchTwinParityChecker):
                parity_pairs = list(checker.pairs)
    with obs.tracer.span("lint.filter"):
        per_file = {
            rel: _decode_suppressions(records[rel]["suppressions"])  # type: ignore[arg-type]
            for rel in records
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
    selected = checkers_for(rules)
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

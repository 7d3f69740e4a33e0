"""Core types of the ``reprolint`` static-analysis framework.

The reproduction's fidelity rests on a handful of *domain invariants*
(seeded randomness, suffixed units, simulated-time purity, exact
scalar↔batch twinning) that ordinary linters cannot see.  ``reprolint``
parses the source tree with :mod:`ast` and runs a registry of pluggable
checkers, each owning one rule ID:

========  ============================================================
RL101     rng-discipline — all randomness flows through the seeded
          stream registry in :mod:`repro.sim.random`
RL102     sim-time purity — no wall-clock reads inside simulation code
RL103     unit-suffix discipline — no dB/linear mixing, no unsuffixed
          physical-quantity defaults in config dataclasses
RL104     float-equality — no ``==``/``!=`` against float literals
RL105     batch-twin parity — every ``Batch*`` class mirrors its
          scalar twin's public API modulo the array dimension
RL106     wall-clock discipline — instrumentation outside
          :mod:`repro.perf` / :mod:`repro.obs` reads time only via
          :data:`repro.perf.wall_clock`
RL107     store-atomic-io — file writes under :mod:`repro.store` flow
          through the tmp+rename helpers in ``store/atomic.py``
RL108     fingerprint-completeness — the static import closure of each
          cacheable entry point is covered by the matching
          ``*_CODE_MODULES`` tuple in :mod:`repro.store.fingerprint`
RL109     determinism-taint — wall-clock/entropy/env reads never reach
          solver results, manifests or store keys except via the
          sanctioned :mod:`repro.perf` / seeded-stream APIs
RL110     obs-guard discipline — ``obs.*`` call sites in hot-path
          modules sit behind the ``obs is None`` zero-cost pattern
RL111     exec-backend discipline — ``ProcessPoolExecutor`` /
          ``multiprocessing.Pool`` are constructed only inside
          :mod:`repro.exec`
========  ============================================================

Each file is parsed and walked exactly once: :class:`ModuleInfo` holds
the node list of that one walk and the import-alias map built from it,
and every rule iterates those instead of re-walking the tree.

Checkers come in two shapes: *module* checkers (see
:class:`ModuleChecker`) visit one file at a time; *tree* checkers (see
:class:`TreeChecker`) receive the whole :class:`~repro.analysis.graph.Program`
— every module's summary plus the import graph — which RL105 needs to
pair classes across files, RL108/RL109 need for closure and taint
context, and RL111 needs to sweep pool-construction sites per file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .graph import Program

__all__ = [
    "Finding",
    "Rule",
    "ModuleInfo",
    "ModuleChecker",
    "TreeChecker",
    "register_checker",
    "all_checkers",
    "all_rules",
    "checkers_for",
]


@dataclass(frozen=True)
class Rule:
    """Identity and rationale of one lint rule."""

    id: str
    name: str
    #: One-line statement of the invariant the rule protects.
    summary: str


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    message: str
    #: The stripped source line, used for baseline fingerprinting so
    #: findings survive unrelated line-number drift.
    snippet: str = ""
    #: ``"error"`` findings fail the run; ``"warning"`` findings are
    #: reported (and SARIF-annotated) but do not flip ``LintReport.ok``.
    severity: str = "error"

    @property
    def fingerprint(self) -> Tuple[str, str, str]:
        """Location-stable identity: (rule, path, snippet)."""
        return (self.rule, self.path, self.snippet)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet,
            "severity": self.severity,
        }


@dataclass
class ModuleInfo:
    """One parsed source file, as handed to checkers."""

    #: Path relative to the linted root, in POSIX form.
    path: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    #: Every node of ``tree`` in :func:`ast.walk` (breadth-first) order:
    #: the file's one whole-tree walk, which all rules iterate.
    nodes: List[ast.AST] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()
        self.nodes = list(ast.walk(self.tree))

    @cached_property
    def aliases(self) -> Dict[str, str]:
        """Local name → canonical dotted path bound by absolute imports.

        ``import numpy as np`` binds ``np`` → ``numpy``; ``from time
        import perf_counter`` binds ``perf_counter`` →
        ``time.perf_counter``.  Relative imports are skipped (the file's
        package is unknown here; see :func:`repro.analysis.taint.
        collect_aliases` for the resolving variant).  Imports apply in
        source order, so a later rebinding wins.
        """
        imports = sorted(
            (
                node for node in self.nodes
                if isinstance(node, (ast.Import, ast.ImportFrom))
            ),
            key=lambda node: (node.lineno, node.col_offset),
        )
        names: Dict[str, str] = {}
        for node in imports:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        names[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        names[head] = head
            elif not node.level and node.module is not None:
                for alias in node.names:
                    local = alias.asname or alias.name
                    names[local] = f"{node.module}.{alias.name}"
        return names

    def snippet(self, line: int) -> str:
        """The stripped source text of 1-indexed ``line``."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(
        self,
        rule: str,
        node: ast.AST,
        message: str,
        severity: str = "error",
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        line = getattr(node, "lineno", 0)
        return Finding(
            rule=rule,
            path=self.path,
            line=line,
            message=message,
            snippet=self.snippet(line),
            severity=severity,
        )


class ModuleChecker:
    """Base for checkers that inspect one module at a time."""

    rule: Rule

    def check_module(self, module: ModuleInfo) -> List[Finding]:
        """Findings for one parsed file."""
        raise NotImplementedError


class TreeChecker:
    """Base for checkers that need the whole program (cross-file rules).

    Tree checkers consume :class:`~repro.analysis.graph.ModuleSummary`
    data — plain per-file facts, not ASTs — which the runner collects
    while each file is parsed.
    """

    rule: Rule

    def check_program(self, program: "Program") -> List[Finding]:
        """Findings across the whole linted tree."""
        raise NotImplementedError


_REGISTRY: Dict[str, type] = {}


def register_checker(cls: type) -> type:
    """Class decorator adding a checker to the global registry."""
    rule = cls.rule
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate checker for rule {rule.id}")
    _REGISTRY[rule.id] = cls
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by ID."""
    return [_REGISTRY[rule_id].rule for rule_id in sorted(_REGISTRY)]


def all_checkers() -> List[object]:
    """Fresh instances of every registered checker, sorted by rule ID."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def checkers_for(rule_ids: Optional[List[str]] = None) -> List[object]:
    """Fresh checker instances for ``rule_ids`` (all when ``None``)."""
    if rule_ids is None:
        return all_checkers()
    unknown = sorted(set(rule_ids) - set(_REGISTRY))
    if unknown:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown rule(s) {unknown}; known rules: {known}")
    return [_REGISTRY[rule_id]() for rule_id in sorted(set(rule_ids))]

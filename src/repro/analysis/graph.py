"""Whole-program layer: module naming, summaries, and the import graph.

``reprolint``'s module-level rules see one file at a time; the rules
added in this layer (RL108 fingerprint-completeness, RL109
determinism-taint) need to reason about the *program*: which module
imports which, what each module defines, and what the transitive
import closure of an entry point is.  This module provides that
infrastructure in three pieces:

:func:`summarize_module`
    Reduces one parsed file to a :class:`ModuleSummary` — its dotted
    module name, raw import statements, a top-level symbol table, the
    class/method signature surface RL105 compares, any top-level
    string-tuple constants (the ``*_CODE_MODULES`` fingerprint lists),
    and the per-module determinism-taint candidates from
    :mod:`repro.analysis.taint`.  It reads the file's one node walk
    (:attr:`~repro.analysis.base.ModuleInfo.nodes`), never re-walking
    the tree.

:class:`ImportGraph`
    The module-level graph over a set of summaries.  Edges are
    *static*: every ``import``/``from`` statement anywhere in a file
    (including lazy function-local imports) contributes, ``TYPE_CHECKING``
    blocks included — over-approximating the runtime import set is the
    safe direction for a rule guarding cache invalidation.

:class:`Program`
    The bundle tree-level checkers receive: all summaries plus the
    (lazily built) import graph.

Module naming is anchored at the ``repro`` package: the linted root is
treated as the package directory, so ``engine/batch.py`` names
``repro.engine.batch`` regardless of where the tree physically lives —
fixture trees in tests use the same coordinates as the real package,
exactly like the path-prefix conventions of RL102/RL107.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from .base import ModuleInfo
from .taint import taint_candidates

__all__ = [
    "PACKAGE",
    "ClassSummary",
    "ImportGraph",
    "ImportRecord",
    "MethodSummary",
    "ModuleSummary",
    "Program",
    "StrTuple",
    "module_name",
    "summarize_module",
]

#: The package the domain invariants govern; root-relative paths map
#: into it (``engine/batch.py`` → ``repro.engine.batch``).
PACKAGE = "repro"

#: Dunder names whose top-level assignment does not make a package
#: ``__init__`` substantive (pure re-export shims stay exempt from
#: RL108 coverage).
_SHIM_OK_TARGETS = ("__all__", "__version__", "__author__", "__doc__")


def module_name(path: str, package: str = PACKAGE) -> Optional[str]:
    """Dotted module name of a root-relative POSIX path, or ``None``.

    ``__init__.py`` names the package itself; anything that is not a
    ``.py`` file has no module name.
    """
    if not path.endswith(".py"):
        return None
    parts = path[: -len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([package, *parts]) if parts else package


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ImportRecord:
    """One ``import``/``from`` statement, unresolved."""

    kind: str  # "import" | "from"
    module: Optional[str]  # dotted module text (None for ``from . import x``)
    names: List[str]  # imported names ("from" only)
    level: int  # relative-import level (0 = absolute)
    line: int


@dataclass(frozen=True)
class MethodSummary:
    """One method's comparable surface (for RL105)."""

    params: List[str]  # positional+kwonly names, sans self/cls
    line: int
    snippet: str


@dataclass(frozen=True)
class ClassSummary:
    """One class definition's comparable surface (for RL105)."""

    name: str
    line: int
    snippet: str
    methods: Dict[str, MethodSummary]


@dataclass(frozen=True)
class StrTuple:
    """A top-level ``NAME = ("str", ...)`` constant (fingerprint lists)."""

    values: List[str]
    line: int
    snippet: str


@dataclass
class ModuleSummary:
    """Everything the tree-level rules need to know about one file."""

    path: str
    module: Optional[str]
    is_init: bool = False
    #: An ``__init__`` containing only docstring/imports/dunder assigns.
    is_shim: bool = False
    #: Top-level name → kind ("function" | "class" | "constant" | "import").
    symbols: Dict[str, str] = field(default_factory=dict)
    imports: List[ImportRecord] = field(default_factory=list)
    classes: List[ClassSummary] = field(default_factory=list)
    str_tuples: Dict[str, StrTuple] = field(default_factory=dict)
    #: Determinism-taint candidates (see :mod:`repro.analysis.taint`).
    taint: List[Dict[str, object]] = field(default_factory=list)
    #: Direct worker-pool constructions (``ProcessPoolExecutor`` /
    #: ``multiprocessing.Pool`` call sites) for RL111.
    pool_calls: List[Dict[str, object]] = field(default_factory=list)


def _method_params(fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> List[str]:
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


def _is_shim_init(tree: ast.Module) -> bool:
    """True when an ``__init__`` only re-exports (no substantive code)."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # docstring / bare string
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            if all(
                isinstance(t, ast.Name) and t.id in _SHIM_OK_TARGETS
                for t in targets
            ):
                continue
        return False
    return True


def _str_tuple(node: ast.Assign) -> Optional[StrTuple]:
    if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
        return None
    value = node.value
    if not isinstance(value, (ast.Tuple, ast.List)):
        return None
    values: List[str] = []
    for element in value.elts:
        if not (
            isinstance(element, ast.Constant)
            and isinstance(element.value, str)
        ):
            return None
    values = [element.value for element in value.elts]
    return StrTuple(values=values, line=node.lineno, snippet="")


def summarize_module(module: ModuleInfo) -> ModuleSummary:
    """Reduce one parsed file to its :class:`ModuleSummary`."""
    path = module.path
    dotted = module_name(path)
    is_init = path == "__init__.py" or path.endswith("/__init__.py")
    summary = ModuleSummary(
        path=path,
        module=dotted,
        is_init=is_init,
        is_shim=is_init and _is_shim_init(module.tree),
    )
    # Top-level symbol table + fingerprint tuples.
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary.symbols[node.name] = "function"
        elif isinstance(node, ast.ClassDef):
            summary.symbols[node.name] = "class"
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    summary.symbols.setdefault(target.id, "constant")
            entry = _str_tuple(node)
            if entry is not None:
                name = node.targets[0].id  # type: ignore[union-attr]
                summary.str_tuples[name] = StrTuple(
                    values=entry.values,
                    line=entry.line,
                    snippet=module.snippet(entry.line),
                )
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                summary.symbols.setdefault(node.target.id, "constant")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                summary.symbols.setdefault(
                    alias.asname or alias.name.split(".")[0], "import"
                )
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                summary.symbols.setdefault(
                    alias.asname or alias.name, "import"
                )
    # Imports and classes, anywhere in the file (lazy imports and
    # nested classes count).
    for node in module.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                summary.imports.append(
                    ImportRecord(
                        kind="import",
                        module=alias.name,
                        names=[],
                        level=0,
                        line=node.lineno,
                    )
                )
        elif isinstance(node, ast.ImportFrom):
            summary.imports.append(
                ImportRecord(
                    kind="from",
                    module=node.module,
                    names=[alias.name for alias in node.names],
                    level=node.level,
                    line=node.lineno,
                )
            )
        elif isinstance(node, ast.ClassDef):
            methods = {}
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods[stmt.name] = MethodSummary(
                        params=_method_params(stmt),
                        line=stmt.lineno,
                        snippet=module.snippet(stmt.lineno),
                    )
            summary.classes.append(
                ClassSummary(
                    name=node.name,
                    line=node.lineno,
                    snippet=module.snippet(node.lineno),
                    methods=methods,
                )
            )
    summary.taint = taint_candidates(module, dotted)
    summary.pool_calls = _pool_call_sites(module)
    return summary


def _pool_call_sites(module: ModuleInfo) -> List[Dict[str, object]]:
    """Direct worker-pool constructions in one file (for RL111).

    Flags calls that *create* a process pool — ``ProcessPoolExecutor``
    under any import spelling, and ``Pool`` resolved (via the file's
    own imports) to :mod:`multiprocessing`.  Attribute forms
    (``futures.ProcessPoolExecutor``) match on the attribute name
    alone: over-approximating is the safe direction for a discipline
    rule, and false positives carry an inline-suppression escape
    hatch.
    """
    mp_aliases = {"multiprocessing"}
    executor_names = {"ProcessPoolExecutor"}
    pool_names: set = set()
    for node in module.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "multiprocessing" and alias.asname:
                    mp_aliases.add(alias.asname)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("concurrent"):
                for alias in node.names:
                    if alias.name == "ProcessPoolExecutor":
                        executor_names.add(alias.asname or alias.name)
            if (
                node.module == "multiprocessing"
                or node.module.startswith("multiprocessing.")
            ):
                for alias in node.names:
                    if alias.name == "Pool":
                        pool_names.add(alias.asname or alias.name)
    sites: List[Dict[str, object]] = []
    for node in module.nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            if func.id in executor_names:
                name = "ProcessPoolExecutor"
            elif func.id in pool_names:
                name = "multiprocessing.Pool"
        elif isinstance(func, ast.Attribute):
            if func.attr == "ProcessPoolExecutor":
                name = "ProcessPoolExecutor"
            elif (
                func.attr == "Pool"
                and isinstance(func.value, ast.Name)
                and func.value.id in mp_aliases
            ):
                name = "multiprocessing.Pool"
        if name is not None:
            sites.append(
                {
                    "name": name,
                    "line": node.lineno,
                    "snippet": module.snippet(node.lineno),
                }
            )
    return sites


# ----------------------------------------------------------------------
# The import graph
# ----------------------------------------------------------------------

def _package_parts(summary: ModuleSummary) -> List[str]:
    """The package a module's relative imports resolve against."""
    if summary.module is None:
        return []
    parts = summary.module.split(".")
    return parts if summary.is_init else parts[:-1]


class ImportGraph:
    """Module-level import graph over a set of summaries.

    Nodes are dotted module names (only modules present in the linted
    tree); edges are the statically declared imports, pointing at the
    module each statement *names* (see :meth:`_resolve_edges`).
    """

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.by_module: Dict[str, ModuleSummary] = {}
        for summary in summaries:
            if summary.module is not None:
                self.by_module[summary.module] = summary
        self.edges: Dict[str, Set[str]] = {
            name: self._resolve_edges(summary)
            for name, summary in self.by_module.items()
        }

    # ------------------------------------------------------------------
    def __contains__(self, module: str) -> bool:
        return module in self.by_module

    def modules(self) -> List[str]:
        """All module names, sorted."""
        return sorted(self.by_module)

    def symbol(self, module: str, name: str) -> Optional[str]:
        """Kind of ``name`` in ``module``'s top-level symbol table."""
        summary = self.by_module.get(module)
        if summary is None:
            return None
        return summary.symbols.get(name)

    # ------------------------------------------------------------------
    def _resolve_edges(self, summary: ModuleSummary) -> Set[str]:
        # Edges go to the module *named* by the import, not to its
        # ancestor packages: a shim ``__init__`` re-exports every
        # sibling, so routing edges through ancestors would make every
        # ``from ..core.delay import X`` pull all of ``core.*`` into
        # the closure.  What the importing code can actually *use* is
        # the named module (plus, for symbol imports from a package,
        # whatever the package re-exports — the init's own edges).
        out: Set[str] = set()
        base_parts = _package_parts(summary)
        for record in summary.imports:
            if record.kind == "import":
                # ``import a.b.c`` binds a.b.c; edge to the longest
                # prefix that lives in this tree.
                parts = (record.module or "").split(".")
                for i in range(len(parts), 0, -1):
                    candidate = ".".join(parts[:i])
                    if candidate in self.by_module:
                        out.add(candidate)
                        break
                continue
            # from-import: resolve the base module (relative levels
            # against the containing package), then decide per name
            # whether it names a submodule or a symbol.
            if record.level:
                if len(base_parts) < record.level - 1:
                    continue  # escapes the linted tree
                base = base_parts[: len(base_parts) - (record.level - 1)]
                if record.module:
                    base = base + record.module.split(".")
                resolved = ".".join(base)
            else:
                resolved = record.module or ""
            if not resolved or not (
                resolved == PACKAGE or resolved.startswith(PACKAGE + ".")
            ):
                continue
            for name in record.names:
                submodule = f"{resolved}.{name}"
                if submodule in self.by_module:
                    out.add(submodule)
                elif resolved in self.by_module:
                    out.add(resolved)
        out.discard(summary.module or "")
        return out

    # ------------------------------------------------------------------
    def closure(
        self,
        entry: str,
        prune: Optional[Iterable[str]] = None,
    ) -> Set[str]:
        """Transitive import closure of ``entry`` (inclusive).

        ``prune`` lists module prefixes whose *outgoing* edges are not
        followed: the module itself still appears in the closure, but
        nothing reachable only through it does.  RL108 prunes at the
        result-neutral layers (obs/store/perf/...), so the cache layer
        importing the engine does not drag the engine into every
        closure that merely *uses* caching.
        """
        prune_prefixes = tuple(prune or ())

        def pruned(module: str) -> bool:
            # The bare package root matches exactly, never as a prefix
            # — a "repro" prefix would otherwise prune every module.
            for p in prune_prefixes:
                if module == p:
                    return True
                if p != PACKAGE and module.startswith(p + "."):
                    return True
            return False

        seen: Set[str] = set()
        stack = [entry]
        while stack:
            module = stack.pop()
            if module in seen or module not in self.by_module:
                continue
            seen.add(module)
            if pruned(module) and module != entry:
                continue
            stack.extend(sorted(self.edges.get(module, ())))
        return seen


# ----------------------------------------------------------------------
# The program bundle handed to tree-level checkers
# ----------------------------------------------------------------------

@dataclass
class Program:
    """All module summaries plus the (lazily built) import graph."""

    root: str
    summaries: Dict[str, ModuleSummary]
    _graph: Optional[ImportGraph] = field(default=None, repr=False)

    @property
    def graph(self) -> ImportGraph:
        if self._graph is None:
            self._graph = ImportGraph(self.summaries.values())
        return self._graph

    def summary(self, path: str) -> Optional[ModuleSummary]:
        return self.summaries.get(path)

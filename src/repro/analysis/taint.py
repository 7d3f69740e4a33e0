"""Determinism-taint pass: where do wall-clock/entropy values flow?

The reproduction's bit-determinism contract says result payloads,
manifests and store keys must be pure functions of (config, seed,
code).  A value read from ``time.time()``, ``random.*``,
``os.urandom`` or the process environment breaks that contract the
moment it reaches one of those places — a store key salted with a
timestamp silently disables caching; a manifest field derived from
``os.environ`` makes two identical runs disagree.

This pass is deliberately *lightweight*: intraprocedural, per
function (plus the module body), flow-sensitive only in the cheapest
way (reassigning a name from a clean expression clears its taint).
It does not chase taint through calls, containers or attributes —
under-approximating keeps the rule quiet enough to be trusted, and
the sanctioned escape hatches (:data:`repro.perf.wall_clock` for
timing, seeded streams from :mod:`repro.sim.random`) resolve to
non-source paths, so blessed code needs no annotations.

The pass emits serialisable *candidates*, not findings: ``sink``
candidates (a tainted value reaches a store key or manifest — always
a violation) and ``return`` candidates (a public function returns a
tainted value — a violation only when the module is named by one of
the ``*_CODE_MODULES`` fingerprint tuples, i.e. when its results are
cacheable).  RL109 in :mod:`repro.analysis.graphrules` turns
candidates into findings with whole-program context.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional

from .base import ModuleInfo

__all__ = ["collect_aliases", "resolve", "source_origin", "taint_candidates"]


#: Canonical dotted-path prefixes that mint nondeterminism, with the
#: human-readable origin reported in findings.
_SOURCE_PREFIXES = (
    ("random.", "the unseeded stdlib `random` module"),
    ("time.time", "the wall clock (`time.time`)"),
    ("time.monotonic", "the wall clock (`time.monotonic`)"),
    ("time.perf_counter", "the wall clock (`time.perf_counter`)"),
    ("time.process_time", "the wall clock (`time.process_time`)"),
    ("time.clock_gettime", "the wall clock (`time.clock_gettime`)"),
    ("datetime.datetime.now", "the wall clock (`datetime.now`)"),
    ("datetime.datetime.utcnow", "the wall clock (`datetime.utcnow`)"),
    ("datetime.datetime.today", "the wall clock (`datetime.today`)"),
    ("datetime.date.today", "the wall clock (`date.today`)"),
    ("os.urandom", "OS entropy (`os.urandom`)"),
    ("os.environ", "an environment read (`os.environ`)"),
    ("os.environb", "an environment read (`os.environb`)"),
    ("os.getenv", "an environment read (`os.getenv`)"),
    ("os.getenvb", "an environment read (`os.getenvb`)"),
    ("secrets.", "OS entropy (the `secrets` module)"),
    ("uuid.uuid1", "host state (`uuid.uuid1`)"),
    ("uuid.uuid4", "OS entropy (`uuid.uuid4`)"),
)

#: Call targets that persist or publish a value: feeding them a tainted
#: argument is always a violation.
_SINKS = {
    "repro.store.config_key": "a persistent store key (`config_key`)",
    "repro.store.fingerprint.config_key": (
        "a persistent store key (`config_key`)"
    ),
    "repro.obs.RunManifest": "a run manifest (`RunManifest`)",
    "repro.obs.RunManifest.build": "a run manifest (`RunManifest.build`)",
    "repro.obs.manifest.RunManifest": "a run manifest (`RunManifest`)",
    "repro.obs.manifest.RunManifest.build": (
        "a run manifest (`RunManifest.build`)"
    ),
}


def source_origin(canonical: str) -> Optional[str]:
    """Human-readable origin when ``canonical`` is a taint source."""
    for prefix, origin in _SOURCE_PREFIXES:
        if canonical == prefix.rstrip(".") or canonical.startswith(prefix):
            return origin
    return None


# ----------------------------------------------------------------------
# Relative-import-aware alias resolution
# ----------------------------------------------------------------------

def collect_aliases(
    nodes: Iterable[ast.AST],
    dotted_module: Optional[str],
    is_init: bool = False,
) -> Dict[str, str]:
    """Local name → canonical dotted path, resolving relative imports.

    ``nodes`` is a file's node walk (:attr:`ModuleInfo.nodes`).  Unlike
    :attr:`ModuleInfo.aliases` (which skips relative imports because it
    has no idea where the file lives), this variant knows the module's
    dotted name, so
    ``from ..obs import RunManifest`` inside ``repro.faults.chaos``
    resolves to ``repro.obs.RunManifest`` and can match sink paths.
    """
    package_parts: List[str] = []
    if dotted_module is not None:
        parts = dotted_module.split(".")
        package_parts = parts if is_init else parts[:-1]
    names: Dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    names[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                if len(package_parts) < node.level - 1:
                    continue  # escapes the linted tree; unresolvable
                base_parts = package_parts[
                    : len(package_parts) - (node.level - 1)
                ]
                if node.module:
                    base_parts = base_parts + node.module.split(".")
                base = ".".join(base_parts)
            else:
                base = node.module or ""
            if not base:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                names[local] = f"{base}.{alias.name}"
    return names


def resolve(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Canonical dotted path of a Name/Attribute chain, if import-bound."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute):
        base = resolve(node.value, aliases)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


# ----------------------------------------------------------------------
# The intraprocedural pass
# ----------------------------------------------------------------------

class _ScopeTaint:
    """Taint state while walking one function (or the module body)."""

    def __init__(
        self,
        module: ModuleInfo,
        aliases: Dict[str, str],
        function: Optional[str],
    ) -> None:
        self.module = module
        self.aliases = aliases
        self.function = function
        self.tainted: Dict[str, str] = {}  # name -> origin description
        self.candidates: List[Dict[str, object]] = []

    # -- expression-level taint ----------------------------------------
    def expr_origin(self, expr: Optional[ast.AST]) -> Optional[str]:
        """Origin description if ``expr`` carries taint, else ``None``."""
        if expr is None:
            return None
        for node in ast.walk(expr):
            if isinstance(node, (ast.Name, ast.Attribute)):
                canonical = resolve(node, self.aliases)
                if canonical is not None:
                    origin = source_origin(canonical)
                    if origin is not None:
                        return origin
            if isinstance(node, ast.Name) and node.id in self.tainted:
                return self.tainted[node.id]
        return None

    # -- sinks ---------------------------------------------------------
    def scan_sinks(self, root: ast.AST) -> None:
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            canonical = resolve(node.func, self.aliases)
            if canonical is None or canonical not in _SINKS:
                continue
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                origin = self.expr_origin(arg)
                if origin is not None:
                    self.candidates.append(
                        {
                            "kind": "sink",
                            "line": node.lineno,
                            "snippet": self.module.snippet(node.lineno),
                            "origin": origin,
                            "sink": _SINKS[canonical],
                            "function": self.function,
                        }
                    )
                    break

    # -- statement walk ------------------------------------------------
    def _assign_names(self, target: ast.AST) -> List[str]:
        names: List[str] = []
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                names.append(node.id)
        return names

    def run(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            # Nested function/class bodies are separate scopes (each
            # function gets its own pass in :func:`taint_candidates`).
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(stmt, (ast.If, ast.While)):
                self.scan_sinks(stmt.test)
                self.run(stmt.body)
                self.run(stmt.orelse)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self.scan_sinks(stmt.iter)
                origin = self.expr_origin(stmt.iter)
                if origin is not None:
                    for name in self._assign_names(stmt.target):
                        self.tainted[name] = origin
                self.run(stmt.body)
                self.run(stmt.orelse)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self.scan_sinks(item.context_expr)
                    if item.optional_vars is not None:
                        origin = self.expr_origin(item.context_expr)
                        if origin is not None:
                            for name in self._assign_names(
                                item.optional_vars
                            ):
                                self.tainted[name] = origin
                self.run(stmt.body)
            elif isinstance(stmt, ast.Try):
                self.run(stmt.body)
                for handler in stmt.handlers:
                    self.run(handler.body)
                self.run(stmt.orelse)
                self.run(stmt.finalbody)
            elif isinstance(stmt, ast.Assign):
                self.scan_sinks(stmt)
                self._apply_assign(stmt.targets, stmt.value)
            elif isinstance(stmt, ast.AnnAssign):
                self.scan_sinks(stmt)
                if stmt.value is not None:
                    self._apply_assign([stmt.target], stmt.value)
            elif isinstance(stmt, ast.AugAssign):
                self.scan_sinks(stmt)
                origin = self.expr_origin(stmt.value)
                if origin is not None:
                    for name in self._assign_names(stmt.target):
                        self.tainted[name] = origin
            elif isinstance(stmt, ast.Return):
                self.scan_sinks(stmt)
                origin = self.expr_origin(stmt.value)
                if origin is not None and self.function is not None:
                    line = stmt.lineno
                    self.candidates.append(
                        {
                            "kind": "return",
                            "line": line,
                            "snippet": self.module.snippet(line),
                            "origin": origin,
                            "function": self.function,
                        }
                    )
            else:
                # Simple statement (Expr, Assert, Raise, Delete, ...):
                # no nested statement lists, safe to walk whole.
                self.scan_sinks(stmt)

    def _apply_assign(
        self, targets: List[ast.AST], value: ast.AST
    ) -> None:
        origin = self.expr_origin(value)
        for target in targets:
            for name in self._assign_names(target):
                if origin is not None:
                    self.tainted[name] = origin
                else:
                    self.tainted.pop(name, None)


def taint_candidates(
    module: ModuleInfo, dotted_module: Optional[str]
) -> List[Dict[str, object]]:
    """All taint candidates for one parsed file (JSON-serialisable).

    The pass never flags files under ``perf``/``obs``/``analysis`` —
    those layers *are* the sanctioned consumers of wall-clock and
    environment state.
    """
    exempt_heads = ("perf.py", "obs/", "analysis/", "cli.py")
    if module.path.startswith(exempt_heads):
        return []
    is_init = module.path.endswith("__init__.py")
    aliases = collect_aliases(module.nodes, dotted_module, is_init)
    candidates: List[Dict[str, object]] = []

    module_scope = _ScopeTaint(module, aliases, function=None)
    module_scope.run(
        [
            stmt
            for stmt in module.tree.body
            if not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ]
    )
    candidates.extend(module_scope.candidates)

    for node in module.nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = _ScopeTaint(module, aliases, function=node.name)
            scope.run(node.body)
            candidates.extend(scope.candidates)
    return candidates

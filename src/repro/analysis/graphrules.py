"""Whole-program rules RL108-RL111 built on the import graph.

RL108 (fingerprint-completeness), RL109 (determinism-taint) and RL111
(exec-backend discipline) are tree checkers over
:class:`~repro.analysis.graph.Program`; RL110 (obs-guard discipline)
is a module checker restricted to the hot-path files where a missed
guard costs real time.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence

from .base import (
    Finding,
    ModuleChecker,
    ModuleInfo,
    Rule,
    TreeChecker,
    register_checker,
)
from .graph import PACKAGE, Program

__all__ = [
    "DeterminismTaintChecker",
    "ExecBackendDisciplineChecker",
    "FingerprintCompletenessChecker",
    "ObsGuardChecker",
    "ENTRY_MODULES",
    "EXEC_PATH_PREFIX",
    "PRUNE_PREFIXES",
]

#: Root-relative path of the fingerprint module the tuples live in.
FINGERPRINT_PATH = "store/fingerprint.py"

#: Fingerprint tuple → the entry module whose static import closure it
#: must cover (``api.solve`` → engine, ``run_campaign`` → measurements,
#: chaos runs → faults).
ENTRY_MODULES = {
    "SOLVER_CODE_MODULES": "repro.engine.batch",
    "CAMPAIGN_CODE_MODULES": "repro.measurements.batch",
    "CHAOS_CODE_MODULES": "repro.faults.chaos",
    "RELAY_CODE_MODULES": "repro.relay.batch",
}

#: Layers whose *outgoing* imports are not followed when computing a
#: closure, and which never need fingerprint coverage themselves:
#: caching, observability, reporting and CLI plumbing are
#: result-neutral by contract (the store layer importing the engine
#: must not drag the engine into every closure that merely caches).
#: ``repro.exec`` qualifies because serial and pooled execution are
#: pinned byte-identical by the invariance suites — scheduling can
#: never change a cached result.  The bare package root is pruned too
#: (exact match — see :meth:`ImportGraph.closure`).
PRUNE_PREFIXES = (
    PACKAGE,
    "repro.perf",
    "repro.obs",
    "repro.exec",
    "repro.store",
    "repro.analysis",
    "repro.report",
    "repro.api",
    "repro.cli",
    "repro.experiments",
)


def _covered(module: str, entries: Iterable[str]) -> bool:
    return any(
        module == entry or module.startswith(entry + ".")
        for entry in entries
    )


def _exempt(module: str) -> bool:
    """True for modules the fingerprint never needs to cover.

    The package root matches exactly (as a prefix it would exempt
    every module); the other pruned layers exempt their whole subtree.
    """
    for prefix in PRUNE_PREFIXES:
        if module == prefix:
            return True
        if prefix != PACKAGE and module.startswith(prefix + "."):
            return True
    return False


# ----------------------------------------------------------------------
# RL108 — fingerprint completeness
# ----------------------------------------------------------------------

@register_checker
class FingerprintCompletenessChecker(TreeChecker):
    """RL108: every cacheable entry point's import closure is keyed.

    The store invalidates cached results by hashing the source of the
    ``*_CODE_MODULES`` tuples in :mod:`repro.store.fingerprint`.  A
    module that the solver/campaign/chaos entry point (transitively,
    statically) imports but that the tuple does not cover is a
    *stale-cache bug*: editing it changes results without changing the
    key.  The reverse — a tuple entry matching nothing in the closure
    — is a warning: dead entries dilute the fingerprint and mask real
    gaps.
    """

    rule = Rule(
        id="RL108",
        name="fingerprint-completeness",
        summary=(
            "each *_CODE_MODULES tuple must cover the static import "
            "closure of its entry module (missing = stale-cache bug)"
        ),
    )

    def check_program(self, program: Program) -> List[Finding]:
        fingerprint = program.summary(FINGERPRINT_PATH)
        if fingerprint is None:
            return []
        graph = program.graph
        findings: List[Finding] = []
        for tuple_name, entry in sorted(ENTRY_MODULES.items()):
            declared = fingerprint.str_tuples.get(tuple_name)
            if declared is None or entry not in graph:
                continue
            closure = graph.closure(entry, prune=PRUNE_PREFIXES)
            required = sorted(
                module
                for module in closure
                if not _exempt(module)
                and not graph.by_module[module].is_shim
            )
            for module in required:
                if _covered(module, declared.values):
                    continue
                findings.append(
                    Finding(
                        rule=self.rule.id,
                        path=fingerprint.path,
                        line=declared.line,
                        message=(
                            f"{tuple_name} is missing '{module}': it is "
                            f"in the static import closure of {entry} "
                            "but not fingerprinted, so cached results "
                            "would survive edits to it (stale-cache "
                            "bug) — add it to the tuple"
                        ),
                        snippet=declared.snippet,
                    )
                )
            for declared_entry in declared.values:
                if any(_covered(m, (declared_entry,)) for m in closure):
                    continue
                findings.append(
                    Finding(
                        rule=self.rule.id,
                        path=fingerprint.path,
                        line=declared.line,
                        message=(
                            f"{tuple_name} entry '{declared_entry}' "
                            "matches nothing in the static import "
                            f"closure of {entry}; dead fingerprint "
                            "entries mask real coverage gaps — remove "
                            "or fix it"
                        ),
                        snippet=declared.snippet,
                        severity="warning",
                    )
                )
        return findings


# ----------------------------------------------------------------------
# RL109 — determinism taint
# ----------------------------------------------------------------------

@register_checker
class DeterminismTaintChecker(TreeChecker):
    """RL109: wall-clock/entropy/env values never reach results or keys.

    Turns the per-module taint candidates collected by
    :mod:`repro.analysis.taint` into findings.  ``sink`` candidates (a
    tainted value handed to ``config_key`` or a ``RunManifest``) are
    violations anywhere; ``return`` candidates (a function returning a
    tainted value) are violations only inside modules the fingerprint
    tuples mark as cacheable — their results feed the store, so they
    must be pure functions of (config, seed, code).  The sanctioned
    routes — :data:`repro.perf.wall_clock` for timing, seeded
    streams from :mod:`repro.sim.random` — resolve to non-source paths
    and never trip the rule.
    """

    rule = Rule(
        id="RL109",
        name="determinism-taint",
        summary=(
            "wall-clock/entropy/env reads must not flow into solver "
            "results, manifests or store keys (use repro.perf or "
            "seeded streams)"
        ),
    )

    def check_program(self, program: Program) -> List[Finding]:
        fingerprint = program.summary(FINGERPRINT_PATH)
        cacheable: List[str] = []
        if fingerprint is not None:
            for tuple_name in ENTRY_MODULES:
                declared = fingerprint.str_tuples.get(tuple_name)
                if declared is not None:
                    cacheable.extend(declared.values)
        findings: List[Finding] = []
        for path in sorted(program.summaries):
            summary = program.summaries[path]
            for candidate in summary.taint:
                kind = candidate.get("kind")
                origin = str(candidate.get("origin", "a nondeterministic source"))
                line = int(candidate.get("line", 0))
                snippet = str(candidate.get("snippet", ""))
                if kind == "sink":
                    sink = str(candidate.get("sink", "a persistent sink"))
                    findings.append(
                        Finding(
                            rule=self.rule.id,
                            path=path,
                            line=line,
                            message=(
                                f"value from {origin} reaches {sink}; "
                                "store keys and manifests must be pure "
                                "functions of (config, seed, code) — "
                                "route timing through repro.perf and "
                                "randomness through seeded streams"
                            ),
                            snippet=snippet,
                        )
                    )
                elif (
                    kind == "return"
                    and summary.module is not None
                    and _covered(summary.module, cacheable)
                ):
                    function = str(candidate.get("function", "?"))
                    findings.append(
                        Finding(
                            rule=self.rule.id,
                            path=path,
                            line=line,
                            message=(
                                f"'{function}' in fingerprinted module "
                                f"{summary.module} returns a value from "
                                f"{origin}; cacheable results must be "
                                "bit-deterministic — keep wall-clock "
                                "timing in repro.obs spans"
                            ),
                            snippet=snippet,
                        )
                    )
        return findings


# ----------------------------------------------------------------------
# RL111 — exec-backend discipline
# ----------------------------------------------------------------------

#: The one root-relative subtree allowed to construct worker pools.
EXEC_PATH_PREFIX = "exec/"


@register_checker
class ExecBackendDisciplineChecker(TreeChecker):
    """RL111: worker pools are built only inside ``repro/exec/``.

    The execution backend is the single owner of process pools: it
    amortises spawn cost across call sites, guards against fork
    hazards, recovers from worker crashes, and keeps dispatch
    result-neutral.  A ``ProcessPoolExecutor`` or
    ``multiprocessing.Pool`` constructed anywhere else reintroduces
    exactly the per-call spawn + pickle overhead the backend exists to
    remove — and dodges its determinism and recovery contracts.  Route
    the work through :func:`repro.exec.default_backend` /
    :func:`repro.exec.backend_for` instead (thread pools for
    GIL-releasing NumPy stages go through ``thread_map``).
    """

    rule = Rule(
        id="RL111",
        name="exec-backend-discipline",
        summary=(
            "ProcessPoolExecutor/multiprocessing.Pool must only be "
            "constructed inside repro/exec/ — go through the "
            "execution backend"
        ),
    )

    def check_program(self, program: Program) -> List[Finding]:
        findings: List[Finding] = []
        for path in sorted(program.summaries):
            if path.startswith(EXEC_PATH_PREFIX):
                continue
            summary = program.summaries[path]
            for site in summary.pool_calls:
                name = str(site.get("name", "a worker pool"))
                findings.append(
                    Finding(
                        rule=self.rule.id,
                        path=path,
                        line=int(site.get("line", 0)),
                        message=(
                            f"direct {name} construction outside "
                            "repro/exec/; use the shared execution "
                            "backend (repro.exec.default_backend / "
                            "backend_for) so pools are reused, "
                            "fork-safe and crash-recovering"
                        ),
                        snippet=str(site.get("snippet", "")),
                    )
                )
        return findings


# ----------------------------------------------------------------------
# RL110 — obs-guard discipline
# ----------------------------------------------------------------------

#: Hot-path files where an unguarded ``obs.*`` call costs per-decision
#: or per-event time even when observability is disabled.
HOT_PATH_FILES = (
    "engine/batch.py",
    "sim/kernel.py",
    "measurements/batch.py",
    "store/incremental.py",
    "faults/chaos.py",
)

_TERMINATORS = (ast.Return, ast.Raise, ast.Continue, ast.Break)


def _optional_annotation(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    try:
        text = ast.unparse(annotation)
    except Exception:  # pragma: no cover - malformed annotation
        return False
    return "Optional" in text or "None" in text


def _obs_param(
    fn: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> Optional[str]:
    """``"optional"`` / ``"required"`` for an ``obs`` parameter, or None."""
    args = fn.args
    positional = args.posonlyargs + args.args
    offset = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional):
        if arg.arg != "obs":
            continue
        default = (
            args.defaults[index - offset] if index >= offset else None
        )
        if (
            isinstance(default, ast.Constant) and default.value is None
        ) or _optional_annotation(arg.annotation):
            return "optional"
        return "required"
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if arg.arg != "obs":
            continue
        if (
            isinstance(default, ast.Constant) and default.value is None
        ) or _optional_annotation(arg.annotation):
            return "optional"
        return "required"
    return None


class _GuardWalker:
    """Walk one scope tracking whether ``obs is not None`` is proven."""

    def __init__(self, module: ModuleInfo, rule: str) -> None:
        self.module = module
        self.rule = rule
        self.findings: List[Finding] = []
        #: Boolean locals assigned from an ``obs is (not) None`` test:
        #: name → "pos" (truthy ⇒ obs present) / "neg" (truthy ⇒ absent).
        self.flags: Dict[str, str] = {}

    # -- test classification -------------------------------------------
    def _test_kind(self, expr: ast.expr) -> Optional[str]:
        """"pos" if truth implies obs is not None, "neg" if obs is None."""
        if isinstance(expr, ast.Compare) and len(expr.ops) == 1:
            left, (op,), (right,) = expr.left, expr.ops, expr.comparators
            if (
                isinstance(left, ast.Name)
                and left.id == "obs"
                and isinstance(right, ast.Constant)
                and right.value is None
            ):
                return "pos" if isinstance(op, ast.IsNot) else (
                    "neg" if isinstance(op, ast.Is) else None
                )
        if isinstance(expr, ast.Name):
            return self.flags.get(expr.id)
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
            inner = self._test_kind(expr.operand)
            if inner == "pos":
                return "neg"
            if inner == "neg":
                return "pos"
        if isinstance(expr, ast.BoolOp):
            if isinstance(expr.op, ast.And):
                # Truth of a conjunction implies each operand: an
                # ``obs is not None`` member makes the whole test "pos".
                for operand in expr.values:
                    if self._test_kind(operand) == "pos":
                        return "pos"
            else:
                # Falsity of a disjunction implies each operand false:
                # ``obs is None or obs.metrics is None`` is "neg" — the
                # else/fall-through side proves obs is not None.
                for operand in expr.values:
                    if self._test_kind(operand) == "neg":
                        return "neg"
        return None

    # -- expression checking -------------------------------------------
    def check_expr(self, expr: Optional[ast.expr], guarded: bool) -> None:
        if expr is None:
            return
        if isinstance(expr, ast.BoolOp):
            state = guarded
            for operand in expr.values:
                self.check_expr(operand, state)
                kind = self._test_kind(operand)
                if isinstance(expr.op, ast.And) and kind == "pos":
                    state = True
                elif isinstance(expr.op, ast.Or) and kind == "neg":
                    state = True
            return
        if isinstance(expr, ast.IfExp):
            kind = self._test_kind(expr.test)
            self.check_expr(expr.test, guarded)
            self.check_expr(expr.body, guarded or kind == "pos")
            self.check_expr(expr.orelse, guarded or kind == "neg")
            return
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "obs"
        ):
            if not guarded:
                self.findings.append(
                    self.module.finding(
                        self.rule,
                        expr,
                        (
                            f"`obs.{expr.attr}` is not behind the "
                            "`obs is None` zero-cost guard; hot-path "
                            "observability must reduce to a pointer "
                            "check when disabled (see docs/"
                            "OBSERVABILITY.md)"
                        ),
                    )
                )
            # Do not descend — obs.metrics.counter(...) is one use.
            self.check_expr_children(expr.value, guarded)
            return
        self.check_expr_children(expr, guarded)

    def check_expr_children(
        self, expr: ast.expr, guarded: bool
    ) -> None:
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self.check_expr(child, guarded)
            elif isinstance(child, ast.keyword):
                self.check_expr(child.value, guarded)
            elif isinstance(child, ast.comprehension):
                self.check_expr(child.iter, guarded)
                for cond in child.ifs:
                    self.check_expr(cond, guarded)

    # -- statement walk ------------------------------------------------
    def _terminates(self, body: Sequence[ast.stmt]) -> bool:
        return bool(body) and isinstance(body[-1], _TERMINATORS)

    def walk(self, body: Sequence[ast.stmt], guarded: bool) -> bool:
        """Walk statements; returns the guard state after the block."""
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # nested scopes analysed independently
            if isinstance(stmt, ast.If):
                kind = self._test_kind(stmt.test)
                self.check_expr(stmt.test, guarded)
                self.walk(stmt.body, guarded or kind == "pos")
                self.walk(stmt.orelse, guarded or kind == "neg")
                if (
                    kind == "neg"
                    and self._terminates(stmt.body)
                    and not stmt.orelse
                ):
                    guarded = True  # early-exit pattern: rest is guarded
                continue
            if isinstance(stmt, (ast.While,)):
                self.check_expr(stmt.test, guarded)
                self.walk(stmt.body, guarded)
                self.walk(stmt.orelse, guarded)
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                self.check_expr(stmt.iter, guarded)
                self.walk(stmt.body, guarded)
                self.walk(stmt.orelse, guarded)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self.check_expr(item.context_expr, guarded)
                self.walk(stmt.body, guarded)
                continue
            if isinstance(stmt, ast.Try):
                self.walk(stmt.body, guarded)
                for handler in stmt.handlers:
                    self.walk(handler.body, guarded)
                self.walk(stmt.orelse, guarded)
                self.walk(stmt.finalbody, guarded)
                continue
            if isinstance(stmt, ast.Assign):
                kind = (
                    self._test_kind(stmt.value)
                    if len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    else None
                )
                if kind is not None:
                    self.flags[stmt.targets[0].id] = kind  # type: ignore[union-attr]
                self.check_expr(stmt.value, guarded)
                continue
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.check_expr(child, guarded)
        return guarded


def _scope_statements(body: Sequence[ast.stmt]) -> "List[ast.stmt]":
    """All statements of one scope, nested def/class bodies excluded."""
    out: List[ast.stmt] = []
    for stmt in body:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        out.append(stmt)
        for field_name in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, field_name, None)
            if inner:
                out.extend(_scope_statements(inner))
        for handler in getattr(stmt, "handlers", []) or []:
            out.extend(_scope_statements(handler.body))
    return out


def _scope_binds_optional_obs(
    fn: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> bool:
    """True when this scope's ``obs`` may legitimately be ``None``."""
    param = _obs_param(fn)
    if param == "required":
        return False
    may_be_none = param == "optional"
    for stmt in _scope_statements(fn.body):
        if not isinstance(stmt, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "obs"
            for t in stmt.targets
        ):
            continue
        value = stmt.value
        if isinstance(value, ast.Attribute) and value.attr == "obs":
            may_be_none = True  # obs = self.obs (Optional field)
        elif isinstance(value, ast.Call):
            return False  # obs = ObsContext.enabled(...): concrete
    return may_be_none


@register_checker
class ObsGuardChecker(ModuleChecker):
    """RL110: hot-path ``obs.*`` uses sit behind the zero-cost guard.

    The observability contract (docs/OBSERVABILITY.md) promises that a
    disabled ``ObsContext`` costs one pointer comparison per decision.
    That only holds if every ``obs.<attr>`` access in the hot paths is
    dominated by an ``obs is not None`` test — via a guarding ``if``,
    an ``and``-chain, a ternary, an early ``return`` on ``obs is
    None``, or a boolean flag derived from the test.  Scopes where
    ``obs`` is provably non-None (required parameter, freshly
    constructed) are exempt.
    """

    rule = Rule(
        id="RL110",
        name="obs-guard-discipline",
        summary=(
            "hot-path obs.* call sites must be behind the `obs is "
            "None` zero-cost guard pattern"
        ),
    )

    def check_module(self, module: ModuleInfo) -> List[Finding]:
        if module.path not in HOT_PATH_FILES:
            return []
        findings: List[Finding] = []
        for node in module.nodes:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if not _scope_binds_optional_obs(node):
                continue
            walker = _GuardWalker(module, self.rule.id)
            walker.walk(node.body, guarded=False)
            findings.extend(walker.findings)
        return findings

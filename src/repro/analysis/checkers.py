"""Module-level domain checkers: RL101-RL104, RL106 and RL107.

Each checker resolves names through the file's import-alias map
(:attr:`~repro.analysis.base.ModuleInfo.aliases`, built once per file), so
``import numpy as np`` / ``from numpy import random as npr`` / ``from
time import perf_counter`` are all seen as their canonical dotted path
before matching — the rules fire on *semantics*, not on spelling.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from .base import (
    Finding,
    ModuleChecker,
    ModuleInfo,
    Rule,
    register_checker,
)
from .taint import resolve as _resolve

__all__ = [
    "RngDisciplineChecker",
    "SimTimePurityChecker",
    "StoreAtomicIoChecker",
    "UnitSuffixChecker",
    "FloatEqualityChecker",
    "WallClockDisciplineChecker",
    "unit_suffix",
]


# ----------------------------------------------------------------------
# RL101 — rng discipline
# ----------------------------------------------------------------------

#: numpy.random members that construct generators from explicit seeds
#: (types and bit generators) — allowed anywhere, e.g. in annotations.
_NP_RANDOM_ALLOWED = {
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
}

#: Files where raw generator construction is the whole point.
_RNG_ALLOWED_FILES = {"sim/random.py"}


@register_checker
class RngDisciplineChecker(ModuleChecker):
    """RL101: all randomness flows through the seeded stream registry.

    ``np.random.default_rng``, the legacy module-level samplers
    (``np.random.normal`` etc., ``np.random.RandomState``) and the
    stdlib :mod:`random` module all mint hidden, unregistered entropy.
    That silently breaks the scalar↔batch lockstep-equivalence
    contract and the fork-per-shard independence of campaign workers —
    every generator must be an injected
    :class:`numpy.random.Generator` drawn from a named
    :class:`repro.sim.random.RandomStreams` stream.
    """

    rule = Rule(
        id="RL101",
        name="rng-discipline",
        summary=(
            "randomness must come from the seeded stream registry "
            "(repro.sim.random), never module-level RNGs"
        ),
    )

    def check_module(self, module: ModuleInfo) -> List[Finding]:
        if module.path in _RNG_ALLOWED_FILES:
            return []
        aliases = module.aliases
        findings: List[Finding] = []
        for node in module.nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                findings.extend(self._check_import(module, node))
            elif isinstance(node, ast.Attribute):
                canonical = _resolve(node, aliases)
                if canonical is None:
                    continue
                message = self._violation(canonical)
                if message is not None:
                    findings.append(
                        module.finding(self.rule.id, node, message)
                    )
        return findings

    def _check_import(self, module: ModuleInfo, node: ast.AST) -> List[Finding]:
        names: List[str] = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module == "random":
                names = ["random"]
            elif node.module in ("numpy.random", "numpy"):
                names = [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
        out = []
        for name in names:
            message = None
            if name == "random" or name.startswith("random."):
                message = (
                    "stdlib 'random' is unseeded and unregistered; draw "
                    "from repro.sim.random.RandomStreams instead"
                )
            elif name.startswith("numpy.random."):
                message = self._violation(name)
            if message is not None:
                out.append(module.finding(self.rule.id, node, message))
        return out

    @staticmethod
    def _violation(canonical: str) -> Optional[str]:
        if canonical == "random" or canonical.startswith("random."):
            return (
                "stdlib 'random' is unseeded and unregistered; draw from "
                "repro.sim.random.RandomStreams instead"
            )
        if canonical.startswith("numpy.random."):
            member = canonical.split(".")[2]
            if member in _NP_RANDOM_ALLOWED:
                return None
            if member == "default_rng":
                return (
                    "np.random.default_rng mints an unregistered "
                    "generator; inject a Generator from "
                    "repro.sim.random.RandomStreams instead"
                )
            return (
                f"module-level np.random.{member} bypasses the seeded "
                "stream registry; use an injected Generator from "
                "repro.sim.random.RandomStreams"
            )
        return None


# ----------------------------------------------------------------------
# RL102 — simulated-time purity
# ----------------------------------------------------------------------

#: Wall-clock sources forbidden inside simulation packages.
_WALL_CLOCKS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Packages whose code runs on the simulated clock.
_SIM_PACKAGES = ("sim/", "net/", "phy/", "channel/", "mac/")

#: Files allowed to read wall clocks (performance instrumentation).
_TIME_ALLOWED_FILES = {"perf.py"}


@register_checker
class SimTimePurityChecker(ModuleChecker):
    """RL102: simulated time never touches wall-clock time.

    Inside ``sim/``, ``net/``, ``phy/``, ``channel/`` and ``mac/``,
    time is the kernel's ``now_s`` — reading ``time.time`` or friends
    there couples results to host speed and destroys replayability.
    Performance instrumentation belongs in :mod:`repro.obs` spans or
    behind an explicit per-line suppression.
    """

    rule = Rule(
        id="RL102",
        name="sim-time-purity",
        summary=(
            "simulation packages must use the simulated clock, never "
            "time.time/monotonic/perf_counter or datetime.now"
        ),
    )

    def check_module(self, module: ModuleInfo) -> List[Finding]:
        if module.path in _TIME_ALLOWED_FILES:
            return []
        if not module.path.startswith(_SIM_PACKAGES):
            return []
        aliases = module.aliases
        findings: List[Finding] = []
        for node in module.nodes:
            canonical: Optional[str] = None
            if isinstance(node, ast.Attribute):
                canonical = _resolve(node, aliases)
            elif isinstance(node, ast.Name):
                canonical = aliases.get(node.id)
            if canonical in _WALL_CLOCKS:
                findings.append(
                    module.finding(
                        self.rule.id,
                        node,
                        f"wall-clock read ({canonical}) inside simulation "
                        "code; use the kernel's simulated now_s (or move "
                        "instrumentation to a repro.obs span)",
                    )
                )
        return findings


# ----------------------------------------------------------------------
# RL106 — wall-clock discipline (instrumentation outside sim packages)
# ----------------------------------------------------------------------

#: Modules allowed to read wall clocks directly: :mod:`repro.perf`,
#: which defines the sanctioned ``repro.perf.wall_clock`` alias, and the
#: observability package built on top of it.
_CLOCK_ALLOWED_FILES = {"perf.py"}
_CLOCK_ALLOWED_PREFIXES = ("obs/",)


@register_checker
class WallClockDisciplineChecker(ModuleChecker):
    """RL106: all wall-clock reads flow through ``repro.perf.wall_clock``.

    RL102 keeps wall clocks out of the *simulation* packages entirely;
    RL106 covers everything else.  Instrumentation code may time itself,
    but only through the sanctioned :data:`repro.perf.wall_clock` alias
    (or a :mod:`repro.obs` tracer span built on it) —
    a bare ``time.perf_counter()`` is untraceable by the observability
    layer and invisible to run manifests.  Only :mod:`repro.perf`
    itself and the :mod:`repro.obs` package touch :mod:`time` directly.
    """

    rule = Rule(
        id="RL106",
        name="wall-clock-discipline",
        summary=(
            "wall-clock reads outside repro.perf / repro.obs must use "
            "repro.perf.wall_clock, never bare time.perf_counter et al."
        ),
    )

    def check_module(self, module: ModuleInfo) -> List[Finding]:
        if module.path in _CLOCK_ALLOWED_FILES:
            return []
        if module.path.startswith(_CLOCK_ALLOWED_PREFIXES):
            return []
        if module.path.startswith(_SIM_PACKAGES):
            return []  # RL102 territory: wall clocks are banned outright
        aliases = module.aliases
        findings: List[Finding] = []
        for node in module.nodes:
            canonical: Optional[str] = None
            if isinstance(node, ast.Attribute):
                canonical = _resolve(node, aliases)
            elif isinstance(node, ast.Name):
                canonical = aliases.get(node.id)
            if canonical in _WALL_CLOCKS:
                findings.append(
                    module.finding(
                        self.rule.id,
                        node,
                        f"bare wall-clock read ({canonical}); use "
                        "repro.perf.wall_clock (or a repro.obs span) so "
                        "the observability layer can account for it",
                    )
                )
        return findings


# ----------------------------------------------------------------------
# RL107 — store atomic I/O
# ----------------------------------------------------------------------

#: The persistent result store's package (module paths are src/repro-
#: relative POSIX).
_STORE_PREFIX = "store/"

#: The one module under the store allowed to open files for writing:
#: it implements the tmp+rename discipline everything else must use.
_STORE_WRITE_ALLOWED_FILES = {"store/atomic.py"}

#: Low-level calls that create/rename writable files or descriptors.
_OS_WRITE_CALLS = {"os.open", "os.fdopen", "os.replace", "os.rename"}

#: Path methods that write through a filename in one call.
_PATH_WRITE_METHODS = {"write_text", "write_bytes"}


def _open_mode(node: ast.Call, mode_position: int) -> Optional[str]:
    """The mode of an ``open``-style call: a constant string, ``"r"``
    when omitted, or ``None`` when dynamic (unresolvable)."""
    mode: Optional[ast.AST] = None
    if len(node.args) > mode_position:
        mode = node.args[mode_position]
    else:
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
                break
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


def _is_write_mode(mode: Optional[str]) -> bool:
    # A dynamic mode counts as a write: the safe direction for a rule
    # guarding crash-safety.
    if mode is None:
        return True
    return any(flag in mode for flag in "wax+")


@register_checker
class StoreAtomicIoChecker(ModuleChecker):
    """RL107: every store write goes through ``repro.store.atomic``.

    The store's crash-safety argument — a reader sees the old entry,
    the new entry, or nothing, never a torn file — holds only while
    every byte written under :mod:`repro.store` flows through the
    tmp+rename helpers in ``store/atomic.py``.  A direct write-mode
    ``open()``, ``os.open``, or ``Path.write_text`` anywhere else in
    the package reintroduces the torn-file window the helper exists to
    close.  Reads stay unrestricted (rename atomicity makes any
    visible file whole).
    """

    rule = Rule(
        id="RL107",
        name="store-atomic-io",
        summary=(
            "file writes under repro.store must go through the "
            "atomic-write helpers in store/atomic.py, never direct "
            "open()/os.open/Path.write_* calls"
        ),
    )

    def check_module(self, module: ModuleInfo) -> List[Finding]:
        if not module.path.startswith(_STORE_PREFIX):
            return []
        if module.path in _STORE_WRITE_ALLOWED_FILES:
            return []
        aliases = module.aliases
        findings: List[Finding] = []
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            message = self._violation(node, aliases)
            if message is not None:
                findings.append(module.finding(self.rule.id, node, message))
        return findings

    @staticmethod
    def _violation(
        node: ast.Call, aliases: Dict[str, str]
    ) -> Optional[str]:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id == "open"
            and func.id not in aliases
        ):
            # Builtin open(path, mode): mode is the second positional.
            if _is_write_mode(_open_mode(node, mode_position=1)):
                return (
                    "write-mode open() under repro.store; use "
                    "atomic_write_bytes/atomic_write_text from "
                    "repro.store.atomic"
                )
            return None
        canonical = _resolve(func, aliases)
        if canonical in _OS_WRITE_CALLS:
            return (
                f"{canonical} under repro.store bypasses the tmp+rename "
                "discipline; use repro.store.atomic"
            )
        if isinstance(func, ast.Attribute) and canonical is None:
            if func.attr in _PATH_WRITE_METHODS:
                return (
                    f".{func.attr}() under repro.store bypasses the "
                    "tmp+rename discipline; use repro.store.atomic"
                )
            if func.attr == "open" and _is_write_mode(
                # Path.open(mode=...): mode is the first positional.
                _open_mode(node, mode_position=0)
            ):
                return (
                    "write-mode .open() under repro.store; use "
                    "atomic_write_bytes/atomic_write_text from "
                    "repro.store.atomic"
                )
        return None


# ----------------------------------------------------------------------
# RL103 — unit-suffix discipline
# ----------------------------------------------------------------------

#: Logarithmic (decibel-family) suffixes: additively compatible with
#: each other (dBm + dBi = dBm), never directly with linear units.
_DB_SUFFIXES = ("_dbm", "_dbi", "_db")

#: Linear unit suffixes, longest first so ``_mbps`` wins over ``_bps``
#: and ``_ms`` over ``_s``.
_LINEAR_SUFFIXES = (
    "_bytes", "_byte", "_bits", "_bit",
    "_mbps", "_kbps", "_gbps", "_bps",
    "_mps", "_kmh",
    "_ghz", "_mhz", "_khz", "_hz",
    "_mah", "_wh", "_mw",
    "_deg", "_rad",
    "_gb", "_mb", "_kb",
    "_km", "_mm", "_um",
    "_ms", "_us", "_ns",
    "_m", "_s", "_w", "_j",
)

#: Converters whose presence in an expression legitimises db↔linear
#: mixing.
_CONVERTERS = {
    "db_to_linear", "linear_to_db", "to_db", "from_db", "db2lin", "lin2db",
}

#: Substrings marking a config field as dimensionless (no suffix needed).
_DIMENSIONLESS_MARKERS = (
    "probability", "prob", "fraction", "ratio", "factor", "efficiency",
    "exponent", "level", "weight", "coeff", "alpha", "beta", "gamma",
    "count", "index", "streak", "threshold", "seed", "size", "gain",
)


def unit_suffix(name: str) -> Optional[str]:
    """Canonical unit suffix of an identifier, or ``None`` if unsuffixed.

    Names containing ``_per_`` are rates across dimensions (e.g.
    ``slope_db_per_mps``) and classify as ``None`` — their dimension is
    not captured by the trailing token alone.
    """
    lowered = name.lower()
    if "_per_" in lowered:
        return None
    for suffix in _DB_SUFFIXES + _LINEAR_SUFFIXES:
        if lowered.endswith(suffix):
            return suffix
    return None


def _is_db(suffix: Optional[str]) -> bool:
    return suffix in _DB_SUFFIXES


def _operand_suffix(node: ast.AST) -> Optional[str]:
    """Unit suffix of a BinOp operand (terminal Name/Attribute only)."""
    if isinstance(node, ast.Name):
        return unit_suffix(node.id)
    if isinstance(node, ast.Attribute):
        return unit_suffix(node.attr)
    return None


def _calls_converter(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            func = child.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name in _CONVERTERS:
                return True
    return False


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


@register_checker
class UnitSuffixChecker(ModuleChecker):
    """RL103: dB and linear quantities never mix without conversion.

    The throughput law ``s(d)`` and the link budget live entirely in
    suffixed units (``_db``, ``_dbm``, ``_m``, ``_mbps`` ...).  Adding
    a dB name to a metre name, or multiplying dB by a linear quantity,
    is dimensionally meaningless and historically the most common way
    reproductions drift from the paper.  Config dataclasses must also
    suffix every float field so call sites can't guess units.
    """

    rule = Rule(
        id="RL103",
        name="unit-suffix-discipline",
        summary=(
            "no arithmetic mixing _db/_dbm with linear-suffixed names "
            "without conversion; config floats carry unit suffixes"
        ),
    )

    def check_module(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        for node in module.nodes:
            if isinstance(node, ast.BinOp):
                findings.extend(self._check_binop(module, node))
            elif isinstance(node, ast.ClassDef):
                findings.extend(self._check_config(module, node))
        return findings

    def _check_binop(
        self, module: ModuleInfo, node: ast.BinOp
    ) -> List[Finding]:
        if not isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
            return []
        left = _operand_suffix(node.left)
        right = _operand_suffix(node.right)
        if left is None or right is None:
            return []
        left_db, right_db = _is_db(left), _is_db(right)
        if left_db != right_db:
            # dB mixed with a linear unit, any operator.
            if _calls_converter(node):
                return []
            db_name = left if left_db else right
            lin_name = right if left_db else left
            return [
                module.finding(
                    self.rule.id,
                    node,
                    f"arithmetic mixes dB-domain '{db_name}' with linear "
                    f"'{lin_name}' without db_to_linear/linear_to_db",
                )
            ]
        if left_db and right_db:
            return []  # dB family is additively closed (dBm + dBi = dBm)
        if isinstance(node.op, (ast.Add, ast.Sub)) and left != right:
            return [
                module.finding(
                    self.rule.id,
                    node,
                    f"adding/subtracting mismatched units "
                    f"'{left}' and '{right}'",
                )
            ]
        return []

    def _check_config(
        self, module: ModuleInfo, node: ast.ClassDef
    ) -> List[Finding]:
        if not node.name.endswith("Config") or not _is_dataclass(node):
            return []
        findings = []
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            if not isinstance(stmt.target, ast.Name):
                continue
            if not (
                isinstance(stmt.annotation, ast.Name)
                and stmt.annotation.id == "float"
            ):
                continue
            if stmt.value is None or not isinstance(stmt.value, ast.Constant):
                continue
            if not isinstance(stmt.value.value, (int, float)):
                continue
            name = stmt.target.id
            lowered = name.lower()
            if unit_suffix(name) is not None or "_per_" in lowered:
                continue
            if any(marker in lowered for marker in _DIMENSIONLESS_MARKERS):
                continue
            findings.append(
                module.finding(
                    self.rule.id,
                    stmt,
                    f"config field '{node.name}.{name}' defaults a "
                    "physical quantity without a unit suffix "
                    "(_db, _m, _s, _mbps, ...)",
                )
            )
        return findings


# ----------------------------------------------------------------------
# RL104 — float equality
# ----------------------------------------------------------------------

@register_checker
class FloatEqualityChecker(ModuleChecker):
    """RL104: no exact ``==``/``!=`` against float literals.

    Measurement pipelines accumulate rounding error; comparing against
    ``0.0`` (or any float literal) makes behaviour depend on the exact
    operation order the optimiser or a refactor happens to produce.
    Use ``math.isclose`` or an explicit, documented tolerance.
    (Comparisons with ``float("inf")`` are exact by IEEE-754 and are
    not flagged — the literal heuristic only matches float constants.)
    """

    rule = Rule(
        id="RL104",
        name="float-equality",
        summary=(
            "no ==/!= comparisons against float literals; use "
            "math.isclose or a documented tolerance"
        ),
    )

    def check_module(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        for node in module.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, lhs, rhs in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (lhs, rhs):
                    if (
                        isinstance(side, ast.Constant)
                        and type(side.value) is float
                    ):
                        findings.append(
                            module.finding(
                                self.rule.id,
                                node,
                                "exact float comparison against "
                                f"{side.value!r}; use math.isclose or a "
                                "documented tolerance",
                            )
                        )
                        break
        return findings

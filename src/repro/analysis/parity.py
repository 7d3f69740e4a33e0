"""RL105 — scalar↔batch twin parity.

PR 2 established the lockstep contract: every ``Batch*`` engine class
reproduces its scalar twin bit for bit at ``n_replicas == 1``.  That
contract only holds while the twins expose the *same* public API — a
method added to the scalar class but not mirrored in the batch class
silently forks their behaviour, and no runtime test notices until the
divergent path is exercised.  RL105 turns the contract into a lint
rule:

* every class named ``Batch<X>`` with a scalar class ``<X>`` anywhere
  in the tree must mirror each of ``<X>``'s public methods, either
  under the same name or with a ``_batch``/``_array`` suffix
  (``sample_snr_db`` → ``sample_snr_db_batch``);
* mirrored signatures must agree parameter-for-parameter, modulo the
  array dimension: the batch side may add the batch-only parameters
  ``n_replicas`` and ``parallel``, and may pluralise a
  quantity (``scenario`` → ``scenarios``, ``distance_m`` →
  ``distances_m``); everything else must match in name and order
  (annotations and defaults are free to change from scalar to array);
* within a single class, a ``<m>_array``/``<m>_batch`` method whose
  scalar base ``<m>`` exists (e.g. :meth:`ErrorModel.per` /
  :meth:`ErrorModel.per_array`) is held to the same signature rule.

Classes whose scalar half would be ambiguous (several same-named
classes in different packages) are skipped rather than guessed.

The checker consumes the class/method surface recorded in each
:class:`~repro.analysis.graph.ModuleSummary` — never raw ASTs — so the
incremental runner can drive it entirely from cached summaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .base import Finding, Rule, TreeChecker, register_checker
from .graph import ClassSummary, MethodSummary, Program

__all__ = ["BatchTwinParityChecker", "ParityPair"]

#: Parameters the batch side may add anywhere in the signature
#: (replica count, fan-out control).
_BATCH_ONLY_PARAMS = {"n_replicas", "parallel"}

#: Suffixes under which a scalar method may be mirrored.
_MIRROR_SUFFIXES = ("", "_batch", "_array")


@dataclass(frozen=True)
class ParityPair:
    """One scalar↔batch pairing RL105 verified (for reporting)."""

    kind: str  # "class" or "method"
    scalar: str  # e.g. "net/link.py::WirelessLink"
    batch: str  # e.g. "net/batchlink.py::BatchWirelessLink"

    def to_dict(self) -> Dict[str, str]:
        return {"kind": self.kind, "scalar": self.scalar, "batch": self.batch}


@dataclass
class _ClassInfo:
    path: str
    summary: ClassSummary

    @property
    def methods(self) -> Dict[str, MethodSummary]:
        return self.summary.methods


def _strip_batch_only(params: List[str]) -> List[str]:
    return [p for p in params if p not in _BATCH_ONLY_PARAMS]


def _array_names(param: str) -> "set[str]":
    """Accepted batch-side spellings of a scalar parameter name.

    The array dimension may pluralise the quantity: ``scenario`` →
    ``scenarios``, and for unit-suffixed names the plural lands before
    the suffix (``distance_m`` → ``distances_m``).
    """
    names = {param, param + "s"}
    if "_" in param:
        stem, _, suffix = param.rpartition("_")
        if stem:
            names.add(f"{stem}s_{suffix}")
    return names


def _params_match(scalar_params: List[str], batch_params: List[str]) -> bool:
    """Positional name-for-name match, modulo the array dimension."""
    if len(scalar_params) != len(batch_params):
        return False
    return all(
        batch in _array_names(scalar)
        for scalar, batch in zip(scalar_params, batch_params)
    )


@register_checker
class BatchTwinParityChecker(TreeChecker):
    """RL105: every ``Batch*`` class mirrors its scalar twin's API."""

    rule = Rule(
        id="RL105",
        name="batch-twin-parity",
        summary=(
            "Batch* classes mirror their scalar twin's public methods "
            "and signatures modulo the array dimension"
        ),
    )

    def __init__(self) -> None:
        #: Pairings verified by the last :meth:`check_program` run.
        self.pairs: List[ParityPair] = []

    # ------------------------------------------------------------------
    def check_program(self, program: Program) -> List[Finding]:
        classes = self._collect_classes(program)
        findings: List[Finding] = []
        self.pairs = []
        for name, infos in sorted(classes.items()):
            for info in infos:
                findings.extend(self._check_method_twins(name, info))
                if name.startswith("Batch") and len(name) > len("Batch"):
                    findings.extend(
                        self._check_class_twin(name, info, classes)
                    )
        return findings

    # ------------------------------------------------------------------
    @staticmethod
    def _collect_classes(program: Program) -> Dict[str, List[_ClassInfo]]:
        classes: Dict[str, List[_ClassInfo]] = {}
        for path in sorted(program.summaries):
            for cls in program.summaries[path].classes:
                classes.setdefault(cls.name, []).append(
                    _ClassInfo(path=path, summary=cls)
                )
        return classes

    @staticmethod
    def _pick_scalar(
        batch: _ClassInfo, candidates: List[_ClassInfo]
    ) -> Optional[_ClassInfo]:
        """The scalar twin: same module, then same package, else unique."""
        same_module = [c for c in candidates if c.path == batch.path]
        if len(same_module) == 1:
            return same_module[0]
        package = batch.path.rsplit("/", 1)[0] if "/" in batch.path else ""
        same_package = [
            c
            for c in candidates
            if (c.path.rsplit("/", 1)[0] if "/" in c.path else "") == package
        ]
        if len(same_package) == 1:
            return same_package[0]
        if len(candidates) == 1:
            return candidates[0]
        return None

    # ------------------------------------------------------------------
    def _check_class_twin(
        self,
        batch_name: str,
        batch: _ClassInfo,
        classes: Dict[str, List[_ClassInfo]],
    ) -> List[Finding]:
        scalar_name = batch_name[len("Batch"):]
        candidates = classes.get(scalar_name)
        if not candidates:
            return []  # no scalar twin anywhere: not a twin pair
        scalar = self._pick_scalar(batch, candidates)
        if scalar is None:
            return []
        self.pairs.append(
            ParityPair(
                kind="class",
                scalar=f"{scalar.path}::{scalar_name}",
                batch=f"{batch.path}::{batch_name}",
            )
        )
        findings: List[Finding] = []
        for method, scalar_method in sorted(scalar.methods.items()):
            explicit_init = method == "__init__"
            if method.startswith("_") and not explicit_init:
                continue
            if explicit_init and "__init__" not in batch.methods:
                continue  # batch may rely on @dataclass-generated init
            mirror = self._find_mirror(method, batch)
            if mirror is None:
                findings.append(
                    Finding(
                        rule=self.rule.id,
                        path=batch.path,
                        line=batch.summary.line,
                        message=(
                            f"{batch_name} does not mirror scalar twin "
                            f"method {scalar_name}.{method}() "
                            f"(expected '{method}', '{method}_batch' or "
                            f"'{method}_array')"
                        ),
                        snippet=batch.summary.snippet,
                    )
                )
                continue
            mirror_name, batch_method = mirror
            stripped = _strip_batch_only(batch_method.params)
            if not _params_match(scalar_method.params, stripped):
                findings.append(
                    Finding(
                        rule=self.rule.id,
                        path=batch.path,
                        line=batch_method.line,
                        message=(
                            f"{batch_name}.{mirror_name}"
                            f"({', '.join(stripped)}) does not match "
                            f"scalar twin {scalar_name}.{method}"
                            f"({', '.join(scalar_method.params)}) "
                            "modulo the array dimension"
                        ),
                        snippet=batch_method.snippet,
                    )
                )
        return findings

    @staticmethod
    def _find_mirror(
        method: str, batch: _ClassInfo
    ) -> "Optional[tuple[str, MethodSummary]]":
        for suffix in _MIRROR_SUFFIXES:
            candidate = method + suffix
            if candidate in batch.methods:
                return candidate, batch.methods[candidate]
        return None

    # ------------------------------------------------------------------
    def _check_method_twins(
        self, class_name: str, info: _ClassInfo
    ) -> List[Finding]:
        """``m_array``/``m_batch`` methods must match their base ``m``."""
        findings: List[Finding] = []
        for method, batch_method in sorted(info.methods.items()):
            for suffix in ("_array", "_batch"):
                if not method.endswith(suffix):
                    continue
                base = method[: -len(suffix)]
                if not base or base not in info.methods:
                    continue
                scalar_method = info.methods[base]
                self.pairs.append(
                    ParityPair(
                        kind="method",
                        scalar=f"{info.path}::{class_name}.{base}",
                        batch=f"{info.path}::{class_name}.{method}",
                    )
                )
                stripped = _strip_batch_only(batch_method.params)
                if not _params_match(scalar_method.params, stripped):
                    findings.append(
                        Finding(
                            rule=self.rule.id,
                            path=info.path,
                            line=batch_method.line,
                            message=(
                                f"{class_name}.{method}"
                                f"({', '.join(stripped)}) does not "
                                f"match its scalar base "
                                f"{class_name}.{base}"
                                f"({', '.join(scalar_method.params)}) "
                                "modulo the array dimension"
                            ),
                            snippet=batch_method.snippet,
                        )
                    )
        return findings

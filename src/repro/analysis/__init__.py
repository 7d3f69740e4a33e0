"""``reprolint`` — AST-based domain-invariant checkers for the repro tree.

The rules (see :mod:`repro.analysis.base` and docs/STATIC_ANALYSIS.md):

* **RL101 rng-discipline** — randomness only via the seeded stream
  registry (:mod:`repro.sim.random`).
* **RL102 sim-time-purity** — no wall-clock reads in simulation code.
* **RL103 unit-suffix-discipline** — no dB/linear mixing; config
  floats carry unit suffixes.
* **RL104 float-equality** — no exact ``==``/``!=`` on float literals.
* **RL105 batch-twin-parity** — ``Batch*`` classes mirror their scalar
  twins' public API modulo the array dimension.
* **RL106 wall-clock-discipline** — wall-clock reads outside
  :mod:`repro.perf` / :mod:`repro.obs` go through
  :data:`repro.perf.wall_clock`, never bare ``time.perf_counter``.
* **RL107 store-atomic-io** — file writes under :mod:`repro.store`
  flow through the tmp+rename helpers in ``store/atomic.py``, never
  direct ``open()``/``os.open``/``Path.write_*`` calls.
* **RL108 fingerprint-completeness** — each ``*_CODE_MODULES`` tuple
  in :mod:`repro.store.fingerprint` covers the static import closure
  of its entry module (a gap is a stale-cache bug).
* **RL109 determinism-taint** — wall-clock/entropy/env reads never
  flow into solver results, manifests or store keys except via the
  sanctioned :mod:`repro.perf` / seeded-stream APIs.
* **RL110 obs-guard-discipline** — hot-path ``obs.*`` call sites sit
  behind the ``obs is None`` zero-cost guard.
* **RL111 exec-backend-discipline** — ``ProcessPoolExecutor`` /
  ``multiprocessing.Pool`` are constructed only inside
  :mod:`repro.exec`; everything else goes through the shared
  execution backend.

RL105/RL108/RL109/RL111 are *whole-program* rules built on the import graph
and module summaries in :mod:`repro.analysis.graph`.  Each file costs
one parse and one node walk, shared by every rule.

Run it as ``repro lint [--json] [--sarif FILE] [--changed]
[--rule RL10x ...]``, or from code::

    from repro.analysis import run_lint
    report = run_lint()
    assert report.ok, report.summary_lines()
"""

from .base import Finding, Rule, all_rules  # noqa: F401
from .baseline import Baseline  # noqa: F401
from .checkers import (  # noqa: F401  (registers RL101-RL104, RL106-RL107)
    FloatEqualityChecker,
    RngDisciplineChecker,
    SimTimePurityChecker,
    StoreAtomicIoChecker,
    UnitSuffixChecker,
    WallClockDisciplineChecker,
)
from .graph import (  # noqa: F401
    ImportGraph,
    ModuleSummary,
    Program,
    module_name,
    summarize_module,
)
from .graphrules import (  # noqa: F401  (registers RL108-RL111)
    DeterminismTaintChecker,
    ExecBackendDisciplineChecker,
    FingerprintCompletenessChecker,
    ObsGuardChecker,
)
from .parity import BatchTwinParityChecker, ParityPair  # noqa: F401
from .suppress import split_suppressed, suppressions_for_source  # noqa: F401
from .runner import (  # noqa: F401
    BASELINE_FILENAME,
    LintReport,
    default_baseline_path,
    default_root,
    lint_sources,
    run_lint,
)
from .reporters import sarif_json, sarif_report, write_sarif  # noqa: F401

__all__ = [
    "Finding",
    "Rule",
    "all_rules",
    "Baseline",
    "RngDisciplineChecker",
    "SimTimePurityChecker",
    "UnitSuffixChecker",
    "FloatEqualityChecker",
    "WallClockDisciplineChecker",
    "StoreAtomicIoChecker",
    "BatchTwinParityChecker",
    "FingerprintCompletenessChecker",
    "DeterminismTaintChecker",
    "ObsGuardChecker",
    "ExecBackendDisciplineChecker",
    "ParityPair",
    "ImportGraph",
    "ModuleSummary",
    "Program",
    "module_name",
    "summarize_module",
    "split_suppressed",
    "suppressions_for_source",
    "LintReport",
    "run_lint",
    "lint_sources",
    "default_root",
    "default_baseline_path",
    "BASELINE_FILENAME",
    "sarif_report",
    "sarif_json",
    "write_sarif",
]

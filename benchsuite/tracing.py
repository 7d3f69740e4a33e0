"""Per-layer tracing for the benchmark: spans around the package's layers.

The benchmark wraps public functions and methods of the package, at
class or module level and only inside its own traced process; nothing
in ``src/`` changes.  Each wrapper records a span - name, start, end,
parent, round - while a round is open.  Spans are aggregated exactly per
round and call path (calls, total and self time) and the first
``RAW_SPAN_CAP`` are also kept verbatim; both are written to
``out/trace-<workload>.json`` at the end of the run.

A layer's self time is its span time minus the time of the spans it
directly encloses, so the self times of every span opened on the main
thread plus the ``unattributed`` gap add up to the round's wall time.
Spans opened on other threads (the engine's chunk fan-out) overlap that
time and are reported apart.  Pool workers run in other processes and
are not traced; the campaign therefore adds one serial round for the
batched-link split.

A target that no longer exists is reported as missing and its metrics
read 0; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

RAW_SPAN_CAP = 20_000

clock = time.perf_counter


class SpanRecorder:
    """Records spans of the wrapped layers while a round is open."""

    def __init__(self) -> None:
        self.round: Optional[int] = None
        self.origin = clock()
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        # Open spans of the main thread: [path, start, child_time, raw index].
        self._stack: List[list] = []
        self.tree: Dict[Tuple[int, tuple], List[float]] = {}
        self.off_main: Dict[Tuple[int, str], List[float]] = {}
        self.counts: Dict[Tuple[int, str], float] = defaultdict(float)
        self.raw: List[Optional[tuple]] = []
        self.raw_dropped = 0
        self._undo: List[Callable[[], None]] = []
        self.missing: List[str] = []

    # -- recording -------------------------------------------------------
    def wrap(self, name: str, fn: Callable, hook=None) -> Callable:
        """``fn`` recording a ``name`` span per call inside a round.

        ``hook(args)`` is called before the call and returns a function
        of the result giving counts to add to the round.
        """
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            round_id = rec.round
            if round_id is None:
                return fn(*args, **kwargs)
            if threading.get_ident() != rec._main:
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec._add_off_main(round_id, name, clock() - start)
            after = hook(args) if hook is not None else None
            stack = rec._stack
            path = (stack[-1][0] if stack else ()) + (name,)
            raw_index = -1
            if len(rec.raw) < RAW_SPAN_CAP:
                raw_index = len(rec.raw)
                rec.raw.append(None)
            else:
                rec.raw_dropped += 1
            frame = [path, clock(), 0.0, raw_index]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                entry = rec.tree.get((round_id, path))
                if entry is None:
                    rec.tree[(round_id, path)] = [1, duration, duration - frame[2]]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[2]
                if raw_index >= 0:
                    parent = stack[-1][3] if stack else -1
                    rec.raw[raw_index] = (
                        name, frame[1] - rec.origin, end - rec.origin,
                        parent, round_id,
                    )
                if after is not None:
                    for key, value in after(result).items():
                        rec.counts[(round_id, key)] += value

        return traced

    def _add_off_main(self, round_id: int, name: str, duration: float) -> None:
        with self._lock:
            entry = self.off_main.setdefault((round_id, name), [0, 0.0])
            entry[0] += 1
            entry[1] += duration

    # -- installing ------------------------------------------------------
    def install(self, targets: Sequence[tuple]) -> None:
        """Wrap every ``(span, module, qualname[, hook])`` target."""
        for target in targets:
            name, module_name, qualname = target[:3]
            hook = target[3] if len(target) > 3 else None
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = qualname.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{qualname}")
                continue
            if isinstance(original, (classmethod, staticmethod)):
                replacement = type(original)(
                    self.wrap(name, original.__func__, hook)
                )
            else:
                replacement = self.wrap(name, original, hook)
            setattr(owner, attr, replacement)
            self._undo.append(functools.partial(setattr, owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reading ---------------------------------------------------------
    def self_s(self, names: Sequence[str], rounds: Sequence[int]) -> float:
        rounds = set(rounds)
        total = sum(v[2] for (r, path), v in self.tree.items()
                    if r in rounds and path[-1] in names)
        return total + sum(v[1] for (r, n), v in self.off_main.items()
                           if r in rounds and n in names)

    def calls(self, names: Sequence[str], rounds: Sequence[int]) -> float:
        rounds = set(rounds)
        total = sum(v[0] for (r, path), v in self.tree.items()
                    if r in rounds and path[-1] in names)
        return total + sum(v[0] for (r, n), v in self.off_main.items()
                           if r in rounds and n in names)

    def inclusive_s(self, name: str, rounds: Sequence[int]) -> float:
        """Time inside outermost ``name`` spans (recursion counted once)."""
        rounds = set(rounds)
        return sum(v[1] for (r, path), v in self.tree.items()
                   if r in rounds and path[-1] == name and name not in path[:-1])

    def root_s(self, round_id: int) -> float:
        """Time covered by the round's outermost main-thread spans."""
        return sum(v[1] for (r, path), v in self.tree.items()
                   if r == round_id and len(path) == 1)

    def count(self, key: str, rounds: Sequence[int]) -> float:
        return sum(self.counts.get((r, key), 0.0) for r in rounds)


# ----------------------------------------------------------------------
# What is wrapped
# ----------------------------------------------------------------------

def _engine_hook(args):
    engine = args[0]
    before = engine.cache_info()

    def after(result):
        info = engine.cache_info()
        return {
            "engine.points": float(len(result)) if result is not None else 0.0,
            "engine.memo_hits": float(info.hits - before.hits),
            "engine.memo_misses": float(info.misses - before.misses),
        }

    return after


def _batchlink_hook(args):
    replicas = float(args[0].n_replicas)
    return lambda result: {"batchlink.replica_epochs": replicas}


_CONTROL = "repro.phy.rate_control"

#: ``(span, module, qualname[, hook])``.  Several targets may share a
#: span name (one layer, several implementations).
TARGETS = [
    ("api.solve_batch", "repro.api", "solve_batch"),
    ("api.sweep", "repro.api", "sweep"),
    ("api.chaos", "repro.api", "chaos"),
    ("obs.manifest_build", "repro.obs.manifest", "RunManifest.build"),
    ("engine.solve_batch", "repro.engine.batch", "BatchSolverEngine.solve_batch",
     _engine_hook),
    ("engine.breakdown_at", "repro.engine.batch", "BatchSolverEngine.breakdown_at"),
    ("exec.thread_map", "repro.exec.backend", "ExecBackend.thread_map"),
    ("exec.map", "repro.exec.backend", "ExecBackend.map"),
    ("optimizer.fallback", "repro.core.optimizer", "DistanceOptimizer.optimize"),
    ("relay.batch_solve", "repro.relay.batch", "BatchRelaySolver.solve"),
    ("store.key", "repro.store.incremental", "config_key"),
    ("store.get", "repro.store.store", "ResultStore.get"),
    ("store.put", "repro.store.store", "ResultStore.put"),
    ("store.put", "repro.store.store", "ResultStore.put_many"),
    ("store.touch", "repro.store.store", "ResultStore.touch_many"),
    ("campaign.run", "repro.measurements.batch", "run_campaign"),
    ("batchlink.step", "repro.net.batchlink", "BatchWirelessLink.step",
     _batchlink_hook),
    ("channel.batch_sample", "repro.channel.channel",
     "BatchAerialChannel.sample_snr_db_batch"),
    ("channel.batch_mean", "repro.channel.channel",
     "BatchAerialChannel.mean_snr_db_batch"),
    ("phy.per_array", "repro.phy.error", "ErrorModel.per_array"),
    *[("control.batch_select", _CONTROL, f"{cls}.select")
      for cls in ("BatchArfController", "BatchFixedMcs", "BatchBestMcsOracle")],
    *[("control.batch_feedback", _CONTROL, f"{cls}.feedback")
      for cls in ("BatchArfController", "BatchFixedMcs", "BatchBestMcsOracle")],
    ("link.step", "repro.net.link", "WirelessLink.step"),
    ("channel.sample", "repro.channel.channel", "AerialChannel.sample_snr_db"),
    ("phy.per", "repro.phy.error", "ErrorModel.per"),
    *[("control.select", _CONTROL, f"{cls}.select")
      for cls in ("ArfController", "FixedMcs", "BestMcsOracle",
                  "MinstrelController")],
    *[("control.feedback", _CONTROL, f"{cls}.feedback")
      for cls in ("ArfController", "FixedMcs", "BestMcsOracle",
                  "MinstrelController")],
    ("sim.run", "repro.sim.kernel", "Simulator.run"),
    ("faults.chaos", "repro.faults.chaos", "run_chaos"),
    ("relay.transfer", "repro.relay.transfer", "run_relay_transfer"),
]

#: Exec backend counters read around every traced round.
EXEC_COUNTERS = ("pool_spawns", "pool_reuse", "respawns", "serial_tasks",
                 "shm_bytes", "pickle_bytes")


# ----------------------------------------------------------------------
# The per-layer metrics
# ----------------------------------------------------------------------
# name -> (unit, better, derivation, (end-to-end metric it should move,
# workloads)).  Derivations: ("self", spans...) self time, ("calls",
# spans...) call count, ("count", key) counted per round, ("ratio", a, b)
# a / (a + b), ("per", span, count key or None, scale) inclusive span
# time per count (None: per call), ("gauge", key) read after the run,
# ("probe",) measured in fresh processes, ("round",) the benchmark's own
# round accounting.  Values are per round of the main
# round group; span-derived values absent there come from the first
# further group that has them.  Traced times include the wrappers of
# the spans nested inside (``link.us_per_step`` carries four).

_E2E_CLI = ("op_p50_ms", ("cli-cold",))
_SETUP_ALL = ("setup_s", ("all",))
_SOLVE = ("work_per_s", ("batch-solve", "relay-batch"))
_STORE = ("op_p50_ms", ("store-hit", "store-extend"))
_CAMPAIGN = ("work_per_s", ("campaign",))
_MISSION = ("op_p50_ms", ("mission-r1",))

PER_LAYER: Dict[str, tuple] = {
    "import.total_s": ("s", "lower", ("probe",), _SETUP_ALL),
    "import.scipy_s": ("s", "lower", ("probe",), _SETUP_ALL),
    "import.numpy_s": ("s", "lower", ("probe",), _SETUP_ALL),
    "import.repro_s": ("s", "lower", ("probe",), _SETUP_ALL),
    "import.modules": ("count", "lower", ("probe",), _SETUP_ALL),
    "process.startup_s": ("s", "lower", ("probe",),
                          _SETUP_ALL),
    "cli.parse_s": ("s", "lower", ("probe",), _E2E_CLI),
    "cli.solve.main_s": ("s", "lower", ("probe",), _E2E_CLI),
    "cli.sweep.main_s": ("s", "lower", ("probe",), _E2E_CLI),
    "cli.relay.main_s": ("s", "lower", ("probe",), _E2E_CLI),
    "cli.unattributed_s": ("s", "lower", ("probe",),
                           _E2E_CLI),
    "api.solve_batch.self_s": ("s", "lower", ("self", "api.solve_batch"),
                               ("work_per_s", ("batch-solve",))),
    "api.sweep.self_s": ("s", "lower", ("self", "api.sweep"), _STORE),
    "obs.manifest_build.calls": ("count", "lower",
                                 ("calls", "obs.manifest_build"), _STORE),
    "obs.manifest_build_s": ("s", "lower", ("self", "obs.manifest_build"),
                             _STORE),
    "engine.solve_batch.calls": ("count", "lower",
                                 ("calls", "engine.solve_batch"), _SOLVE),
    "engine.solve_batch.self_s": ("s", "lower", ("self", "engine.solve_batch"),
                                  _SOLVE),
    "engine.points": ("count", "lower", ("count", "engine.points"), _SOLVE),
    "engine.memo_hit_ratio": ("ratio", "higher",
                              ("ratio", "engine.memo_hits",
                               "engine.memo_misses"), _SOLVE),
    "engine.breakdown_at_s": ("s", "lower", ("self", "engine.breakdown_at"),
                              ("work_per_s", ("relay-batch",))),
    "exec.thread_map.calls": ("count", "lower", ("calls", "exec.thread_map"),
                              _SOLVE),
    "exec.thread_map_s": ("s", "lower", ("self", "exec.thread_map"), _SOLVE),
    "optimizer.fallback.calls": ("count", "lower",
                                 ("calls", "optimizer.fallback"), _SOLVE),
    "optimizer.fallback_s": ("s", "lower", ("self", "optimizer.fallback"),
                             _SOLVE),
    "relay.batch_solve.self_s": ("s", "lower", ("self", "relay.batch_solve"),
                                 ("work_per_s", ("relay-batch",))),
    "store.key.calls": ("count", "lower", ("calls", "store.key"), _STORE),
    "store.key_s": ("s", "lower", ("self", "store.key"), _STORE),
    "store.get.calls": ("count", "lower", ("calls", "store.get"),
                        ("op_p50_ms", ("store-hit",))),
    "store.get_s": ("s", "lower", ("self", "store.get"), _STORE),
    "store.put.calls": ("count", "lower", ("calls", "store.put"),
                        ("op_p50_ms", ("store-extend",))),
    "store.put_s": ("s", "lower", ("self", "store.put"),
                    ("op_p50_ms", ("store-extend",))),
    "store.touch_s": ("s", "lower", ("self", "store.touch"), _STORE),
    "store.hit_ratio": ("ratio", "higher",
                        ("ratio", "store.hits", "store.misses"), _STORE),
    "store.bytes": ("B", "lower", ("gauge", "store.bytes"), _STORE),
    "store.entries": ("count", "lower", ("gauge", "store.entries"), _STORE),
    "exec.map.calls": ("count", "lower", ("calls", "exec.map"), _CAMPAIGN),
    "exec.map_s": ("s", "lower", ("self", "exec.map"), _CAMPAIGN),
    "exec.pool_spawns": ("count", "lower", ("count", "exec.pool_spawns"),
                         _SETUP_ALL),
    "exec.pool_reuse": ("count", "higher", ("count", "exec.pool_reuse"),
                        _CAMPAIGN),
    "exec.respawns": ("count", "lower", ("count", "exec.respawns"), _CAMPAIGN),
    "exec.serial_tasks": ("count", "lower", ("count", "exec.serial_tasks"),
                          _CAMPAIGN),
    "exec.shm_bytes": ("B", "higher", ("count", "exec.shm_bytes"), _CAMPAIGN),
    "exec.pickle_bytes": ("B", "lower", ("count", "exec.pickle_bytes"),
                          _CAMPAIGN),
    "exec.shm_share": ("ratio", "higher",
                       ("ratio", "exec.shm_bytes", "exec.pickle_bytes"),
                       _CAMPAIGN),
    "campaign.run.self_s": ("s", "lower", ("self", "campaign.run"), _CAMPAIGN),
    "batchlink.step.calls": ("count", "lower", ("calls", "batchlink.step"),
                             _CAMPAIGN),
    "batchlink.step.self_s": ("s", "lower", ("self", "batchlink.step"),
                              _CAMPAIGN),
    "channel.batch_sample_s": ("s", "lower", ("self", "channel.batch_sample"),
                               _CAMPAIGN),
    "channel.batch_mean_s": ("s", "lower", ("self", "channel.batch_mean"),
                             _CAMPAIGN),
    "phy.per_array_s": ("s", "lower", ("self", "phy.per_array"), _CAMPAIGN),
    "control.batch_select_s": ("s", "lower", ("self", "control.batch_select"),
                               _CAMPAIGN),
    "control.batch_feedback_s": ("s", "lower",
                                 ("self", "control.batch_feedback"), _CAMPAIGN),
    "batchlink.ns_per_replica_epoch": ("ns", "lower",
                                       ("per", "batchlink.step",
                                        "batchlink.replica_epochs", 1e9),
                                       _CAMPAIGN),
    "link.step.calls": ("count", "lower", ("calls", "link.step"), _MISSION),
    "link.step.self_s": ("s", "lower", ("self", "link.step"), _MISSION),
    "channel.sample_s": ("s", "lower", ("self", "channel.sample"), _MISSION),
    "phy.per_s": ("s", "lower", ("self", "phy.per"), _MISSION),
    "control.select_s": ("s", "lower", ("self", "control.select"), _MISSION),
    "control.feedback_s": ("s", "lower", ("self", "control.feedback"),
                           _MISSION),
    "link.us_per_step": ("us", "lower", ("per", "link.step", None, 1e6),
                         _MISSION),
    "sim.run_s": ("s", "lower", ("self", "sim.run"), _MISSION),
    "sim.events": ("count", "lower", ("count", "sim.events"), _MISSION),
    "faults.chaos.self_s": ("s", "lower", ("self", "faults.chaos"), _MISSION),
    "faults.chaos.resumes": ("count", "lower",
                             ("count", "faults.chaos.resumes"), _MISSION),
    "relay.transfer_s": ("s", "lower", ("self", "relay.transfer"), _MISSION),
    "bench.round_s": ("s", "lower", ("round",), ("op_p50_ms", ("all",))),
    "bench.unattributed_s": ("s", "lower", ("round",),
                             ("op_p50_ms", ("all",))),
    "bench.trace_overhead_s": ("s", "lower", ("round",),
                               ("op_p50_ms", ("all",))),
}


def _value(spec: tuple, rec: SpanRecorder, rounds: Sequence[int],
           gauges: Dict[str, float]) -> float:
    kind, args = spec[0], spec[1:]
    n = max(1, len(rounds))
    if kind == "self":
        return rec.self_s(args, rounds) / n
    if kind == "calls":
        return rec.calls(args, rounds) / n
    if kind == "count":
        return rec.count(args[0], rounds) / n
    if kind == "ratio":
        a, b = rec.count(args[0], rounds), rec.count(args[1], rounds)
        return a / (a + b) if a + b else 0.0
    if kind == "per":
        span, key, scale = args
        base = rec.calls([span], rounds) if key is None else rec.count(key, rounds)
        return rec.inclusive_s(span, rounds) / base * scale if base else 0.0
    if kind == "gauge":
        return gauges.get(args[0], 0.0)
    raise ValueError(f"unknown derivation {kind!r}")


def layer_metrics(rec: SpanRecorder, groups: Dict[str, List[int]],
                  walls: Sequence[float], untraced: Sequence[float],
                  gauges: Dict[str, float]) -> Dict[str, float]:
    """Every span-derived per-layer metric, per round of its group."""
    metrics: Dict[str, float] = {}
    ordered = list(groups.values())
    for name, (_, _, spec, _) in PER_LAYER.items():
        if spec[0] in ("probe", "round"):
            continue
        # Counters describe the main rounds only; a span missing there
        # (the batched link inside pool workers) is read from the first
        # group that runs it in this process.
        candidates = ordered if spec[0] in ("self", "calls", "per") else ordered[:1]
        value = 0.0
        for rounds in candidates:
            value = _value(spec, rec, rounds, gauges)
            if value:
                break
        metrics[name] = value
    main = ordered[0]
    n = max(1, len(main))
    metrics["bench.round_s"] = sum(walls[r] for r in main) / n
    metrics["bench.unattributed_s"] = sum(
        walls[r] - rec.root_s(r) for r in main) / n
    metrics["bench.trace_overhead_s"] = sum(
        walls[r] - untraced[r] for r in main) / n
    return metrics


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------

def _exec_counters() -> Dict[str, float]:
    from repro.exec import counters_snapshot

    snapshot = counters_snapshot()
    return {f"exec.{name}": float(snapshot.get(f"exec.{name}", 0))
            for name in EXEC_COUNTERS}


def traced_drive(workload, seed: int, seconds: float) -> dict:
    """Untraced rounds for ``seconds / 2`` (at least 3), then the same
    rounds traced, plus one round of each further trace variant."""
    workload.setup(seed, 0.0)
    attempted, failed = 0, []

    def attempt(fn, k: int) -> float:
        nonlocal attempted
        prepared = workload.prepare(k)
        attempted += 1
        start = clock()
        out = fn(prepared)
        wall = clock() - start
        error = workload.check(k, prepared, out)
        if error:
            failed.append((k, error))
        return wall

    for k in range(workload.warmup):
        attempt(workload.run, k)
    variants = workload.trace_variants()
    main, *extra = variants
    plan: List[Tuple[str, int]] = []
    untraced: List[float] = []
    k = workload.warmup

    def untraced_round(group: str) -> None:
        nonlocal k
        plan.append((group, k))
        untraced.append(attempt(variants[group], k))
        k += 1

    start = clock()
    while len(plan) < 3 or clock() - start < seconds / 2:
        untraced_round(main)
    for group in extra:
        untraced_round(group)

    rec = SpanRecorder()
    rec.install(TARGETS)
    groups: Dict[str, List[int]] = {group: [] for group in variants}
    walls: List[float] = []
    try:
        for round_id, (group, op) in enumerate(plan):
            if not workload.replayable:
                op, k = k, k + 1
            prepared = workload.prepare(op)
            before = {**workload.counters(), **_exec_counters()}
            rec.round = round_id
            begin = clock()
            try:
                out = variants[group](prepared)
            finally:
                walls.append(clock() - begin)
                rec.round = None
            attempted += 1
            error = workload.check(op, prepared, out)
            if error:
                failed.append((op, error))
            after = {**workload.counters(), **_exec_counters()}
            for key, value in after.items():
                rec.counts[(round_id, key)] += value - before.get(key, 0.0)
            groups[group].append(round_id)
    finally:
        rec.uninstall()
    failed.extend(workload.finish())
    metrics = layer_metrics(rec, groups, walls, untraced, workload.gauges())
    return {
        "attempted": attempted,
        "failed": sorted({op for op, _ in failed}),
        "errors": [message for _, message in failed][:5],
        "metrics": metrics,
        "trace": trace_document(rec, groups, walls, untraced),
    }


def trace_document(rec: SpanRecorder, groups: Dict[str, List[int]],
                   walls: Sequence[float], untraced: Sequence[float]) -> dict:
    """The JSON written to ``out/trace-<workload>.json``."""
    group_of = {r: g for g, rounds in groups.items() for r in rounds}
    return {
        "rounds": [
            {"round": r, "group": group_of[r], "wall_s": walls[r],
             "untraced_wall_s": untraced[r],
             "unattributed_s": walls[r] - rec.root_s(r)}
            for r in range(len(walls))
        ],
        "tree": [
            {"round": r, "path": ">".join(path), "calls": v[0],
             "total_s": v[1], "self_s": v[2]}
            for (r, path), v in sorted(rec.tree.items())
        ],
        "off_main_thread": [
            {"round": r, "name": n, "calls": v[0], "total_s": v[1]}
            for (r, n), v in sorted(rec.off_main.items())
        ],
        "counts": [
            {"round": r, "key": key, "value": value}
            for (r, key), value in sorted(rec.counts.items())
        ],
        "spans": [list(span) for span in rec.raw if span is not None],
        "span_fields": ["name", "start_s", "end_s", "parent", "round"],
        "spans_dropped": rec.raw_dropped,
        "missing_targets": rec.missing,
    }


def layer_table(trace: dict, group: Optional[str] = None) -> List[str]:
    """Human-readable self-time breakdown of one round group."""
    rounds = {r["round"] for r in trace["rounds"]
              if group is None or r["group"] == group}
    if not rounds:
        return []
    wall = sum(r["wall_s"] for r in trace["rounds"] if r["round"] in rounds)
    per_span: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for row in trace["tree"]:
        if row["round"] in rounds:
            entry = per_span[row["path"].split(">")[-1]]
            entry[0] += row["calls"]
            entry[1] += row["self_s"]
    n = len(rounds)
    lines = [f"  {'span':28s} {'calls/round':>12s} {'self s/round':>13s} "
             f"{'share':>7s}"]
    attributed = 0.0
    for name, (calls, self_s) in sorted(per_span.items(),
                                        key=lambda kv: -kv[1][1]):
        attributed += self_s
        lines.append(f"  {name:28s} {calls / n:12.1f} {self_s / n:13.6f} "
                     f"{100 * self_s / wall:6.2f}%")
    gap = wall - attributed
    lines.append(f"  {'unattributed':28s} {'':12s} {gap / n:13.6f} "
                 f"{100 * gap / wall:6.2f}%")
    for row in trace["off_main_thread"]:
        if row["round"] in rounds:
            lines.append(f"  {row['name'] + ' (other thread)':28s} "
                         f"{row['calls']:12d} {row['total_s']:13.6f}")
    return lines


# ----------------------------------------------------------------------
# Probes in fresh processes
# ----------------------------------------------------------------------

_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Self time per top-level package from ``python -X importtime``."""
    totals: Dict[str, float] = defaultdict(float)
    modules = 0
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        modules += 1
        totals[match.group(4).split(".")[0]] += int(match.group(1)) / 1e6
    return {
        "import.total_s": sum(totals.values()),
        "import.scipy_s": totals.get("scipy", 0.0),
        "import.numpy_s": totals.get("numpy", 0.0),
        "import.repro_s": totals.get("repro", 0.0),
        "import.modules": float(modules),
    }


def import_profile(cwd: Path, env: Dict[str, str], reps: int = 5) -> Dict[str, float]:
    """Medians of ``python -X importtime -c 'import repro'`` and of the
    wall time of ``python -c pass``."""
    samples: Dict[str, List[float]] = defaultdict(list)
    for _ in range(reps):
        start = clock()
        subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, env=env,
                       check=True)
        samples["process.startup_s"].append(clock() - start)
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro"],
            cwd=cwd, env=env, stderr=subprocess.PIPE, text=True, check=True,
        )
        for key, value in parse_importtime(done.stderr).items():
            samples[key].append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


#: Run in a fresh process: time ``import repro.cli``, argument parsing
#: and ``repro.cli.main`` with stdout captured.
CLI_PROBE = """\
import contextlib, io, json, sys, time
t0 = time.perf_counter()
import repro.cli
t1 = time.perf_counter()
repro.cli.build_parser().parse_args(sys.argv[1:])
t2 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = repro.cli.main(sys.argv[1:])
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1,
                  "main_s": t3 - t2, "code": code}))
"""


def cli_profile(commands: Dict[str, List[str]], cwd: Path,
                env: Dict[str, str], startup_s: float, reps: int = 3):
    """Per-command split of a cold CLI process into start-up, import,
    parse, main and the unattributed rest, plus the probe's overhead.

    Returns ``(metrics, detail)``; ``detail`` keeps every measurement."""
    metrics: Dict[str, float] = {}
    detail: Dict[str, dict] = {}
    parse, gaps, walls, overheads = [], [], [], []
    for command, argv in commands.items():
        cold, probe, inner = [], [], []
        for _ in range(reps):
            start = clock()
            subprocess.run([sys.executable, "-m", "repro", *argv], cwd=cwd,
                           env=env, stdout=subprocess.DEVNULL, check=True)
            cold.append(clock() - start)
            start = clock()
            done = subprocess.run([sys.executable, "-c", CLI_PROBE, *argv],
                                  cwd=cwd, env=env, stdout=subprocess.PIPE,
                                  text=True, check=True)
            probe.append(clock() - start)
            inner.append(json.loads(done.stdout.strip().splitlines()[-1]))
        detail[command] = {"argv": argv, "cold_s": cold, "probe_s": probe,
                           "probe": inner}
        main_s = statistics.median(r["main_s"] for r in inner)
        import_s = statistics.median(r["import_s"] for r in inner)
        metrics[f"cli.{command}.main_s"] = main_s
        parse.append(statistics.median(r["parse_s"] for r in inner))
        walls.append(statistics.median(cold))
        gaps.append(walls[-1] - startup_s - import_s - main_s)
        overheads.append(statistics.median(probe) - walls[-1])
    metrics["cli.parse_s"] = statistics.mean(parse)
    metrics["cli.unattributed_s"] = statistics.mean(gaps)
    metrics["bench.round_s"] = statistics.mean(walls)
    metrics["bench.unattributed_s"] = statistics.mean(gaps)
    metrics["bench.trace_overhead_s"] = statistics.mean(overheads)
    return metrics, detail


def traced_cli(workload, seed: int, cwd: Path, env: Dict[str, str],
               startup_s: float) -> dict:
    """``cli-cold``'s traced run: its layers live in fresh processes, so
    the first command of each kind is split by :func:`cli_profile`."""
    workload.setup(seed, 0.0)
    commands: Dict[str, List[str]] = {}
    for argv in workload.commands[1:]:
        commands.setdefault(argv[0], argv)
    metrics, detail = cli_profile(commands, cwd, env, startup_s)
    return {
        "attempted": sum(len(d["cold_s"]) + len(d["probe_s"])
                         for d in detail.values()),
        "failed": [], "errors": [], "metrics": metrics,
        "trace": {"commands": detail},
    }

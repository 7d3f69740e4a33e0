"""The benchmark's workloads: seeded inputs, one timed operation, checks.

Every workload is driven as a closed loop by one client process: the
next operation is issued only after the previous one returned.  Inputs
are generated here from the run's seed; the package only ever sees the
generated values, through its public API (``repro.api``, the CLI, the
batch solvers, the campaign and relay-transfer runners, the store).

A workload provides

* ``setup(seed, start)`` - build inputs (untimed, counted in set-up);
  ``start`` in [0, 1) is where this client enters a cycle of inputs;
* ``prepare(k)`` - the input of operation ``k`` (untimed);
* ``run(prepared)`` - the timed operation;
* ``check(k, prepared, out)`` - an error message, or ``None``;
* ``work(prepared, out)`` - work items the operation completed;
* ``finish()`` - slower end-of-client checks as ``(op, message)`` pairs;
* ``digest()`` - a value every client of one run must agree on.

Operations ``0 .. warmup - 1`` are the warm-up: run and checked, but
not timed.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import api
from repro import exec as repro_exec
from repro.engine import BatchSolverEngine
from repro.measurements import batch as campaign_runner
from repro.measurements.batch import BatchCampaignConfig
from repro.relay import RelayChain, transfer as relay_transfer
from repro.relay.batch import BatchRelaySolver
from repro.relay.solver import RelaySolver
from repro.store import ResultStore

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: Processors this process may run on; the load never uses more threads
#: or pool workers than this.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
    os.cpu_count() or 1
)

AIRFRAMES = ("airplane", "quadrocopter")

#: Per-distance campaign medians (Mb/s) at seed 1, the Fig. 6 method.
CAMPAIGN_SEED1_MBPS = {80.0: 18.982912, 160.0: 13.153792, 240.0: 7.88992}

#: Lowest accepted ratio of the solved utility to a dense U(d) scan's
#: maximum: 1e-9 of numerical slack on top of the engine's boundary snap,
#: which gives up to 1e-4 of utility for a boundary distance.
UTILITY_FLOOR = (1.0 - 1e-4) * (1.0 - 1e-9)


def rng(seed: int, *salt: int) -> np.random.Generator:
    """The generator of one input family of one run."""
    return np.random.default_rng([seed, *salt])


def mixed_scenarios(seed: int, n: int) -> List[api.Scenario]:
    """Both airframes, d0 in [40, 300] m, rho log-uniform in [1e-5, 1e-2]
    per m, Mdata in [1, 100] MB, v in [3, 25] m/s."""
    g = rng(seed, 1)
    frames = g.integers(0, 2, n)
    d0 = g.uniform(40.0, 300.0, n)
    rho = 10.0 ** g.uniform(-5.0, -2.0, n)
    mdata = g.uniform(1.0, 100.0, n)
    speed = g.uniform(3.0, 25.0, n)
    return [
        api.scenario(
            AIRFRAMES[frames[i]],
            d0_m=float(d0[i]),
            rho_per_m=float(rho[i]),
            mdata_mb=float(mdata[i]),
            speed_mps=float(speed[i]),
        )
        for i in range(n)
    ]


def relay_chains(seed: int, n: int) -> List[RelayChain]:
    """1-3 hop chains of mixed hops with 0-10 s hand-offs."""
    g = rng(seed, 2)
    chains = []
    for i in range(n):
        hops = [
            api.scenario(
                AIRFRAMES[int(g.integers(0, 2))],
                d0_m=float(g.uniform(40.0, 300.0)),
                rho_per_m=float(10.0 ** g.uniform(-5.0, -2.0)),
                speed_mps=float(g.uniform(3.0, 25.0)),
            )
            for _ in range(int(g.integers(1, 4)))
        ]
        chains.append(
            RelayChain.of(
                hops,
                handoff_s=float(g.uniform(0.0, 10.0)),
                mdata_mb=float(g.uniform(1.0, 100.0)),
                name=f"chain{i}",
            )
        )
    return chains


def rho_block(seed: int, index: int, n: int = 8192) -> np.ndarray:
    """One block of swept failure rates, log-uniform in [1e-5, 1e-2]."""
    return 10.0 ** rng(seed, 3, index).uniform(-5.0, -2.0, n)


def fresh_engine() -> BatchSolverEngine:
    """An engine with an empty memo, threads capped at the processor count."""
    return BatchSolverEngine(max_workers=NPROC)


def scratch_dir() -> Path:
    """A fresh directory under ``out/`` (inside the checkout)."""
    OUT.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))


class Workload:
    """Base class; see the module docstring for the protocol."""

    name = ""
    warmup = 1
    #: Whether running operation ``k`` again repeats the same work (the
    #: traced rounds then replay the untraced ones).
    replayable = True

    def setup(self, seed: int, start: float) -> None:
        self.seed = seed

    def prepare(self, k: int):
        return k

    def run(self, prepared):
        raise NotImplementedError

    def check(self, k: int, prepared, out) -> Optional[str]:
        return None

    def work(self, prepared, out) -> float:
        return 1.0

    def finish(self) -> List[Tuple[int, str]]:
        return []

    def digest(self):
        return None

    def kind(self, prepared) -> str:
        """Operation kind, for the per-kind detail rows."""
        return self.name

    def counters(self) -> Dict[str, float]:
        """Cumulative workload counters; the trace reports per-round deltas."""
        return {}

    def gauges(self) -> Dict[str, float]:
        """Point-in-time values read once after the traced rounds."""
        return {}

    def trace_variants(self) -> Dict[str, object]:
        """Traced round groups: name -> callable(prepared); first is main."""
        return {"main": self.run}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
class CliCold(Workload):
    """One cold ``python -m repro`` process per operation: import and CLI
    set-up are what an interactive user waits for; compute is negligible."""

    name = "cli-cold"
    n_commands = 42

    def setup(self, seed: int, start: float) -> None:
        super().setup(seed, start)
        g = rng(seed, 4)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), self.env.get("PYTHONPATH")])
        )
        self.commands: List[List[str]] = [["solve", "airplane", "--json"]]
        for i in range(self.n_commands):
            mdata = f"{g.uniform(1.0, 100.0):.3f}"
            d0 = f"{g.uniform(40.0, 300.0):.1f}"
            if i % 3 == 0:
                argv = ["solve", "airplane", "--mdata-mb", mdata, "--d0", d0,
                        "--json"]
            elif i % 3 == 1:
                argv = ["sweep", "airplane", "--param", "rho_per_m",
                        "--geomspace", "1e-5", "1e-2", "200", "--no-cache",
                        "--json", "--mdata-mb", mdata, "--d0", d0]
            else:
                argv = ["relay", "--hops", "quadrocopter,airplane", "--json",
                        "--no-cache", "--mdata-mb", mdata]
            self.commands.append(argv)
        self.offset = int(start * self.n_commands)
        self.printed: Dict[int, Tuple[int, object]] = {}

    @staticmethod
    def _library_output(argv: List[str]):
        """What the CLI must print, computed through the library."""
        if argv[0] == "solve":
            kwargs = {}
            if "--mdata-mb" in argv:
                kwargs["mdata_mb"] = float(argv[argv.index("--mdata-mb") + 1])
                kwargs["d0_m"] = float(argv[argv.index("--d0") + 1])
            scenario = api.scenario(argv[1], **kwargs)
            decision = api.solve(scenario, engine=fresh_engine(), cache=False)
            return {"scenario": scenario.name, **decision.to_dict()}
        if argv[0] == "sweep":
            scenario = api.scenario(
                argv[1],
                mdata_mb=float(argv[argv.index("--mdata-mb") + 1]),
                d0_m=float(argv[argv.index("--d0") + 1]),
            )
            values = [float(v) for v in np.geomspace(1e-5, 1e-2, 200)]
            result = api.sweep(scenario, "rho_per_m", values,
                               engine=fresh_engine(), cache=False)
            return json.loads(result.manifest.to_json())
        mdata = float(argv[argv.index("--mdata-mb") + 1])
        chain = RelayChain.of(
            [api.scenario("quadrocopter"), api.scenario("airplane")],
            handoff_s=5.0, name="quadrocopter-airplane", mdata_mb=mdata,
        )
        result = api.solve_relay(chain, engine=fresh_engine(), cache=False)
        return json.loads(result.manifest.to_json())

    def prepare(self, k: int):
        if k < self.warmup:
            return 0
        return 1 + (self.offset + k - self.warmup) % self.n_commands

    def run(self, index: int):
        return subprocess.run(
            [sys.executable, "-m", "repro", *self.commands[index]],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )

    def kind(self, index: int) -> str:
        return self.commands[index][0]

    def check(self, k: int, index: int, out) -> Optional[str]:
        argv = " ".join(self.commands[index])
        if out.returncode != 0:
            return f"`{argv}` exited {out.returncode}: {out.stderr[-300:]}"
        lines = out.stdout.strip().splitlines()
        try:
            payload = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return f"`{argv}` printed no JSON object"
        if index == 0 and payload.get("distance_m") != 20.0:
            return f"`{argv}` gave distance_m={payload.get('distance_m')}, not 20.0"
        first = self.printed.setdefault(index, (k, payload))
        if first[1] != payload:
            return f"`{argv}` printed something else than on operation {first[0]}"
        return None

    def finish(self) -> List[Tuple[int, str]]:
        return [
            (k, f"`{' '.join(self.commands[index])}` output differs from "
                "the library's")
            for index, (k, payload) in sorted(self.printed.items())
            if payload != self._library_output(self.commands[index])
        ]


# ----------------------------------------------------------------------
class BatchSolve(Workload):
    """``api.solve_batch`` on 10,000 mixed scenarios with a fresh engine:
    the Eq. 2 kernel does nearly all the work; store, pool and link idle."""

    name = "batch-solve"
    n = 10_000
    n_checked = 200

    def setup(self, seed: int, start: float) -> None:
        super().setup(seed, start)
        self.scenarios = mixed_scenarios(seed, self.n)
        self.d0 = np.array([s.contact_distance_m for s in self.scenarios])
        self.reference = None

    def run(self, _):
        return api.solve_batch(self.scenarios, engine=fresh_engine(), cache=False)

    def work(self, prepared, out) -> float:
        return float(len(out))

    def check(self, k: int, prepared, out) -> Optional[str]:
        if len(out) != self.n:
            return f"{len(out)} rows for {self.n} scenarios"
        d = out.distance_m
        if not (np.all(np.isfinite(out.utility)) and np.all(d >= 20.0)
                and np.all(d <= self.d0)):
            return "a solved distance lies outside [20 m, d0] or U is not finite"
        if self.reference is None:
            self.reference = (k, out)
        elif not (np.array_equal(d, self.reference[1].distance_m)
                  and np.array_equal(out.utility, self.reference[1].utility)):
            return "result differs from the first operation's"
        return None

    def finish(self) -> List[Tuple[int, str]]:
        k, out = self.reference
        picks = rng(self.seed, 5).choice(self.n, self.n_checked, replace=False)
        for i in picks:
            _, curve = api.utility_curve(
                self.scenarios[i], 4001, engine=fresh_engine()
            )
            if out.utility[i] < UTILITY_FLOOR * float(np.max(curve)):
                return [(k, f"row {i}: U={out.utility[i]!r} below the "
                            f"dense-scan maximum {float(np.max(curve))!r}")]
        return []

    def digest(self):
        return float(np.sum(self.reference[1].distance_m))


class RelayBatch(Workload):
    """``BatchRelaySolver`` on 2,000 seeded 1-3 hop chains: hop-grouped
    engine passes plus the Pareto-frontier DP."""

    name = "relay-batch"
    n = 2_000
    n_checked = 50

    def setup(self, seed: int, start: float) -> None:
        super().setup(seed, start)
        self.chains = relay_chains(seed, self.n)
        self.reference = None

    def run(self, _):
        return BatchRelaySolver(fresh_engine()).solve(self.chains)

    def work(self, prepared, out) -> float:
        return float(len(out))

    def check(self, k: int, prepared, out) -> Optional[str]:
        if len(out) != self.n:
            return f"{len(out)} decisions for {self.n} chains"
        if self.reference is None:
            self.reference = (k, out)
        elif not np.array_equal(out.utility, self.reference[1].utility):
            return "result differs from the first operation's"
        return None

    def finish(self) -> List[Tuple[int, str]]:
        k, out = self.reference
        scalar = RelaySolver(fresh_engine())
        for i in range(self.n_checked):
            if scalar.solve(self.chains[i]).to_dict() != out[i].to_dict():
                return [(k, f"chain {i}: batch and scalar solvers differ")]
        return []

    def digest(self):
        return float(np.sum(self.reference[1].utility))


# ----------------------------------------------------------------------
class _StoreWorkload(Workload):
    block = 8192

    def setup(self, seed: int, start: float) -> None:
        super().setup(seed, start)
        self.base = api.airplane_scenario()
        self.dir = scratch_dir()
        self.store = ResultStore(self.dir)

    def sweep(self, values: np.ndarray):
        return api.sweep(self.base, "rho_per_m", values,
                         engine=fresh_engine(), cache=self.store)

    def work(self, prepared, out) -> float:
        return float(len(out))

    def counters(self) -> Dict[str, float]:
        return {f"store.{k}": float(v)
                for k, v in self.store.snapshot_counters().items()}

    def gauges(self) -> Dict[str, float]:
        stats = self.store.stats()
        return {"store.bytes": float(stats["total_bytes"]),
                "store.entries": float(stats["entries"])}

    def _store_use(self, before: Dict[str, int]) -> Tuple[int, int, int]:
        """(hits, misses, puts) of the store since ``before``."""
        after = self.store.snapshot_counters()
        return tuple(after[n] - before[n] for n in ("hits", "misses", "puts"))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


class StoreHit(_StoreWorkload):
    """A fully warm 8,192-value sweep with a fresh engine, so only the
    store serves: keys, reads, decode and merge."""

    name = "store-hit"

    def setup(self, seed: int, start: float) -> None:
        super().setup(seed, start)
        self.values = rho_block(seed, 0, self.block)
        cold = self.sweep(self.values)
        self.cold_manifest = cold.manifest.to_json()
        self.cold_distance = np.array(cold.distance_m)

    def prepare(self, k: int):
        return self.store.snapshot_counters()

    def run(self, _):
        return self.sweep(self.values)

    def check(self, k: int, before, out) -> Optional[str]:
        if out.manifest.to_json() != self.cold_manifest:
            return "warm manifest bytes differ from the cold run's"
        if not np.array_equal(out.distance_m, self.cold_distance):
            return "warm rows differ from the cold rows"
        hits, misses, puts = self._store_use(before)
        if not hits or misses or puts:
            return f"warm sweep: {hits} hits, {misses} misses, {puts} puts"
        return None

    def digest(self):
        return hashlib.sha256(self.cold_manifest.encode()).hexdigest()


class StoreExtend(_StoreWorkload):
    """A half-warm sweep: the previous 8,192 values plus 8,192 new ones,
    so store reads, engine solves and store writes all run."""

    name = "store-extend"
    replayable = False

    def setup(self, seed: int, start: float) -> None:
        super().setup(seed, start)
        self.values = rho_block(seed, 0, self.block)
        self.previous = np.array(self.sweep(self.values).distance_m)
        self.first_half = None

    def prepare(self, k: int):
        new = rho_block(self.seed, k + 1, self.block)
        values = np.concatenate([self.values, new])
        self.values = new
        return values, self.store.snapshot_counters()

    def run(self, prepared):
        return self.sweep(prepared[0])

    def check(self, k: int, prepared, out) -> Optional[str]:
        half = len(prepared[0]) // 2
        warm = out.distance_m[:half]
        previous, self.previous = self.previous, np.array(out.distance_m[half:])
        if k == 0:
            self.first_half = float(np.sum(warm))
        if not np.array_equal(warm, previous):
            return "the warm half differs from the rows it was stored from"
        hits, misses, puts = self._store_use(prepared[1])
        if not (hits and misses and puts):
            return f"half-warm sweep: {hits} hits, {misses} misses, {puts} puts"
        return None

    def digest(self):
        return self.first_half


# ----------------------------------------------------------------------
class Campaign(Workload):
    """``run_campaign``, airplane/ARF at 80/160/240 m x 256 replicas on the
    exec pool: the batched link stack and pool dispatch do all the work."""

    name = "campaign"
    n_replicas = 256
    duration_s = 40.0

    def setup(self, seed: int, start: float) -> None:
        super().setup(seed, start)
        self.config = BatchCampaignConfig(
            profile="airplane", controller="arf",
            distances_m=(80.0, 160.0, 240.0), n_replicas=self.n_replicas,
            duration_s=self.duration_s, seed=seed,
        )
        self.medians = None

    def run(self, _):
        return campaign_runner.run_campaign(
            self.config, max_workers=NPROC, cache=False
        )

    def run_serial(self, _):
        return campaign_runner.run_campaign(
            self.config, parallel=False, cache=False
        )

    def trace_variants(self) -> Dict[str, object]:
        return {"pooled": self.run, "serial": self.run_serial}

    def work(self, prepared, out) -> float:
        c = self.config
        return float(len(c.distances_m) * c.n_replicas
                     * round(c.duration_s / c.epoch_s))

    def check(self, k: int, prepared, out) -> Optional[str]:
        medians = out.medians_mbps()
        if self.medians is None:
            self.medians = medians
            if self.seed == 1:
                for distance, expected in CAMPAIGN_SEED1_MBPS.items():
                    got = medians.get(distance, 0.0)
                    if abs(got - expected) > 0.02 * expected:
                        return (f"median at {distance:g} m is {got:.3f} Mb/s, "
                                f"recorded {expected:.3f}")
        elif medians != self.medians:
            return "medians differ from the first round's"
        return None

    def digest(self):
        return json.dumps(self.medians, sort_keys=True)

    def close(self) -> None:
        repro_exec.shutdown()
        for child in multiprocessing.active_children():
            child.join(timeout=30)


# ----------------------------------------------------------------------
class Mission(Workload):
    """Event-driven chaos and relay-transfer runs at R=1 on the scalar
    link with fault injection and re-solves; no batching, no pool."""

    name = "mission-r1"
    n_chaos = 60
    n_relay = 20
    warmup = 4

    def setup(self, seed: int, start: float) -> None:
        super().setup(seed, start)
        g = rng(seed, 6)
        chaos_ops = []
        for i in range(self.n_chaos):
            plan = api.FaultPlan(name=f"chaos{i}", seed=seed).with_outage(
                float(g.uniform(1.0, 20.0)), float(g.uniform(1.0, 5.0))
            )
            if i % 3 == 0:
                plan = plan.add(
                    api.FaultSpec("node_loss", float(g.uniform(5.0, 40.0)))
                )
            chaos_ops.append(
                ("chaos", plan, AIRFRAMES[i % 2], int(g.integers(1, 2**31)))
            )
        self.chain = RelayChain.of(
            [api.scenario("quadrocopter"), api.scenario("airplane")],
            handoff_s=5.0, name="quadrocopter-airplane",
        )
        relay_ops = [
            ("relay",
             api.FaultPlan(name=f"relay{j}", seed=seed).with_outage(
                 float(g.uniform(1.0, 60.0)), float(g.uniform(1.0, 5.0))),
             None, int(g.integers(1, 2**31)))
            for j in range(self.n_relay)
        ]
        # Interleave three chaos runs per relay transfer so every client's
        # share of the loop sees both kinds.
        self.ops = []
        for j in range(self.n_relay):
            self.ops.extend(chaos_ops[3 * j:3 * j + 3])
            self.ops.append(relay_ops[j])
        self.offset = int(start * len(self.ops))
        self.first: Dict[str, Tuple[int, tuple, str]] = {}
        self.totals = {"sim.events": 0.0, "faults.chaos.resumes": 0.0}

    def prepare(self, k: int):
        if k < self.warmup:
            return self.ops[k]
        return self.ops[(self.offset + k - self.warmup) % len(self.ops)]

    def run(self, op):
        kind, plan, airframe, seed = op
        if kind == "chaos":
            return api.chaos(plan, scenario_name=airframe, seed=seed, cache=False)
        return relay_transfer.run_relay_transfer(self.chain, plan, seed=seed)

    def kind(self, op) -> str:
        return op[0]

    @staticmethod
    def _bytes(kind: str, out) -> str:
        if kind == "chaos":
            return out.manifest.to_json()
        return json.dumps(out.to_dict(), sort_keys=True)

    def check(self, k: int, op, out) -> Optional[str]:
        kind = op[0]
        if kind not in self.first:
            self.first[kind] = (k, op, self._bytes(kind, out))
        if kind == "chaos":
            counters = (out.manifest.metrics or {}).get("counters", {})
            self.totals["sim.events"] += counters.get("kernel.events_processed", 0)
            self.totals["faults.chaos.resumes"] += out.resumes
            if not (out.completed and out.delivered_bytes == out.total_bytes):
                return f"chaos {op[1].name}: delivered {out.delivered_bytes} " \
                       f"of {out.total_bytes} bytes"
            return None
        if not (out.completed and out.byte_ledger_consistent()
                and out.delivered_bytes == out.total_bytes):
            return f"relay {op[1].name}: byte ledger broken or incomplete"
        return None

    def counters(self) -> Dict[str, float]:
        return dict(self.totals)

    def finish(self) -> List[Tuple[int, str]]:
        errors = []
        for kind, (k, op, expected) in sorted(self.first.items()):
            if self._bytes(kind, self.run(op)) != expected:
                errors.append((k, f"replayed {op[1].name} differs"))
        return errors

    def digest(self):
        return {kind: hashlib.sha256(entry[2].encode()).hexdigest()
                for kind, entry in sorted(self.first.items())}


WORKLOADS = {
    cls.name: cls
    for cls in (CliCold, BatchSolve, RelayBatch, StoreHit, StoreExtend,
                Campaign, Mission)
}

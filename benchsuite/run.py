#!/usr/bin/env python3
"""Run one workload of the benchmark suite and print its metrics.

Usage, from the root of a checkout::

    python3 benchsuite/run.py --workload NAME [--seed N] [--seconds S]
                              [--trace 0|1] [--out FILE] [--label TEXT]

With ``--trace 0`` the run is spread over ``CLIENTS`` fresh client
processes, started one after another.  Each sets up (imports the
package, builds the seeded inputs, warms up), then runs the workload's
operation in a closed loop for ``S / CLIENTS`` seconds and checks every
output.  Samples are pooled across clients.  The end-to-end metrics are

* ``op_p50_ms``   median latency of one operation;
* ``work_per_s``  work items completed per second of operation time;
* ``peak_rss_mb`` largest client footprint, itself plus its children;
* ``setup_s``     median over clients of spawn to end of warm-up.

With ``--trace 1`` one traced client reports the per-layer metrics (see
``tracing.py``) and writes ``benchsuite/out/trace-<workload>.json``.

Every metric is printed with its unit, median, quartiles and sample
count; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is non-zero when any output check failed or the package is absent.
``--out FILE`` appends the run as one RunManifest-shaped JSON line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent
SRC = ROOT / "src"

#: Wall-clock budget of a whole run; the contract allows 180 s.
BUDGET_S = 170.0

#: Fresh client processes one untraced run is spread over, one after
#: another; set-up is measured once per client.
CLIENTS = 5

#: name -> (unit, better) of the end-to-end metrics.
END_TO_END = {
    "op_p50_ms": ("ms", "lower"),
    "work_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append the run as one JSON line to FILE")
    parser.add_argument("--label", default=None,
                        help="free-form label stored with --out")
    parser.add_argument("--client", type=int, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def client_env() -> dict:
    """The environment of client processes: the checkout's ``src`` first,
    and the package's default result store switched off so nothing is
    written outside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_NO_CACHE"] = "1"
    for name in ("REPRO_CACHE", "REPRO_CACHE_DIR"):
        env.pop(name, None)
    return env


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------

def _vmhwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_kb() -> int:
    """Own peak RSS plus live children's plus the largest reaped child's."""
    import multiprocessing

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    live = sum(_vmhwm_kb(p.pid) for p in multiprocessing.active_children())
    return own + live + reaped


def drive(workload, seed: int, client: int, seconds: float) -> dict:
    """Set up, warm up, then run operations for ``seconds`` and check them."""
    clock = time.perf_counter
    workload.setup(seed, client / CLIENTS)
    errors: dict = {}
    samples = []
    attempted = 0

    def attempt(k: int):
        nonlocal attempted
        prepared = workload.prepare(k)
        attempted += 1
        start = clock()
        try:
            out = workload.run(prepared)
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc()
            errors[k] = f"{type(exc).__name__}: {exc}"
            return None
        elapsed = clock() - start
        error = workload.check(k, prepared, out)
        if error:
            errors[k] = error
            return None
        return [workload.kind(prepared), elapsed, workload.work(prepared, out)]

    for k in range(workload.warmup):
        attempt(k)
    ready = time.monotonic()
    k = workload.warmup
    start = clock()
    while k == workload.warmup or clock() - start < seconds:
        sample = attempt(k)
        if sample is not None:
            samples.append(sample)
        k += 1
    for k, message in workload.finish():
        errors.setdefault(k, message)
    return {
        "ready": ready,
        "samples": samples,
        "attempted": attempted,
        "failed": len(errors),
        "errors": list(errors.values())[:5],
        "digest": workload.digest(),
        "rss_kb": peak_rss_kb(),
    }


def client_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import repro
    import workloads

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    try:
        if args.trace:
            result = trace_client(workload, args)
        else:
            result = drive(workload, args.seed, args.client, args.seconds)
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


def trace_client(workload, args: argparse.Namespace) -> dict:
    import tracing
    import workloads

    env = client_env()
    probes = tracing.import_profile(ROOT, env)
    if isinstance(workload, workloads.CliCold):
        result = tracing.traced_cli(workload, args.seed, ROOT, env,
                                    probes["process.startup_s"])
    else:
        result = tracing.traced_drive(workload, args.seed, args.seconds)
    result["metrics"] = {
        **{name: 0.0 for name in tracing.PER_LAYER}, **probes,
        **result["metrics"],
    }
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    path = workloads.OUT / f"trace-{args.workload}.json"
    trace = {"workload": args.workload, "seed": args.seed,
             "metrics": result["metrics"], **result.pop("trace")}
    path.write_text(json.dumps(trace) + "\n", encoding="utf-8")
    result["trace_file"] = str(path.relative_to(ROOT))
    result["failed"] = len(result["failed"])
    return result


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

class RunFailed(Exception):
    """A client crashed or the run overran its budget."""


def spawn_client(args: argparse.Namespace, index: int, seconds: float,
                 deadline: float) -> dict:
    """Run one client to completion; its process group is killed on
    overrun so no grandchild (CLI process, pool worker) outlives it."""
    command = [sys.executable, str(SUITE / "run.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds",
               repr(seconds), "--trace", str(args.trace), "--client",
               str(index)]
    spawned = time.monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, env=client_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"client {index} overran the {BUDGET_S:g} s budget")
    if proc.returncode != 0:
        raise RunFailed(f"client {index} exited {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["spawned"] = spawned
    return result


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values):
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, statistics.quantiles(values, n=100)[pct - 1]


def summarise(clients) -> dict:
    samples = [s for c in clients for s in c["samples"]]
    latencies = [s[1] for s in samples]
    setups = [c["ready"] - c["spawned"] for c in clients]
    rss = [c["rss_kb"] / 1024.0 for c in clients]
    attempted = sum(c["attempted"] for c in clients)
    failed = sum(c["failed"] for c in clients)
    errors = [e for c in clients for e in c["errors"]]
    digests = {json.dumps(c["digest"], sort_keys=True) for c in clients}
    if len(digests) > 1:
        failed += 1
        errors.append("clients disagree on the workload's result digest")
    rows = []
    if latencies:
        rates = [s[2] / s[1] for s in samples]
        metrics = {
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "work_per_s": sum(s[2] for s in samples) / sum(latencies),
            "peak_rss_mb": max(rss),
            "setup_s": statistics.median(setups),
        }
        q1, _, q3 = quartiles(latencies)
        rows.append(("op_p50_ms", "ms", metrics["op_p50_ms"], q1 * 1e3,
                     q3 * 1e3, len(latencies)))
        q1, _, q3 = quartiles(rates)
        rows.append(("work_per_s", "1/s", metrics["work_per_s"], q1, q3,
                     len(rates)))
        q1, _, q3 = quartiles(rss)
        rows.append(("peak_rss_mb", "MB", metrics["peak_rss_mb"], q1, q3,
                     len(rss)))
        q1, _, q3 = quartiles(setups)
        rows.append(("setup_s", "s", metrics["setup_s"], q1, q3, len(setups)))
        extra = tail(latencies)
        if extra:
            rows.append((f"op_p{extra[0]}_ms", "ms", extra[1] * 1e3, None,
                         None, len(latencies)))
        kinds = sorted({s[0] for s in samples})
        if len(kinds) > 1:
            for kind in kinds:
                values = [s[1] for s in samples if s[0] == kind]
                q1, q2, q3 = quartiles(values)
                rows.append((f"{kind}.p50_ms", "ms", q2 * 1e3, q1 * 1e3,
                             q3 * 1e3, len(values)))
    else:
        metrics = {}
    rows.append(("error_rate", "failed/attempted",
                 failed / attempted if attempted else 1.0, None, None,
                 attempted))
    return {"metrics": metrics, "rows": rows, "attempted": attempted,
            "failed": failed, "errors": errors}


def print_rows(rows, header: str) -> None:
    print(header)
    print(f"  {'metric':22s} {'unit':16s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s} {'n':>6s}")

    def fmt(value):
        return f"{value:14.6g}" if value is not None else f"{'':14s}"

    for name, unit, value, q1, q3, n in rows:
        print(f"  {name:22s} {unit:16s} {fmt(value)} {fmt(q1)} {fmt(q3)} "
              f"{n:6d}")


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def append_history(path: str, args: argparse.Namespace, report: dict) -> None:
    """One RunManifest-shaped line per run (git rev, versions, seed, metrics)."""
    sys.path.insert(0, str(SRC))
    from repro.obs import RunManifest

    manifest = RunManifest.build(
        kind="bench",
        config={"workload": args.workload, "seconds": args.seconds,
                "trace": args.trace, "label": args.label,
                "env": environment()},
        seeds={"workload": args.seed},
        outputs=report,
    )
    manifest.created_unix_s = time.time()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(manifest.to_json() + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'repro'}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SUITE))
    if args.client is not None:
        return client_main(args)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    names = [w["name"] for w in declared]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            result = spawn_client(args, 0, args.seconds, deadline)
            report = trace_report(args, result)
        else:
            clients = [
                spawn_client(args, i, args.seconds / CLIENTS, deadline)
                for i in range(CLIENTS)
            ]
            report = untraced_report(args, clients)
    except RunFailed as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        append_history(args.out, args, report)
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if report["correct"] else 1


def untraced_report(args: argparse.Namespace, clients) -> dict:
    summary = summarise(clients)
    print_rows(summary["rows"],
               f"workload {args.workload}, seed {args.seed}, "
               f"{len(clients)} clients, {args.seconds:g} s measured")
    for error in summary["errors"]:
        print(f"  FAILED: {error}")
    return {
        "correct": summary["failed"] == 0 and bool(summary["metrics"]),
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": summary["metrics"][name], "unit": unit}
                    for name, (unit, _) in END_TO_END.items()
                    if name in summary["metrics"]},
    }


def trace_report(args: argparse.Namespace, result: dict) -> dict:
    import tracing

    trace = json.loads((ROOT / result["trace_file"]).read_text())
    print(f"workload {args.workload}, seed {args.seed}, traced "
          f"({result['trace_file']})")
    groups = sorted({r["group"] for r in trace.get("rounds", [])})
    for group in groups:
        print(f" round group {group}:")
        for line in tracing.layer_table(trace, group):
            print(line)
    for target in trace.get("missing_targets", []):
        print(f"  MISSING target {target}: its metrics read 0")
    print(f"  {'metric':32s} {'unit':8s} {'value':>14s}")
    for name, (unit, *_rest) in tracing.PER_LAYER.items():
        print(f"  {name:32s} {unit:8s} {result['metrics'][name]:14.6g}")
    for error in result["errors"]:
        print(f"  FAILED: {error}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": spec[0]}
                    for name, spec in tracing.PER_LAYER.items()},
    }


if __name__ == "__main__":
    sys.exit(main())

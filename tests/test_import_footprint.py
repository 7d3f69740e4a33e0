"""A cold ``import repro`` and CLI command load only what they run.

Only :class:`repro.core.failure.NonStationaryFailure` needs SciPy, and
it imports it lazily; a cold CLI start must not pay for it.  Nor do
``solve``, ``sweep`` and ``relay`` run the simulated 802.11n link
stack, the mission layer or (without ``--jobs``/``--serial``) the
worker pool, so the lazy package re-exports keep those unloaded.  Each
check runs in a fresh interpreter so this process's imports cannot
mask it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

REPORT = (
    "import json, sys\n"
    "print(json.dumps(sorted(sys.modules)))\n"
)

#: The simulated link stack and mission layer no solve path runs.
LINK_STACK = (
    "repro.net",
    "repro.channel",
    "repro.phy",
    "repro.mac",
    "repro.sim",
    "repro.mission",
)

#: What ``import repro`` and ``repro solve`` must leave unloaded.
SOLVE_UNUSED = LINK_STACK + (
    "repro.exec",
    "repro.measurements.batch",
    "repro.measurements.campaign",
    "repro.relay.transfer",
)

SWEEP = [
    "sweep", "airplane", "--param", "rho_per_m",
    "--geomspace", "1e-5", "1e-2", "200", "--no-cache", "--json",
]
RELAY = ["relay", "--hops", "quadrocopter,airplane", "--no-cache", "--json"]


def modules_after(code):
    env = dict(os.environ, REPRO_NO_CACHE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code + REPORT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def cli_modules(argv):
    code = (
        "import runpy, sys\n"
        f"sys.argv = ['repro', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
    )
    return modules_after(code)


def loaded(modules, packages):
    """The loaded modules that are, or live under, one of ``packages``."""
    return sorted(
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in packages)
    )


def test_import_repro_does_not_import_scipy():
    assert loaded(modules_after("import repro\n"), ("scipy",)) == []


def test_cli_solve_does_not_import_scipy():
    modules = cli_modules(["solve", "airplane", "--json"])
    assert loaded(modules, ("scipy",)) == []


def test_import_repro_loads_no_unused_layer():
    assert loaded(modules_after("import repro\n"), SOLVE_UNUSED) == []


def test_cli_solve_loads_no_unused_layer():
    modules = cli_modules(["solve", "airplane", "--json"])
    assert loaded(modules, SOLVE_UNUSED) == []


def test_cli_sweep_loads_no_link_stack_or_pool():
    modules = cli_modules(SWEEP)
    assert loaded(modules, LINK_STACK + ("repro.exec",)) == []


def test_cli_relay_loads_no_link_stack_or_pool():
    modules = cli_modules(RELAY)
    assert loaded(modules, LINK_STACK + ("repro.exec",)) == []


def test_cli_jobs_flag_still_configures_the_pool():
    modules = cli_modules(SWEEP + ["--jobs", "2"])
    assert "repro.exec" in modules
    assert loaded(modules, LINK_STACK) == []

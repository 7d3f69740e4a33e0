"""SciPy stays off the ``import repro`` and ``repro solve`` paths.

Only :class:`repro.core.failure.NonStationaryFailure` needs SciPy, and
it imports it lazily; a cold CLI start must not pay for it.  Each check
runs in a fresh interpreter so this process's imports cannot mask it.
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
    "print(json.dumps(sorted(m for m in sys.modules"
    " if m.split('.')[0] == 'scipy')))\n"
)


def scipy_modules_after(code):
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


def test_import_repro_does_not_import_scipy():
    assert scipy_modules_after("import repro\n") == []


def test_cli_solve_does_not_import_scipy():
    code = (
        "import runpy, sys\n"
        "sys.argv = ['repro', 'solve', 'airplane', '--json']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
    )
    assert scipy_modules_after(code) == []

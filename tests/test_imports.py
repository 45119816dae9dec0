"""Importing one part of the package must not pull in the rest.

The package imports numpy only: scipy is used by the tests alone, and
loading it would cost every CLI process a few tenths of a second and about
20 MB.  The capture layer needs neither the environment nor the signals.
Nor may an import change the environment: only the console script's entry
point sets its one-BLAS-thread default.  Each check runs in a fresh
interpreter so modules imported by other tests cannot mask it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_after(module: str, names: tuple[str, ...]) -> list[str]:
    code = (
        f"import json, sys, {module}\n"
        f"print(json.dumps([n for n in {list(names)!r} if n in sys.modules]))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "module, absent",
    [
        ("execlab.cli", ("scipy",)),
        ("execlab.capture", ("execlab.env", "execlab.signals", "scipy")),
        ("execlab.signals", ("scipy",)),
    ],
)
def test_import_leaves_out(module, absent):
    assert loaded_after(module, absent) == []


def test_import_leaves_the_environment_alone():
    code = (
        "import json, os\n"
        "before = dict(os.environ)\n"
        "import execlab, execlab.cli, execlab.__main__\n"
        "print(json.dumps(dict(os.environ) == before))"
    )
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) is True


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
RUN = SRC.parent / "perfbench" / "run.py"


def console_blas_threads(**user_env) -> int | None:
    """OpenBLAS's thread count in a process that entered through the console
    script's entry point, read as the benchmark reads it."""
    code = (
        "import contextlib, importlib.util, io, json, sys\n"
        "from execlab.__main__ import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        "    main(['--help'])\n"
        "assert 'numpy' in sys.modules\n"
        f"spec = importlib.util.spec_from_file_location('perfbench_run', {str(RUN)!r})\n"
        "run = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(run)\n"
        "print(json.dumps(run.blas_threads()))"
    )
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(user_env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_console_script_runs_one_blas_thread_unless_told_otherwise():
    default = console_blas_threads()
    if default is None:
        pytest.skip("numpy does not load OpenBLAS here")
    assert default == 1
    # OpenBLAS never runs more threads than the host has CPUs
    user = min(2, os.cpu_count() or 1)
    assert console_blas_threads(OPENBLAS_NUM_THREADS="2") == user
    assert console_blas_threads(OMP_NUM_THREADS="2") == user

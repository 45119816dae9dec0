"""Importing one part of the package must not pull in the rest.

The package imports numpy only: scipy is used by the tests alone, and
loading it would cost every CLI process a few tenths of a second and about
20 MB.  The capture layer needs neither the environment nor the signals,
the config neither the environment nor the agent, and each CLI command
loads only the modules it runs.
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
        ("execlab.config", ("execlab.env", "execlab.lob", "execlab.ppo", "execlab.evalkit")),
    ],
)
def test_import_leaves_out(module, absent):
    assert loaded_after(module, absent) == []


@pytest.fixture(scope="module")
def tiny_market(tmp_path_factory):
    """A config and the 12 s synth capture it names."""
    from execlab.synth import SynthConfig, generate

    root = tmp_path_factory.mktemp("tiny")
    capture = root / "market.ndjson"
    generate(SynthConfig(seed=2), 12.0, capture)
    cfg = root / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "version": 1,
                "paths": {"capture": str(capture)},
                "synth": {"seed": 2},
                "synth_duration_s": 12.0,
                "signals": {"horizons_ms": [100, 500], "window_ms": 2000, "bin_horizon_ms": 500},
            }
        )
    )
    return capture, cfg


CAPTURE_ONLY = (
    "execlab.config", "execlab.synth", "execlab.signals", "execlab.env", "execlab.lob", "execlab.ppo", "execlab.evalkit",
)


@pytest.mark.parametrize(
    "command, absent",
    [
        ("capture resample", CAPTURE_ONLY),
        ("capture align", CAPTURE_ONLY),
        ("synth gen", ("execlab.env", "execlab.lob", "execlab.ppo", "execlab.evalkit")),
        ("signals report", ("execlab.ppo", "execlab.evalkit")),
    ],
)
def test_command_loads_only_the_modules_it_runs(tiny_market, tmp_path, command, absent):
    capture, cfg = tiny_market
    argv = {
        "capture resample": ["capture", "resample", capture, tmp_path / "frames.csv"],
        "capture align": ["capture", "align", capture, tmp_path / "clock.json"],
        "synth gen": ["synth", "gen", "--config", cfg, "--out", tmp_path / "market.ndjson"],
        "signals report": ["signals", "report", "--config", cfg, "--out-dir", tmp_path / "out"],
    }[command]
    code = (
        "import contextlib, io, json, sys\n"
        "import execlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = execlab.cli.main({[str(a) for a in argv]!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    exit_code, loaded = json.loads(proc.stdout)
    assert exit_code == 0, proc.stderr
    assert "execlab.capture" in loaded
    assert [name for name in absent if name in loaded] == []


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

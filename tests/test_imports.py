"""Importing one part of the package must not pull in the rest.

The package imports numpy only: scipy is used by the tests alone, and
loading it would cost every CLI process a few tenths of a second and about
20 MB.  The capture layer needs neither the environment nor the signals,
the config neither the environment nor the agent, and each CLI command
loads only the modules it runs.
Nor may an import change the environment: the one-BLAS-thread rule lives in
`execlab.blas` alone, sets the count through the library for the length of
each command, however the command is entered, and writes no environment
variable.  Each check runs in a fresh interpreter so modules imported by
other tests cannot mask it.
An import kept without a caller (`# noqa: F401`) is kept only for the
benchmark's tracing to patch.
"""

import ast
import importlib.util
import json
import os
import re
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

# Runs `capture align` through one entry point in a fresh interpreter, with
# the capture reader wrapped so that it reads OpenBLAS's thread count inside
# the command; prints the count before the call, inside the command and after
# the call, and how the call ended.
THREADS_IN_A_COMMAND = """
import contextlib, io, json, runpy, sys
import execlab.cli as cli
from execlab import blas

control = blas.openblas_threads()
if control is None:
    print("null")
    sys.exit()
get, _ = control
inside = []
read_capture = cli.read_capture

def reading(*args, **kwargs):
    inside.append(get())
    if FAILS:
        raise RuntimeError("the command fails")
    return read_capture(*args, **kwargs)

cli.read_capture = reading
before = get()
argv = ["capture", "align", CAPTURE, OUT]
try:
    with contextlib.redirect_stdout(io.StringIO()):
        if ENTRY == "python -m execlab":
            sys.argv = ["execlab", *argv]
            runpy.run_module("execlab", run_name="__main__", alter_sys=True)
        else:
            ended = cli.main(argv)
except SystemExit as exc:
    ended = exc.code
except RuntimeError:
    ended = "raised"
print(json.dumps([before, inside, get(), ended]))
"""


def threads_in_a_command(capture, out, entry, fails=False, **user_env):
    """(count before, counts inside the command, count after, exit code or
    "raised") for `capture align` entered through `entry`, or None where
    numpy does not load OpenBLAS."""
    code = f"ENTRY, CAPTURE, OUT, FAILS = {entry!r}, {str(capture)!r}, {str(out)!r}, {fails!r}\n"
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(user_env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code + THREADS_IN_A_COMMAND], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("entry", ["python -m execlab", "execlab.cli.main"])
def test_a_command_runs_one_blas_thread_unless_told_otherwise(tiny_market, tmp_path, entry):
    capture, _ = tiny_market
    out = tmp_path / "clock.json"
    seen = threads_in_a_command(capture, out, entry)
    if seen is None:
        pytest.skip("numpy does not load OpenBLAS here")
    before, inside, after, ended = seen
    assert (inside, after, ended) == ([1], before, 0)
    assert out.exists()
    # the caller's count, restored when the command raises too
    assert threads_in_a_command(capture, out, entry, fails=True) == [before, [1], before, "raised"]
    # OpenBLAS never runs more threads than the host has CPUs
    user = min(2, os.cpu_count() or 1)
    for var in BLAS_VARS:
        assert threads_in_a_command(capture, out, entry, **{var: "2"}) == [user, [user], user, 0]


def test_only_the_blas_module_names_the_thread_rule():
    rule = re.compile(r"OPENBLAS_NUM_THREADS|OMP_NUM_THREADS|openblas_\w*num_threads", re.IGNORECASE)
    named = []
    for path in sorted((SRC / "execlab").rglob("*.py")):
        if path != SRC / "execlab" / "blas.py":
            text = path.read_text(encoding="utf-8")
            named += [f"{path.relative_to(SRC)}: {m.group()}" for m in rule.finditer(text)]
    assert named == []


TRACING = SRC.parent / "perfbench" / "tracing.py"


def test_unused_imports_are_only_the_names_tracing_patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    patched = {(module, attr) for module, attr, _ in tracing.PATCHES}
    unpatched = []
    for path in sorted((SRC / "execlab").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]
            ):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unpatched += [f"{module}.{name}" for name in names if (module, name) not in patched]
    assert unpatched == []

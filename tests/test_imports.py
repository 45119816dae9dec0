"""Importing one part of the package must not pull in the rest.

The package imports numpy only: scipy is used by the tests alone, and
loading it would cost every CLI process a few tenths of a second and about
20 MB.  The capture layer needs neither the environment nor the signals.
Each check runs in a fresh interpreter so modules imported by other tests
cannot mask it.
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

"""Every name the benchmark's traced runs patch must still exist.

`perfbench/tracing.py` replaces each `(module, attribute)` of its `PATCHES`
table by a span wrapper; a name that no longer resolves makes every
`--trace 1` run fail with AttributeError.  The file is loaded by path and
not modified.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves():
    missing = []
    for module_name, attr, _ in load_tracing().PATCHES:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{module_name}.{attr}")
                break
        else:
            assert callable(owner), f"{module_name}.{attr}"
    assert missing == []

"""Every name the benchmark's traced runs patch must still exist.

`perfbench/tracing.py` replaces each `(module, attribute)` of its `PATCHES`
table by a span wrapper; a name that no longer resolves makes every
`--trace 1` run fail with AttributeError.  The file is loaded by path and
not modified; the traced CLI runs go through the benchmark's own worker.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
SRC = TRACING.parent.parent / "src"


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


def test_traced_cli_runs_open_their_spans(tmp_path):
    # A traced benchmark run calls the patched names with the arguments the
    # CLI passes today; a signature change that breaks one shows up here as a
    # failing command or a span that never opens.
    capture = tmp_path / "market.ndjson"
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "version": 1,
                "paths": {"capture": str(capture), "out_dir": str(out), "checkpoint_cross": str(out / "ppo.npz")},
                "synth": {"seed": 3},
                "synth_duration_s": 20.0,
                "problem": {"horizon_s": 2.0, "n_decisions": 10},
                "ppo": {"rollout_steps": 64, "minibatch_size": 32, "update_epochs": 1},
                "signals": {"target_venue": "v1", "horizons_ms": [100, 500], "window_ms": 5000},
                "train": {"updates": 1},
                "evaluate": {"episodes": 2, "heatmap_episodes": 2, "trace_episodes": 0},
            }
        )
    )
    commands = {  # in order: each command reads what the ones before it wrote
        "synth": ["synth", "gen", "--config", str(cfg), "--out", str(capture)],
        "align": ["capture", "align", str(capture), str(tmp_path / "clock.json")],
        "resample": ["capture", "resample", str(capture), str(tmp_path / "frames.csv")],
        "report": ["signals", "report", "--config", str(cfg)],
        "train": ["train", "--config", str(cfg)],
        "evaluate": ["evaluate", "--config", str(cfg)],
    }
    names = set()
    for run_id, args in commands.items():
        stats = tmp_path / f"{run_id}.json"
        proc = subprocess.run(
            [sys.executable, str(TRACING.parent / "worker.py"), "cli", str(stats), run_id, *args],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        with open(stats.with_suffix(".spans.jsonl"), encoding="utf-8") as fh:
            next(fh)  # counters
            names |= {json.loads(line)["name"] for line in fh}
    assert {
        "synth.generate",
        "capture.clock",
        "capture.book.apply_snapshot",
        "signals.horizon_report",
        "ppo.trainer.train_policy",
        "ppo.trainer.rollout",
        "ppo.trainer.update",
        # the minibatch's own layers: an inlined call would empty their metrics
        "ppo.agent.policy_forward",
        "ppo.agent.ppo_loss",
        "ppo.net.mlp_forward",
        "ppo.net.mlp_backward",
        "ppo.net.adam_step",
        "evalkit.compare",
        "evalkit.heatmap",
    } <= names


# Replaces every PATCHES entry in the order Tracer.install does, in a process
# that has imported nothing of execlab yet, as the benchmark's worker has
# not, by a wrapper that records "<module>.<attribute>"; then runs the CLI.
PATCH_AND_RUN = """
import contextlib, importlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
assert not [name for name in sys.modules if name.startswith("execlab")]
calls = []

def recording(key, fn):
    def called(*args, **kwargs):
        calls.append(key)
        return fn(*args, **kwargs)
    return called

for module_name, attr, _ in tracing.PATCHES:
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    setattr(owner, leaf, recording(f"{module_name}.{attr}", getattr(owner, leaf)))

from execlab.cli import main

called = {}
for argv in json.loads(sys.argv[2]):
    calls.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    called[" ".join(argv[:2])] = sorted(set(calls))
print(json.dumps(called))
"""


def test_patched_cli_names_are_what_the_commands_call(tmp_path):
    # Each execlab.cli name is resolved on its first lookup; the patch made
    # there is what the command calls, and around the function its module
    # defines, not around that module's own patch (which would open every
    # span twice).
    capture = tmp_path / "market.ndjson"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "synth": {"seed": 3}, "synth_duration_s": 5.0}))
    commands = [
        ["synth", "gen", "--config", str(cfg), "--out", str(capture)],
        ["capture", "resample", str(capture), str(tmp_path / "frames.csv")],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PATCH_AND_RUN, str(TRACING), json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    called = json.loads(proc.stdout)
    assert called["synth gen"] == ["execlab.cli.generate"]
    assert called["capture resample"] == [
        "execlab.capture.resample.apply_snapshot",
        "execlab.cli.read_capture",
        "execlab.cli.resample",
        "execlab.cli.write_frames_csv",
    ]

"""Workload inputs shared by the orchestrator (run.py) and its worker processes.

Every input is derived from the workload seed; the default seed is the
acceptance market of the test suite.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DEFAULT_SEED = 1234
TARGET = "v1"
TRAIN_SEED = 505
EVAL_SEED = 777
POLICY_DRAW_SEED = 42
PIPELINE_COMMANDS = ("capture_resample", "signals_report", "train_cross", "train_single", "evaluate")

# "full" is what the benchmark measures; "tiny" only feeds the smoke self-test.
SIZES = {
    "full": {
        "ingest_market_s": 60.0,
        "train_market_s": 300.0,
        "train_updates": 10,
        "train_episodes": 300,
        "pipeline_market_s": 60.0,
        "pipeline_updates": 4,
        "pipeline_episodes": 100,
        "pipeline_heatmap_episodes": 50,
    },
    "tiny": {
        "ingest_market_s": 2.0,
        "train_market_s": 60.0,
        "train_updates": 1,
        "train_episodes": 10,
        "pipeline_market_s": 55.0,
        "pipeline_updates": 1,
        "pipeline_episodes": 10,
        "pipeline_heatmap_episodes": 5,
    },
}


def market(seed: int):
    """The acceptance market's parameters with the workload seed."""
    from execlab.synth import SynthConfig

    return SynthConfig(seed=seed, signal_strength=0.5, lag_ms=(0, 200, 300), tilt_noise=0.6)


def pipeline_config(seed: int, size: dict, capture: Path, out_dir: Path, scope: str) -> dict:
    """CLI config of the pipeline workload: book-walk fills with impact on."""
    return {
        "version": 1,
        "seed": 0,
        "paths": {
            "capture": str(capture),
            "out_dir": str(out_dir),
            "checkpoint_single": str(out_dir / "ppo_single.npz"),
            "checkpoint_cross": str(out_dir / "ppo_cross.npz"),
        },
        "synth": {"seed": seed, "signal_strength": 0.5, "lag_ms": [0, 200, 300], "tilt_noise": 0.6},
        "synth_duration_s": size["pipeline_market_s"],
        "problem": {"fill_model": "walk", "impact_enabled": True},
        "signals": {"target_venue": TARGET},
        "train": {"scope": scope, "updates": size["pipeline_updates"], "seed": TRAIN_SEED},
        "evaluate": {
            "episodes": size["pipeline_episodes"],
            "seed": EVAL_SEED,
            "heatmap_episodes": size["pipeline_heatmap_episodes"],
            "trace_episodes": 1,
        },
    }


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()

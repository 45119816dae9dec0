import contextlib
import errno
import hashlib
import importlib.util
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import warnings
import zipfile
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import execlab.cli
import execlab.synth
from execlab.capture import VenueFrames, read_capture, resample, write_capture
from execlab.capture.records import GRID_NS
from execlab.cli import main, read_frames_npz, write_frames_npz
from execlab.config import ExperimentConfig, load_config, parse_config
from execlab.errors import ConfigError, UnwritableOutput, open_output
from execlab.ppo import PolicyParams, PpoConfig, save_checkpoint, trainer
from execlab.signals import feature_bundle
from execlab.synth import SynthConfig, generate
from markets import flat_market
from reference import venue_frames
from test_critic_helper import HELPER_FAILURES, assert_no_child, needs_helper


def write_config(path, **overrides):
    cfg = {
        "version": 1,
        "seed": 4,
        "paths": {"out_dir": str(path.parent / "out")},
        "synth": {
            "seed": 12,
            "vol": 2e-5,
            "signal_strength": 0.5,
            "lag_ms": [0, 200, 300],
        },
        "synth_duration_s": 80.0,
        "problem": {"horizon_s": 20.0, "n_decisions": 10},
        "ppo": {"rollout_steps": 300, "minibatch_size": 128},
        "signals": {"target_venue": "v1", "horizons_ms": [100, 500], "window_ms": 5000},
        "train": {"scope": "cross", "updates": 3, "seed": 5},
        "evaluate": {"episodes": 25, "seed": 6, "heatmap_episodes": 5, "trace_episodes": 1},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path.write_text(json.dumps(cfg))
    return path


# -- config ---------------------------------------------------------------------


def test_unknown_top_level_field_named():
    with pytest.raises(ConfigError) as exc:
        parse_config({"version": 1, "sinth": {}})
    assert exc.value.field == "sinth"


def test_unknown_section_field_named():
    with pytest.raises(ConfigError) as exc:
        parse_config({"version": 1, "problem": {"total_unitz": 5}})
    assert exc.value.field == "problem.total_unitz"


def test_unsupported_version_rejected():
    with pytest.raises(ConfigError):
        parse_config({"version": 99})


def test_bad_section_value_reported():
    with pytest.raises(ConfigError):
        parse_config({"version": 1, "train": {"scope": "dual"}})


def test_invalid_synth_section_rejected_at_load():
    with pytest.raises(ConfigError) as exc:
        parse_config({"version": 1, "synth": {"n_venues": 0}})
    assert exc.value.field == "synth"
    assert "n_venues" in str(exc.value)


@pytest.mark.parametrize(
    "raw, field",
    [
        ({"train": {"updates": "x"}}, "train.updates"),
        ({"train": {"seed": "x"}}, "train.seed"),
        ({"evaluate": {"seed": "x"}}, "evaluate.seed"),
        ({"evaluate": {"episodes": "x"}}, "evaluate.episodes"),
        ({"evaluate": {"trace_episodes": "x"}}, "evaluate.trace_episodes"),
        ({"ppo": {"update_epochs": "x"}}, "ppo.update_epochs"),
        ({"problem": {"total_units": 2.5}}, "problem.total_units"),
        ({"signals": {"target_venue": 5}}, "signals.target_venue"),
        ({"train": {"updates": True}}, "train.updates"),
        ({"problem": {"impact_enabled": 1}}, "problem.impact_enabled"),
        ({"signals": {"horizons_ms": [100, "x"]}}, "signals.horizons_ms"),
        ({"paths": {"capture": 3}}, "paths.capture"),
        ({"seed": None}, "seed"),
        ({"evaluate": {"episodes": 1}}, "evaluate.episodes"),
        ({"evaluate": {"episodes": 0}}, "evaluate.episodes"),
        ({"evaluate": {"episodes": -1}}, "evaluate.episodes"),
        ({"train": {"updates": -1}}, "train.updates"),
        ({"ppo": {"minibatch_size": 1}}, "ppo"),
        ({"ppo": {"minibatch_size": 0}}, "ppo"),
        ({"problem": {"horizon_s": 50.005}}, "problem"),
        ({"seed": -1}, "seed"),
        ({"train": {"seed": -1}}, "train.seed"),
        ({"evaluate": {"seed": -1}}, "evaluate.seed"),
        ({"synth": {"seed": -1}}, "synth"),
        ({"ppo": {"seed": -1}}, "ppo"),
        ({"ppo": {"update_epochs": 0}}, "ppo"),
        ({"ppo": {"update_epochs": -1}}, "ppo"),
        ({"synth_duration_s": 0.001}, "synth_duration_s"),
        ({"synth_duration_s": 0}, "synth_duration_s"),
        ({"synth_duration_s": -5}, "synth_duration_s"),
        ({"evaluate": {"heatmap_episodes": -5}}, "evaluate.heatmap_episodes"),
        ({"evaluate": {"trace_episodes": -1}}, "evaluate.trace_episodes"),
        # rejected by its type, as a number field takes only a finite value
        ({"problem": {"horizon_s": float("inf")}}, "problem.horizon_s"),
    ],
)
def test_bad_value_rejected_at_load(raw, field):
    with pytest.raises(ConfigError) as exc:
        parse_config({"version": 1, **raw})
    assert exc.value.field == field


def test_values_kept_as_given():
    # no coercion: checkpoint headers embed the PPO config as loaded
    cfg = parse_config(
        {
            "version": 1,
            "synth_duration_s": 5,
            "paths": {"capture": None},
            "ppo": {"actor_lr": 1},
            "synth": {"depth_profile": [4, 6, 8, 10, 12]},
        }
    )
    assert type(cfg.synth_duration_s) is int and type(cfg.ppo.actor_lr) is int
    assert cfg.paths.capture is None
    assert cfg.synth.depth_profile == (4, 6, 8, 10, 12)


def test_env_var_path_override(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path / "cfg.json")
    monkeypatch.setenv("EXECLAB_OUT_DIR", str(tmp_path / "elsewhere"))
    cfg = load_config(cfg_path)
    assert cfg.paths.out_dir == str(tmp_path / "elsewhere")


def test_defaults_round_trip(tmp_path):
    cfg = load_config(write_config(tmp_path / "cfg.json"))
    assert cfg.problem.total_units == 50
    assert cfg.synth.n_venues == 3
    assert cfg.ppo.clip_ratio == 0.2
    assert cfg.signals.horizons_ms == (100, 500)


# -- CLI ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the full CLI pipeline once on a small market."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg_path = write_config(root / "cfg.json")
    capture = root / "market.ndjson"
    assert main(["synth", "gen", "--config", str(cfg_path), "--out", str(capture)]) == 0
    cfg_path2 = root / "cfg2.json"
    write_config(cfg_path2, paths={"capture": str(capture), "out_dir": str(root / "out")})
    return root, cfg_path2, capture


def test_cli_capture_align_and_resample(pipeline):
    root, cfg_path, capture = pipeline
    clock_out = root / "clock.json"
    assert main(["capture", "align", str(capture), str(clock_out)]) == 0
    clock = json.loads(clock_out.read_text())
    assert set(clock["venues"]) == {"v0", "v1", "v2"}
    frames_out = root / "frames.csv"
    assert main(["capture", "resample", str(capture), str(frames_out)]) == 0
    header = frames_out.read_text().splitlines()[0]
    assert header.startswith("grid_ts,venue,present")


def test_cli_signals_report(pipeline):
    root, cfg_path, capture = pipeline
    assert main(["signals", "report", "--config", str(cfg_path)]) == 0
    out = root / "out"
    data = json.loads((out / "report_cross_flow_imbalance_norm.json").read_text())
    assert {h["horizon_ms"] for h in data["horizons"]} == {100, 500}
    assert (out / "horizon_r2.csv").exists()
    assert (out / "bin_curves.csv").exists()
    manifest = json.loads((out / "manifest_signals_report.json").read_text())
    assert manifest["command"] == "signals report"
    assert manifest["config_sha256"] == hashlib.sha256(cfg_path.read_bytes()).hexdigest()
    assert manifest["capture_sha256"] == hashlib.sha256(capture.read_bytes()).hexdigest()


# SHA-256 of every signals report file on the pipeline fixture: a change to
# the report's bytes must be deliberate and update these.
REPORT_DIGESTS = {
    "bin_curves.csv": "58baae754710db97545552dae02759b3fee7b5d130a62b535d4381876ab5bf6f",
    "horizon_r2.csv": "7c9bf77fff4e752bd21d5d0a2a07367fc726fa7620775d9133a1863b16ca2262",
    "report_cross_depth_imbalance.json": "ae241fdeb5a3b4b4a750dc185fbdad2bf859917277fd722aa725970a40e2aa52",
    "report_cross_flow_imbalance_norm.json": "4d865ef38629842d85a3512bfecb7a998c1397f7f8679ab57917fbc024259a4b",
    "report_depth_imbalance.json": "588f2918e51ce75aa6113dfaf20b0eb68d46697b542b51bfa1dbf50b08a8f9ca",
    "report_flow_imbalance_norm.json": "ebbc868c350d66e3bc262b94640e8198f46c7b8289cae413d4cc9c2ab20fd200",
    "report_peer_spread_centered.json": "f120051d5bb5eb238ce5d5c5a10e7b119afcb05186d4c4f3a580e982410b794c",
}


def test_cli_signals_report_bytes_pinned(pipeline, tmp_path):
    _, _, capture = pipeline
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", paths={"capture": str(capture), "out_dir": str(out)})
    assert main(["signals", "report", "--config", str(cfg)]) == 0
    written = {p.name for p in out.glob("report_*.json")} | {"bin_curves.csv", "horizon_r2.csv"}
    assert written == set(REPORT_DIGESTS)
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in written}
    assert digests == REPORT_DIGESTS


def test_cli_report_fits_the_agents_features(pipeline, tmp_path, monkeypatch):
    # Every series the report fits is, bit for bit, the column of the same name
    # in the agent's cross bundle; the peer spread is in price units in the
    # report and in bps of the target mid in the bundle.
    _, _, capture = pipeline
    fitted = {}
    real = execlab.cli.horizon_report

    def record(name, values, *args):
        fitted[name] = values
        return real(name, values, *args)

    monkeypatch.setattr(execlab.cli, "horizon_report", record)
    cfg = write_config(
        tmp_path / "cfg.json", paths={"capture": str(capture), "out_dir": str(tmp_path / "out")}
    )
    assert main(["signals", "report", "--config", str(cfg)]) == 0
    frames = resample(read_capture(capture))
    bundle = feature_bundle(frames, "v1", "cross", load_config(cfg).signals.window_ms)
    with np.errstate(invalid="ignore", divide="ignore"):
        fitted["peer_spread_centered_bps"] = (
            1e4 * fitted.pop("peer_spread_centered") / frames.venues["v1"].mid
        )
    assert sorted(fitted) == sorted(bundle)
    for name, column in bundle.items():
        assert column.tobytes() == fitted[name].tobytes(), name


def test_cli_train_then_evaluate(pipeline):
    root, cfg_path, _ = pipeline
    assert main(["train", "--config", str(cfg_path)]) == 0
    out = root / "out"
    ckpt = out / "ppo_cross.npz"
    assert ckpt.exists()
    assert (out / "training_log_cross.csv").exists()
    manifest = json.loads((out / "manifest_train_cross.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["capture_sha256"] == hashlib.sha256((root / "market.ndjson").read_bytes()).hexdigest()

    cfg_eval = root / "cfg_eval.json"
    write_config(
        cfg_eval,
        paths={
            "capture": str(root / "market.ndjson"),
            "out_dir": str(out),
            "checkpoint_cross": str(ckpt),
        },
    )
    assert main(["evaluate", "--config", str(cfg_eval)]) == 0
    report = json.loads((out / "comparison.json").read_text())
    policies = {row["policy"] for row in report["table"]}
    assert policies == {"TWAP", "PPO_cross"}
    twap_row = next(r for r in report["table"] if r["policy"] == "TWAP")
    assert twap_row["Gain_bps"] == 0.0
    assert (out / "histogram.csv").exists()
    assert (out / "action_heatmap.csv").exists()
    assert (out / "trace_TWAP_0.csv").exists()
    capture_sha256 = hashlib.sha256((root / "market.ndjson").read_bytes()).hexdigest()
    manifest = json.loads((out / "manifest_evaluate.json").read_text())
    assert (manifest["command"], manifest["capture_sha256"]) == ("evaluate", capture_sha256)


def run_every_command(capture, out_dir, cfg_dir, parse_each=False) -> dict[str, bytes]:
    """signals report, train for both scopes and evaluate into `out_dir`: every
    file a manifest lists, by name.  Each manifest holds the capture's digest.
    With `parse_each`, frames.npz is deleted before each command, so every
    command parses the capture."""
    paths = {
        "capture": str(capture),
        "out_dir": str(out_dir),
        "checkpoint_single": str(out_dir / "single.npz"),
        "checkpoint_cross": str(out_dir / "cross.npz"),
    }
    capture_sha256 = hashlib.sha256(Path(capture).read_bytes()).hexdigest()
    listed = {}
    for command, scope, manifest_name in (
        (["signals", "report"], "cross", "manifest_signals_report.json"),
        (["train"], "single", "manifest_train_single.json"),
        (["train"], "cross", "manifest_train_cross.json"),
        (["evaluate"], "cross", "manifest_evaluate.json"),
    ):
        if parse_each:
            with contextlib.suppress(FileNotFoundError):
                (out_dir / "frames.npz").unlink()
        cfg = write_config(cfg_dir / f"{out_dir.name}_{scope}.json", paths=paths, train={"scope": scope})
        assert main(command + ["--config", str(cfg)]) == 0
        manifest = json.loads((out_dir / manifest_name).read_text())
        assert manifest["capture_sha256"] == capture_sha256
        listed.update({Path(p).name: Path(p).read_bytes() for p in manifest["outputs"]})
    return listed


def test_cli_reports_are_reproducible(pipeline, tmp_path):
    # Two runs of every command into two directories: each file a manifest
    # lists matches its counterpart byte for byte.
    _, _, capture = pipeline
    outputs = [run_every_command(capture, tmp_path / name, tmp_path) for name in ("r1", "r2")]
    assert {"single.npz", "cross.npz", "training_log_single.csv", "comparison.json"} <= set(outputs[0])
    assert "action_heatmap.csv" in outputs[0] and "horizon_r2.csv" in outputs[0]
    assert sorted(outputs[0]) == sorted(outputs[1])
    for file_name, data in outputs[0].items():
        assert data == outputs[1][file_name], file_name


def frames_bits(frames) -> list:
    """Venue order, and the dtype, shape and bytes of every array: equal for two
    frame sets only if they are the same bit for bit (NaN payloads and -0.0 too)."""
    def bits(arr):
        return arr.dtype.str, arr.shape, arr.tobytes()

    return [("grid_ts", bits(frames.grid_ts))] + [
        (venue, f.name, bits(getattr(vf, f.name)))
        for venue, vf in frames.venues.items()
        for f in fields(VenueFrames)
    ]


def test_cli_warm_directory_never_parses_and_writes_the_same_bytes(pipeline, tmp_path, monkeypatch):
    # Every command parses into `cold`; `warm` starts with cold's frames.npz, so
    # no command may parse, and every file the manifests list is the same.
    _, _, capture = pipeline
    cold_dir, warm_dir = tmp_path / "cold", tmp_path / "warm"
    cold = run_every_command(capture, cold_dir, tmp_path, parse_each=True)
    capture_sha256 = hashlib.sha256(capture.read_bytes()).hexdigest()
    cached = read_frames_npz(cold_dir / "frames.npz", capture_sha256)
    assert frames_bits(cached) == frames_bits(resample(read_capture(capture)))

    def no_parse(*args, **kwargs):
        raise AssertionError("a command parsed the capture although frames.npz held its frames")

    warm_dir.mkdir()
    shutil.copy(cold_dir / "frames.npz", warm_dir)
    monkeypatch.setattr(execlab.cli, "read_capture", no_parse)
    monkeypatch.setattr(execlab.cli, "resample", no_parse)
    warm = run_every_command(capture, warm_dir, tmp_path)
    assert cold.pop("frames.npz") == (warm_dir / "frames.npz").read_bytes()
    assert sorted(warm) == sorted(cold)
    for file_name, data in cold.items():
        assert data == warm[file_name], file_name


def test_cli_one_manifest_per_command(pipeline, tmp_path):
    # signals report, both train scopes and evaluate share one output
    # directory; each leaves its own manifest listing exactly what it wrote.
    _, _, capture = pipeline
    out = tmp_path / "out"
    paths = {
        "capture": str(capture),
        "out_dir": str(out),
        "checkpoint_single": str(out / "ppo_single.npz"),
        "checkpoint_cross": str(out / "ppo_cross.npz"),
    }
    runs = [
        ("signals report", [], "cross", "manifest_signals_report.json", {"seed": 4}),
        ("train", ["--seed", "9"], "single", "manifest_train_single.json", {"train_seed": 9}),
        ("train", [], "cross", "manifest_train_cross.json", {"train_seed": 5}),
        ("evaluate", ["--seed", "8"], "cross", "manifest_evaluate.json", {"eval_seed": 8}),
    ]
    for command, flags, scope, manifest_name, seeds in runs:
        before = set(out.glob("*"))
        cfg = write_config(tmp_path / f"cfg_{scope}.json", paths=paths, train={"scope": scope})
        assert main(command.split() + flags + ["--config", str(cfg)]) == 0
        manifest = json.loads((out / manifest_name).read_text())
        written = set(out.glob("*")) - before - {out / manifest_name}
        assert manifest["outputs"] == sorted(map(str, written))
        assert (manifest["command"], manifest["seeds"]) == (command, seeds)
    assert sorted(p.name for p in out.glob("manifest*")) == sorted(run[3] for run in runs)
    manifest = json.loads((out / "manifest_evaluate.json").read_text())
    assert manifest["checkpoint_sha256"] == {
        paths[f"checkpoint_{scope}"]: hashlib.sha256(Path(paths[f"checkpoint_{scope}"]).read_bytes()).hexdigest()
        for scope in ("single", "cross")
    }


# SHA-256 of the files `evaluate` writes with no checkpoint configured (TWAP
# only) on the pipeline fixture.  No BLAS work is involved, so they do not
# depend on the machine.
TWAP_EVALUATE_DIGESTS = {
    "comparison.json": "ba5f27057616a69c9809d47f887f31d85f939cecea8f05fa3effdc88de79565f",
    "histogram.csv": "34573ead241d31379d8a334747387c18daff2317f455304f8c5052d1e2602f78",
    "trace_TWAP_0.csv": "cb8e402dd22e10b1d5aca5dabb26df6266df8c5469bafdd493f2f2ee1298d41c",
}


def test_cli_evaluate_twap_bytes_pinned(pipeline, tmp_path):
    _, _, capture = pipeline
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", paths={"capture": str(capture), "out_dir": str(out)})
    assert main(["evaluate", "--config", str(cfg)]) == 0
    written = {p.name for p in out.iterdir()} - {"manifest_evaluate.json"}
    # frames.npz embeds the digest of the ingest code's source, so it is not pinned.
    assert written == set(TWAP_EVALUATE_DIGESTS) | {"frames.npz"}
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in TWAP_EVALUATE_DIGESTS}
    assert digests == TWAP_EVALUATE_DIGESTS


@pytest.mark.parametrize("command", [["train"], ["evaluate"], ["synth", "gen"]])
def test_cli_negative_seed_flag_rejected(tmp_path, capsys, command):
    out = tmp_path / "out"
    paths = {"capture": str(tmp_path / "missing.ndjson"), "out_dir": str(out)}
    cfg = write_config(tmp_path / "cfg.json", paths=paths)
    extra = ["--out", str(tmp_path / "m.ndjson")] if command[0] == "synth" else []
    code = main(command + ["--config", str(cfg), "--seed", "-1"] + extra)
    assert code == 2
    assert capsys.readouterr().err == "error: ConfigParse: --seed must be >= 0, got -1\n"
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_cli_missing_input_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", paths={"capture": str(tmp_path / "nope.ndjson")})
    code = main(["train", "--config", str(cfg)])
    assert code == 3
    assert "MissingInput" in capsys.readouterr().err


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1, "problem": {"frobnicate": 2}}')
    code = main(["evaluate", "--config", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "ConfigParse" in err and "frobnicate" in err


def test_cli_synth_gen_deterministic(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", synth_duration_s=5.0)
    a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    assert main(["synth", "gen", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["synth", "gen", "--config", str(cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_invalid_synth_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", synth={"n_venues": 0})
    code = main(["synth", "gen", "--config", str(cfg), "--out", str(tmp_path / "m.ndjson")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigParse: ") and "n_venues" in err
    assert not (tmp_path / "m.ndjson").exists()


@pytest.mark.parametrize(
    "override, field",
    [
        ({"synth_duration_s": 0.001}, "synth_duration_s"),
        ({"synth_duration_s": 0}, "synth_duration_s"),
        ({"synth_duration_s": -5}, "synth_duration_s"),
        ({"evaluate": {"heatmap_episodes": -5}}, "evaluate.heatmap_episodes"),
        ({"evaluate": {"trace_episodes": -1}}, "evaluate.trace_episodes"),
        # NaN passes every range check, so a number field takes only a finite value.
        ({"synth": {"vol": float("nan")}}, "synth.vol"),
        ({"problem": {"fee_rate": float("inf")}}, "problem.fee_rate"),
        ({"synth": {"basis": [0.0, float("-inf"), 0.0]}}, "synth.basis"),
        # Its last records would lie past the last timestamp a capture holds.
        ({"synth_duration_s": 1e12}, "synth_duration_s"),
    ],
)
def test_cli_synth_gen_rejects_out_of_range_values(tmp_path, capsys, override, field):
    cfg = write_config(tmp_path / "cfg.json", **override)
    code = main(["synth", "gen", "--config", str(cfg), "--out", str(tmp_path / "m.ndjson")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: ConfigParse: {field}")
    assert not (tmp_path / "m.ndjson").exists()


@pytest.mark.parametrize("fee_rate", [1.0, 1e308])
def test_cli_fee_rate_of_the_whole_sale_is_refused(pipeline, tmp_path, capsys, fee_rate):
    # A fee of 1 or more leaves nothing to sell for: refused at load, before
    # any run could warn of an overflow or end in a non-finite loss.
    _, _, capture = pipeline
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.json", paths={"capture": str(capture), "out_dir": str(out)}, problem={"fee_rate": fee_rate}
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = run_cli(["train", "--config", str(cfg)], capsys)
    assert (code, err) == (2, "error: ConfigParse: section 'problem': fee_rate must lie in [0, 1)\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "problem", [{"penalty_coef": 1e308}, {"impact_coef": 1e308, "impact_enabled": True}], ids=["penalty", "impact"]
)
def test_cli_cost_coefficient_that_overflows_ends_in_one_error_line(pipeline, tmp_path, capsys, problem):
    # The ending penalty or the impact cost overflows to inf: numpy warns of
    # nothing, and the run ends in the non-finite loss it leads to.
    _, _, capture = pipeline
    cfg = write_config(
        tmp_path / "cfg.json",
        paths={"capture": str(capture), "out_dir": str(tmp_path / "out")},
        problem=problem,
        train={"updates": 1},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = run_cli(["train", "--config", str(cfg)], capsys)
    assert (code, err) == (1, "error: NonFiniteLossError: update 0, minibatch 0: loss=nan\n")


@pytest.mark.parametrize("command", [["signals", "report"], ["train"], ["evaluate"]])
def test_cli_unknown_target_venue_exit_code(pipeline, tmp_path, capsys, command):
    _, _, capture = pipeline
    cfg = write_config(
        tmp_path / "cfg.json",
        paths={"capture": str(capture), "out_dir": str(tmp_path / "out")},
        signals={"target_venue": "v9"},
    )
    code = main(command + ["--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigParse: ") and "signals.target_venue" in err and "'v9'" in err
    assert "Traceback" not in err


def test_cli_one_sided_target_book_has_no_start(pipeline, tmp_path, capsys):
    # v1 quotes bids only: it is present in no frame, so no episode can start
    lines = []
    for line in pipeline[2].read_bytes().splitlines(keepends=True):
        record = json.loads(line)
        if record["venue"] == "v1" and record["kind"] == "ticker":
            continue
        if record["venue"] == "v1" and record["kind"] in ("book_snapshot", "book_delta"):
            line = json.dumps({**record, "payload": {**record["payload"], "asks": []}}).encode() + b"\n"
        lines.append(line)
    bad = tmp_path / "one_sided.ndjson"
    bad.write_bytes(b"".join(lines))
    n_frames = resample(read_capture(bad)).n_frames
    cfg = write_config(tmp_path / "cfg.json", paths={"capture": str(bad), "out_dir": str(tmp_path / "out")})
    code, err = run_cli(["train", "--config", str(cfg)], capsys)
    assert (code, err) == (
        1,
        "error: CaptureTooShort: no start with the target venue v1 present at all 11 decision rows "
        f"(present in 0 of {n_frames} frames)\n",
    )


@pytest.mark.parametrize(
    "section, value, field",
    [
        ("signals", {"window_ms": 5}, "signals.window_ms"),
        ("signals", {"horizons_ms": [100, 15]}, "signals.horizons_ms"),
        ("signals", {"bin_horizon_ms": 2505}, "signals.bin_horizon_ms"),
        ("signals", {"features": ["depth_imbalance", "nope"]}, "signals.features"),
        ("evaluate", {"heatmap_signal": "nope"}, "evaluate.heatmap_signal"),
    ],
)
def test_cli_bad_signal_setting_exit_code(pipeline, tmp_path, capsys, section, value, field):
    _, _, capture = pipeline
    ckpt = tmp_path / "cross.npz"
    save_checkpoint(ckpt, PolicyParams.init(np.random.default_rng(0), 7, 51), PpoConfig())
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.json",
        paths={"capture": str(capture), "out_dir": str(out), "checkpoint_cross": str(ckpt)},
        **{section: value},
    )
    command = ["evaluate"] if section == "evaluate" else ["signals", "report"]
    code = main(command + ["--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigParse: ") and field in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_checkpoint_of_wrong_scope_exit_code(pipeline, tmp_path, capsys):
    _, _, capture = pipeline
    # a cross-scope network (5 features + 2) in the single-scope slot (2 features + 2)
    ckpt = tmp_path / "cross.npz"
    save_checkpoint(ckpt, PolicyParams.init(np.random.default_rng(0), 7, 51), PpoConfig())
    cfg = write_config(
        tmp_path / "cfg.json",
        paths={"capture": str(capture), "out_dir": str(tmp_path / "out"), "checkpoint_single": str(ckpt)},
    )
    code = main(["evaluate", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigParse: paths.checkpoint_single: ")
    assert "n_inputs=7" in err and "n_inputs=4" in err
    assert not (tmp_path / "out" / "comparison.json").exists()


def test_cli_checkpoint_with_wrong_action_count_exit_code(pipeline, tmp_path, capsys):
    _, _, capture = pipeline
    ckpt = tmp_path / "cross.npz"
    save_checkpoint(ckpt, PolicyParams.init(np.random.default_rng(0), 7, 51), PpoConfig())
    cfg = write_config(
        tmp_path / "cfg.json",
        paths={"capture": str(capture), "out_dir": str(tmp_path / "out"), "checkpoint_cross": str(ckpt)},
        problem={"total_units": 20},
    )
    code = main(["evaluate", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigParse: paths.checkpoint_cross: ")
    assert "n_actions=51" in err and "n_actions=21" in err


# A JSON value nested deeper than the decoder's recursion limit.
DEEP = "[" * 100_000 + "]" * 100_000


def edit_header(change):
    def damage(arrays):
        header = json.loads(bytes(arrays["header_json"]).decode("utf-8"))
        change(header)
        arrays["header_json"] = np.frombuffer(json.dumps(header).encode("utf-8"), np.uint8)

    return damage


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda arrays: arrays.pop("header_json"), "no 'header_json' array"),
        (lambda arrays: arrays.pop("actor_w2"), "no 'actor_w2' array"),
        (lambda arrays: arrays.pop("critic_opt_v"), "no 'critic_opt_v' array"),
        (edit_header(lambda header: header.update(version=99)), "unsupported checkpoint version 99"),
        (edit_header(lambda header: header.pop("n_inputs")), "header_json has no 'n_inputs'"),
        (lambda arrays: arrays.update(actor_w1=np.zeros((4, 64))), "actor_w1 has shape (4, 64)"),
        # another dtype: a flipped byte in a .npy header ("<f2") gives one without a CRC check
        (lambda arrays: arrays.update(actor_w1=arrays["actor_w1"].view(">f8")), "actor_w1 has dtype >f8, not float64"),
        ("not a checkpoint\n", "not an npz archive"),
        (np.zeros(3), "not an npz archive"),
        (edit_header(lambda header: header["config"].update(nope=1)), "header_json config: "),
        (edit_header(lambda header: header["config"].update(clip_ratio=5)), "clip_ratio must lie in (0, 1)"),
        (edit_header(lambda header: header.update(meta=[1])), "header_json meta is not an object"),
        (edit_header(lambda header: header.update(n_inputs="7")), "header_json n_inputs is not"),
        (
            lambda arrays: arrays.update(header_json=np.frombuffer(f'{{"meta": {DEEP}}}'.encode(), np.uint8)),
            "header_json is not JSON: nested too deeply",
        ),
    ],
    ids=[
        "no-header", "no-weight", "no-adam", "version", "no-header-field", "shape", "dtype", "text", "npy",
        "config-key", "config-value", "meta", "n-inputs-type", "header-nested-too-deeply",
    ],
)
def test_cli_unreadable_checkpoint_exit_code(pipeline, tmp_path, capsys, damage, message):
    _, _, capture = pipeline
    ckpt = tmp_path / "cross.npz"
    if isinstance(damage, str):
        ckpt.write_text(damage)
    elif isinstance(damage, np.ndarray):
        with open(ckpt, "wb") as fh:
            np.save(fh, damage)
    else:
        save_checkpoint(ckpt, PolicyParams.init(np.random.default_rng(0), 7, 51), PpoConfig())
        with np.load(ckpt) as data:
            arrays = {key: data[key] for key in data.files}
        damage(arrays)
        np.savez(ckpt, **arrays)
    cfg = write_config(
        tmp_path / "cfg.json",
        paths={"capture": str(capture), "out_dir": str(tmp_path / "out"), "checkpoint_cross": str(ckpt)},
    )
    code = main(["evaluate", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigParse: paths.checkpoint_cross: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "comparison.json").exists()


@pytest.mark.parametrize(
    "offset, message",
    [(200, "Bad CRC-32 for file 'actor_w2.npy'"), (11, "Cannot parse header")],
    ids=["weight-byte", "npy-header"],
)
def test_cli_corrupt_checkpoint_member_exit_code(pipeline, tmp_path, capsys, offset, message):
    _, _, capture = pipeline
    ckpt = tmp_path / "cross.npz"
    save_checkpoint(ckpt, PolicyParams.init(np.random.default_rng(0), 7, 51), PpoConfig())
    raw = bytearray(ckpt.read_bytes())
    # A member larger than zipfile's 4 KiB read-ahead has its .npy header parsed before its CRC is checked.
    npy = raw.index(b"\x93NUMPY", raw.index(b"actor_w2.npy"))  # the member's .npy magic, after its zip header
    raw[npy + offset] ^= 0xFF  # a weight byte, or the quote that opens the header dict's first key
    ckpt.write_bytes(bytes(raw))
    cfg = write_config(
        tmp_path / "cfg.json",
        paths={"capture": str(capture), "out_dir": str(tmp_path / "out"), "checkpoint_cross": str(ckpt)},
    )
    code, err = run_cli(["evaluate", "--config", str(cfg)], capsys)
    assert code == 2 and err.startswith("error: ConfigParse: paths.checkpoint_cross: actor_w2 cannot be read: ")
    assert message in err
    assert not (tmp_path / "out" / "comparison.json").exists()


def test_cli_checkpoint_of_other_target_venue_exit_code(pipeline, tmp_path, capsys):
    _, _, capture = pipeline
    params = PolicyParams.init(np.random.default_rng(0), 7, 51)
    ckpt = tmp_path / "cross.npz"
    save_checkpoint(ckpt, params, PpoConfig(), meta={"scope": "cross", "target_venue": "v1", "seed": 5})
    paths = {"capture": str(capture), "out_dir": str(tmp_path / "out"), "checkpoint_cross": str(ckpt)}
    cfg = write_config(tmp_path / "cfg.json", paths=paths, signals={"target_venue": "v2"})
    code = main(["evaluate", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigParse: paths.checkpoint_cross: ")
    assert "'v1'" in err and "'v2'" in err
    assert not (tmp_path / "out" / "comparison.json").exists()

    # a checkpoint without meta names no target venue and is accepted
    save_checkpoint(ckpt, params, PpoConfig())
    assert main(["evaluate", "--config", str(cfg)]) == 0


# -- the file boundary ------------------------------------------------------------


def run_cli(argv, capsys):
    """(exit code, stderr) of one in-process CLI run; stderr must be one error line."""
    code = main(argv)
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err, err
    return code, err


@pytest.mark.parametrize(
    "command, override, raised, message",
    [
        (["synth", "gen"], {}, MemoryError("Unable to allocate 728. TiB"), "Unable to allocate 728. TiB\n"),
        (["synth", "gen"], {}, MemoryError(), "cannot allocate memory\n"),
        # a policy network of more parameters than one numpy array holds
        (["train"], {"problem": {"total_units": 2**62}}, None, "Unable to allocate "),
        (["train"], {"problem": {"total_units": 10**18}}, None, "Unable to allocate "),
        # one whose int64 size would wrap negative
        (["train"], {"problem": {"total_units": 142_500_000_000_000_000}}, None, "Unable to allocate "),
    ],
)
def test_cli_out_of_memory(pipeline, tmp_path, capsys, monkeypatch, command, override, raised, message):
    if raised is not None:

        def no_memory(config, n_steps):
            raise raised

        monkeypatch.setattr(execlab.synth, "_materialize", no_memory)
    _, _, capture = pipeline
    out = tmp_path / "out"
    ckpt = tmp_path / "ppo.npz"
    cfg = write_config(
        tmp_path / "cfg.json", paths={"capture": str(capture), "out_dir": str(out), "checkpoint_cross": str(ckpt)}, **override
    )
    generated = tmp_path / "m.ndjson"
    target = ["--out", str(generated)] if command == ["synth", "gen"] else []
    code, err = run_cli(command + ["--config", str(cfg), *target], capsys)
    assert code == 1 and err.startswith(f"error: OutOfMemory: {message}"), err
    assert not generated.exists() and not ckpt.exists() and not list(out.glob("manifest_*"))


@needs_helper
@pytest.mark.parametrize("failure", sorted(HELPER_FAILURES))
def test_cli_a_lost_critic_helper_is_one_error_line(pipeline, tmp_path, capsys, monkeypatch, failure):
    # the helper exits, is killed, cuts its reply short, sends an exception
    # that does not rebuild or takes no request
    name, replacement, message = HELPER_FAILURES[failure]
    monkeypatch.setattr(trainer, name, replacement)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)  # the rule sets one thread, so the helper runs
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    _, _, capture = pipeline
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", paths={"capture": str(capture), "out_dir": str(out)})
    code, err = run_cli(["train", "--config", str(cfg)], capsys)
    assert code == 1 and re.match("error: CriticHelperError: " + message, err), err
    assert_no_child()
    assert not list(out.glob("ppo_*")) and not list(out.glob("manifest_*"))


def test_every_command_is_quiet_under_python_dev_mode(tmp_path):
    # `python -X dev -W error` turns an unclosed file, a warning of any kind
    # or a misuse that dev mode checks into a line on stderr; a clean command prints none there.
    capture, out = tmp_path / "market.ndjson", tmp_path / "out"
    cfg = str(write_config(
        tmp_path / "cfg.json",
        paths={"capture": str(capture), "out_dir": str(out), "checkpoint_cross": str(out / "ppo_cross.npz")},
        synth_duration_s=30.0,
        train={"updates": 1},
    ))
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    for argv in (
        ["synth", "gen", "--config", cfg, "--out", str(capture)],
        ["capture", "resample", str(capture), str(tmp_path / "frames.csv")],
        ["capture", "align", str(capture), str(tmp_path / "clock.json")],
        ["signals", "report", "--config", cfg],
        ["train", "--config", cfg],
        ["evaluate", "--config", cfg],
    ):
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "execlab", *argv],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), argv


@pytest.mark.parametrize(
    "command",
    [["capture", "resample"], ["capture", "align"], ["signals", "report"], ["train"], ["evaluate"]],
)
def test_cli_capture_not_utf8(pipeline, tmp_path, capsys, command):
    _, _, capture = pipeline
    bad = tmp_path / "bad.ndjson"
    bad.write_bytes(capture.read_bytes() + b"\xff\xff\n")
    line = capture.read_bytes().count(b"\n") + 1
    if command[0] == "capture":
        argv = command + [str(bad), str(tmp_path / "out.csv")]
    else:
        paths = {"capture": str(bad), "out_dir": str(tmp_path / "out")}
        argv = command + ["--config", str(write_config(tmp_path / "cfg.json", paths=paths))]
    code, err = run_cli(argv, capsys)
    assert (code, err) == (1, f"error: MalformedLine: line {line}: not valid UTF-8\n")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "lines, expected",
    [
        # a bad byte after a bad line: the bad line is the one reported
        ([b"{bad json", b"\xff"], "MalformedLine: line 2: invalid JSON: "),
        # a record out of order, then a line that does not parse: the order is checked first
        ([b"EARLIER", b"not json"], "UnsortedInput: records not sorted by local_ts at position 1\n"),
        # an integer literal too long for int() is no JSON number
        ([b'{"local_ts": 1' + b"0" * 5000 + b"}"], "MalformedLine: line 2: invalid JSON: "),
        # a value nested deeper than the decoder recurses
        (
            [b'{"venue":"v0","kind":"trade","local_ts":1,"payload":' + DEEP.encode() + b"}"],
            "MalformedLine: line 2: invalid JSON: nested too deeply\n",
        ),
    ],
    ids=["bad-line-then-bad-byte", "unsorted-then-bad-line", "overlong-integer", "nested-too-deeply"],
)
def test_cli_first_fault_in_the_capture_is_reported(pipeline, tmp_path, capsys, lines, expected):
    _, _, capture = pipeline
    good = capture.read_bytes().splitlines()[0]
    earlier = good.replace(b'"local_ts":', b'"local_ts":-1', 1)
    bad = tmp_path / "bad.ndjson"
    bad.write_bytes(b"\n".join([good, *lines]).replace(b"EARLIER", earlier) + b"\n")
    code, err = run_cli(["capture", "resample", str(bad), str(tmp_path / "out.csv")], capsys)
    assert code == 1 and err.startswith("error: " + expected)
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "command, field",
    [(["capture", "resample"], "local_ts"), (["capture", "align"], "exch_ts")],
    ids=["resample-local_ts", "align-exch_ts"],
)
def test_cli_timestamp_past_int64_grid_rejected(pipeline, tmp_path, capsys, command, field):
    # 1e20 ns used to wrap grid_ts silently (resample) or overflow a clock knot (align)
    good = pipeline[2].read_bytes().splitlines()[0]
    record = json.loads(good)
    record[field] = 10**20
    bad = tmp_path / "bad.ndjson"
    bad.write_bytes(good + b"\n" + json.dumps(record).encode() + b"\n")
    code, err = run_cli(command + [str(bad), str(tmp_path / "out")], capsys)
    assert (code, err) == (
        1,
        f"error: MalformedLine: line 2: {field} must lie in "
        "[-9223372036854775808, 9223372036850000000]\n",
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command", [["capture", "resample"], ["signals", "report"], ["train"]], ids=["resample", "report", "train"]
)
def test_cli_overflowing_taker_volume_rejected(pipeline, tmp_path, capsys, recwarn, command):
    # Two buys and two sells of 1e308 in one frame: each side sums to inf,
    # and their difference, the flow imbalance, used to be NaN with a warning.
    lines = pipeline[2].read_bytes().splitlines(keepends=True)
    middle = len(lines) // 2
    at = next(i for i in range(middle, len(lines)) if lines[i].startswith(b'{"venue":"v1","kind":"trade"'))
    record = json.loads(lines[at])
    extra = [
        json.dumps({**record, "payload": {**record["payload"], "qty": 1e308, "side": side}}).encode() + b"\n"
        for side in ("buy", "buy", "sell", "sell")
    ]
    bad = tmp_path / "bad.ndjson"
    bad.write_bytes(b"".join(lines[: at + 1] + extra + lines[at + 1 :]))
    out = tmp_path / "out"
    if command[0] == "capture":
        argv = command + [str(bad), str(out)]
    else:
        argv = command + ["--config", str(write_config(tmp_path / "cfg.json", paths={"capture": str(bad), "out_dir": str(out)}))]
    code, err = run_cli(argv, capsys)
    grid_ts = -(-record["local_ts"] // GRID_NS) * GRID_NS
    assert (code, err) == (1, f"error: VolumeOverflow: venue v1: taker volume at grid_ts {grid_ts} overflows\n")
    assert not out.exists() and not recwarn.list


@pytest.mark.parametrize(
    "command", [["capture", "resample"], ["signals", "report"], ["train"]], ids=["resample", "report", "train"]
)
def test_cli_overflowing_book_depth_rejected(pipeline, tmp_path, capsys, recwarn, command):
    # Five bid levels of 1e308 in one v0 snapshot: each is finite, their sum
    # is inf, and the depth imbalance used to be NaN with a warning, dropped
    # without a word from the cross-venue sum.
    lines = pipeline[2].read_bytes().splitlines(keepends=True)
    at = next(
        i for i, line in enumerate(lines)
        if line.startswith(b'{"venue":"v0","kind":"book_snapshot"') and json.loads(line)["local_ts"] > 10**10
    )
    record = json.loads(lines[at])
    record["payload"]["bids"] = [[price, 1e308] for price, _ in record["payload"]["bids"]]
    bad = tmp_path / "bad.ndjson"
    bad.write_bytes(b"".join(lines[:at] + [json.dumps(record).encode() + b"\n"] + lines[at + 1 :]))
    out = tmp_path / "out"
    if command[0] == "capture":
        argv = command + [str(bad), str(out)]
    else:
        argv = command + ["--config", str(write_config(tmp_path / "cfg.json", paths={"capture": str(bad), "out_dir": str(out)}))]
    code, err = run_cli(argv, capsys)
    grid_ts = -(-record["local_ts"] // GRID_NS) * GRID_NS
    assert (code, err) == (1, f"error: VolumeOverflow: venue v0: book depth at grid_ts {grid_ts} overflows\n")
    assert not out.exists() and not recwarn.list


@pytest.mark.parametrize(
    "signals, horizon",
    [({"bin_horizon_ms": 80_000}, "bin horizon 80000 ms"), ({"horizons_ms": [100, 80_000]}, "horizon 80000 ms")],
    ids=["bin_horizon_ms", "horizons_ms"],
)
def test_cli_signals_report_names_a_horizon_without_paired_points(pipeline, tmp_path, capsys, signals, horizon):
    # The 80 s market has no mid 80 s after any grid point; an empty bin
    # curve used to end in a traceback from np.percentile.
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", paths={"capture": str(pipeline[2]), "out_dir": str(out)}, signals=signals)
    code, err = run_cli(["signals", "report", "--config", str(cfg)], capsys)
    assert (code, err) == (1, f"error: TooFewPointsError: feature flow_imbalance_norm at {horizon}: 0 paired points\n")
    assert not list(out.glob("report_*"))


def test_cli_window_longer_than_the_capture_is_the_expanding_window(pipeline, tmp_path):
    # 10**13 ms used to end in `error: OutOfMemory`; 100 s already spans the
    # 80 s market, so both windows are the expanding window.
    outputs = []
    for window_ms in (10**13, 100_000):
        out = tmp_path / str(window_ms)
        cfg = write_config(
            tmp_path / "cfg.json", paths={"capture": str(pipeline[2]), "out_dir": str(out)}, signals={"window_ms": window_ms}
        )
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["signals", "report", "--config", str(cfg)]) == 0
        outputs.append([(out / name).read_bytes() for name in ("horizon_r2.csv", "bin_curves.csv")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "capture, expected",
    [("missing", (3, "error: MissingInput: ")), ("malformed", (1, "error: MalformedLine: "))],
    ids=["missing", "malformed"],
)
def test_cli_input_error_leaves_no_output_dir(pipeline, tmp_path, capsys, capture, expected):
    bad = tmp_path / "market.ndjson"
    if capture == "malformed":
        bad.write_bytes(pipeline[2].read_bytes()[:-20])  # chop into the last record
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", paths={"capture": str(bad), "out_dir": str(out)})
    code, err = run_cli(["train", "--config", str(cfg)], capsys)
    assert code == expected[0] and err.startswith(expected[1])
    assert not out.exists()


def test_cli_config_with_overlong_integer(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"version": 1, "seed": 1' + "0" * 5000 + "}")
    code, err = run_cli(["train", "--config", str(cfg)], capsys)
    assert code == 2 and err.startswith("error: ConfigParse: config is not valid JSON: ")


def test_cli_config_nested_too_deeply(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"version": 1, "seed": ' + DEEP + "}")
    code, err = run_cli(["train", "--config", str(cfg)], capsys)
    assert (code, err) == (2, "error: ConfigParse: config is not valid JSON: nested too deeply\n")


def test_cli_config_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"version": 1, "seed": "\xff"}')
    code, err = run_cli(["train", "--config", str(cfg)], capsys)
    assert code == 2 and err.startswith(f"error: ConfigParse: cannot read config {cfg}: ")
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("command", [["capture", "resample"], ["capture", "align"], ["train"], ["evaluate"]])
def test_cli_input_that_names_a_directory(pipeline, tmp_path, capsys, command):
    _, _, capture = pipeline
    folder = tmp_path / "folder"
    folder.mkdir()
    if command[0] == "capture":
        argv, what = command + [str(folder), str(tmp_path / "out.csv")], "capture"
    elif command == ["train"]:
        paths = {"capture": str(folder), "out_dir": str(tmp_path / "out")}
        argv, what = command + ["--config", str(write_config(tmp_path / "cfg.json", paths=paths))], "capture"
    else:
        paths = {"capture": str(capture), "out_dir": str(tmp_path / "out"), "checkpoint_cross": str(folder)}
        argv, what = command + ["--config", str(write_config(tmp_path / "cfg.json", paths=paths))], "checkpoint_cross"
    code, err = run_cli(argv, capsys)
    assert (code, err) == (3, f"error: MissingInput: {what} is not a regular file: {folder}\n")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "case", ["capture resample", "capture align", "synth gen", "train --out-dir", "train checkpoint"]
)
def test_cli_output_that_cannot_be_created(pipeline, tmp_path, capsys, case):
    _, _, capture = pipeline
    blocker = tmp_path / "file"  # a regular file where a directory is needed
    blocker.write_text("a regular file\n")
    missing = tmp_path / "no_such_dir" / "out"
    paths = {"capture": str(capture), "out_dir": str(tmp_path / "out")}
    cfg = str(write_config(tmp_path / "cfg.json", paths=paths))
    ckpt_cfg = str(write_config(tmp_path / "ckpt.json", paths={**paths, "checkpoint_cross": str(blocker / "c.npz")}))
    argv, named = {
        "capture resample": (["capture", "resample", str(capture), str(missing)], missing),
        "capture align": (["capture", "align", str(capture), str(missing)], missing),
        "synth gen": (["synth", "gen", "--config", cfg, "--out", str(missing)], missing),
        "train --out-dir": (["train", "--config", cfg, "--out-dir", str(blocker / "out")], blocker / "out"),
        "train checkpoint": (["train", "--config", ckpt_cfg], blocker),
    }[case]
    code, err = run_cli(argv, capsys)
    assert code == 1 and err.startswith("error: UnwritableOutput: cannot create ") and f" {named}: " in err
    assert not missing.parent.exists() and blocker.read_text() == "a regular file\n"


def test_open_output_leaves_no_partial_file(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(UnwritableOutput) as exc:
        with open_output(path) as fh:
            fh.write("partial")
            raise OSError(errno.ENOSPC, "No space left on device")
    assert str(exc.value) == f"cannot write {path}: No space left on device"
    assert not path.exists()
    with pytest.raises(FileNotFoundError):  # an error about another file is not this output's
        with open_output(path) as fh:
            fh.write("partial")
            open(tmp_path / "missing.ndjson")
    assert not path.exists()
    # Only a regular file is removed: a FIFO (like /dev/stdout) stays.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with pytest.raises(KeyError):
            with open_output(fifo) as fh:
                raise KeyError("x")
    finally:
        os.close(reader)
    assert fifo.exists()


# -- malformed configs -----------------------------------------------------------


def config_fields():
    """(dotted name, annotation) of every config field; a section is an "object"."""
    out = []
    for f in fields(ExperimentConfig):
        if f.default_factory is MISSING:
            out.append((f.name, f.type))
        else:
            out.append((f.name, "object"))
            out += [(f"{f.name}.{g.name}", g.type) for g in fields(f.default_factory)]
    return out


def wrong_values(annotation):
    """JSON values whose kind the annotation does not admit."""
    kinds = set(annotation.split(" | "))
    examples = {"str": "x", "bool": True, "float": 2.5, "None": None, "object": {}}
    return [[None]] + [value for kind, value in examples.items() if kind not in kinds]


WRONG_TYPE = st.sampled_from(config_fields()).flatmap(
    lambda f: st.tuples(st.just(f[0]), st.sampled_from(wrong_values(f[1])))
)
OUT_OF_RANGE = st.one_of(
    st.tuples(st.just("evaluate.episodes"), st.integers(max_value=1)),
    st.tuples(st.just("ppo.minibatch_size"), st.integers(max_value=1)),
    st.tuples(st.just("train.updates"), st.integers(max_value=-1)),
    st.tuples(
        st.sampled_from(["seed", "train.seed", "evaluate.seed", "synth.seed", "ppo.seed"]),
        st.integers(max_value=-1),
    ),
    st.tuples(st.just("ppo.update_epochs"), st.integers(max_value=0)),
    st.tuples(
        st.sampled_from(["evaluate.heatmap_episodes", "evaluate.trace_episodes"]), st.integers(max_value=-1)
    ),
    # less than one 10 ms grid step
    st.tuples(st.just("synth_duration_s"), st.one_of(st.integers(max_value=0), st.floats(max_value=0.004))),
    st.tuples(st.just("problem.total_units"), st.integers(max_value=0)),
    # half a grid step off with n_decisions 10
    st.tuples(st.just("problem.horizon_s"), st.integers(0, 10**5).map(lambda k: (k + 0.5) / 10)),
    st.sampled_from(
        [
            ("version", 2),
            ("problem.n_decisions", 0),
            ("problem.fee_rate", -1e-4),
            ("problem.fill_model", "auction"),
            ("ppo.clip_ratio", 1.0),
            ("ppo.gae_lambda", 1.5),
            ("signals.window_ms", 5),
            ("signals.horizons_ms", [100, 15]),
            ("signals.bin_horizon_ms", 0),
            ("signals.features", ["nope"]),
            ("train.scope", "dual"),
            ("evaluate.heatmap_signal", "nope"),
            ("synth.n_venues", 0),
            ("synth.signal_strength", 1.5),
        ]
    ),
    # past int64 on an int field, past the largest float on a float field; a list field holds one
    st.sampled_from(
        [
            (name, [value] if kind.startswith("tuple") else value)
            for name, kind in config_fields()
            for value in {"int": [2**63, -(2**63) - 1, 10**30], "float": [10**400, -(10**400)]}.get(
                kind.removeprefix("tuple[").removesuffix(", ...]"), []
            )
        ]
    ),
)


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["train", "evaluate"]), mutation=st.one_of(WRONG_TYPE, OUT_OF_RANGE))
def test_malformed_config_rejected_before_any_input(command, mutation):
    # The capture does not exist, so only a rejection at load can end in
    # ConfigParse; nothing may be created either.
    name, value = mutation
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg_path = write_config(
            root / "cfg.json", paths={"capture": str(root / "missing.ndjson"), "out_dir": str(root / "out")}
        )
        cfg = json.loads(cfg_path.read_text())
        section, _, key = name.partition(".")
        if key:
            cfg.setdefault(section, {})[key] = value
        else:
            cfg[section] = value
        cfg_path.write_text(json.dumps(cfg))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([command, "--config", str(cfg_path)])
        err = stderr.getvalue()
        assert code == 2, err
        assert err.startswith("error: ConfigParse: ") and err.count("\n") == 1, err
        assert name.rpartition(".")[2] in err, err
        assert os.listdir(root) == ["cfg.json"]


def test_readme_config_example_names_every_field():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("### Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    raw = json.loads(example)
    parse_config(raw)
    sections = {name: value for name, value in raw.items() if isinstance(value, dict)}
    named = set(raw) | {f"{name}.{key}" for name, section in sections.items() for key in section}
    assert named == {name for name, _ in config_fields()}


# -- fuzzing the bytes -----------------------------------------------------------

EXIT_CODES = {"ConfigParse": 2, "MissingInput": 3}  # every other kind exits 1


def assert_clean_exit(argv) -> int:
    """Run the CLI in-process: it exits 0, or prints one `error: <Kind>: ` line
    and exits with that kind's code; it never raises.  Returns the exit code."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    err = stderr.getvalue()
    if code != 0:
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert code == EXIT_CODES.get(err.split(":")[1].strip(), 1), err
    return code


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A 6 s synth capture, a config that trains on it with no update, and the
    checkpoint that config's `train` writes."""
    root = tmp_path_factory.mktemp("fuzz")
    capture, ckpt = root / "market.ndjson", root / "ppo_cross.npz"
    cfg = write_config(
        root / "cfg.json",
        paths={"capture": str(capture), "out_dir": str(root / "out"), "checkpoint_cross": str(ckpt)},
        synth_duration_s=6.0,
        problem={"horizon_s": 2.0, "n_decisions": 10},
        train={"updates": 0},
        evaluate={"episodes": 2, "heatmap_episodes": 2},
    )
    assert main(["synth", "gen", "--config", str(cfg), "--out", str(capture)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    return capture.read_bytes(), json.loads(cfg.read_text()), ckpt.read_bytes()


def blank_field(line: bytes, key: str) -> bytes:
    """The record with `key`, at the top level or in the payload, set to ""."""
    obj = json.loads(line)
    owner = obj if key in obj else obj["payload"]
    owner[key] = ""
    return json.dumps(obj, separators=(",", ":")).encode()


def mutate_capture(data: bytes, draw) -> bytes:
    lines = data.split(b"\n")[:-1]
    what = draw(st.sampled_from(["truncate", "flip", "bad utf-8", "swap", "repeat", "blank", "deep"]))
    if what == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if what == "flip":
        out = bytearray(data)
        for pos in draw(st.lists(st.integers(0, len(data) - 1), min_size=1, max_size=4)):
            out[pos] ^= draw(st.integers(1, 255))
        return bytes(out)
    if what == "bad utf-8":
        pos = draw(st.integers(0, len(data)))
        return data[:pos] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80\x80"])) + data[pos:]
    i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
    if what == "deep":
        key = draw(st.sampled_from(["venue", "kind", "local_ts", "payload"]))
        lines[i] = json.dumps({**json.loads(lines[i]), key: "DEEP"}).encode().replace(b'"DEEP"', DEEP.encode())
    elif what == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif what == "repeat":
        lines.insert(j, lines[i])
    else:
        keys = ["venue", "kind", "local_ts", "exch_ts", "payload"] + list(json.loads(lines[i])["payload"])
        lines[i] = blank_field(lines[i], draw(st.sampled_from(keys)))
    return b"\n".join(lines) + b"\n"


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mutated_capture_never_raises(small_run, data):
    capture_bytes, cfg, _ = small_run
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        capture = root / "market.ndjson"
        capture.write_bytes(mutate_capture(capture_bytes, data.draw))
        paths = {"capture": str(capture), "out_dir": str(root / "out")}
        (root / "cfg.json").write_text(json.dumps({**cfg, "paths": paths}))
        assert_clean_exit(["capture", "resample", str(capture), str(root / "frames.csv")])
        assert_clean_exit(["capture", "align", str(capture), str(root / "clock.json")])
        if assert_clean_exit(["train", "--config", str(root / "cfg.json")]) != 0:
            assert not (root / "out" / "frames.npz").exists()  # a failed command caches nothing


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_never_raises(small_run, data):
    _, cfg, ckpt_bytes = small_run
    if data.draw(st.booleans()):
        damaged = ckpt_bytes[: data.draw(st.integers(0, len(ckpt_bytes) - 1))]
    else:
        with zipfile.ZipFile(io.BytesIO(ckpt_bytes)) as archive:
            member = data.draw(st.sampled_from(archive.infolist()))
        npy = ckpt_bytes.index(b"\x93NUMPY", member.header_offset)  # where the member's data starts
        out = bytearray(ckpt_bytes)
        for pos in data.draw(st.lists(st.integers(npy, npy + member.compress_size - 1), min_size=1, max_size=3)):
            out[pos] ^= data.draw(st.integers(1, 255))
        damaged = bytes(out)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ckpt = root / "ppo_cross.npz"
        ckpt.write_bytes(damaged)
        paths = {**cfg["paths"], "checkpoint_cross": str(ckpt), "out_dir": str(root / "out")}
        (root / "cfg.json").write_text(json.dumps({**cfg, "paths": paths}))
        assert_clean_exit(["evaluate", "--config", str(root / "cfg.json")])


# -- frames.npz ------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_venues=st.integers(1, 3),
    trade_intensity=st.sampled_from([0.0, 0.5, 2.0]),
    duration_s=st.sampled_from([0.5, 2.0, 5.0]),
)
def test_cached_frames_equal_the_parse(seed, n_venues, trade_intensity, duration_s):
    synth = SynthConfig(
        seed=seed,
        n_venues=n_venues,
        lag_ms=(0, 200, 300)[:n_venues],
        basis=(0.0, 0.5, -0.5)[:n_venues],
        trade_intensity=trade_intensity,
    )
    with tempfile.TemporaryDirectory() as tmp:
        capture, cached = Path(tmp) / "market.ndjson", Path(tmp) / "frames.npz"
        generate(synth, duration_s, capture)
        frames = resample(read_capture(capture))
        capture_sha256 = hashlib.sha256(capture.read_bytes()).hexdigest()
        assert write_frames_npz(frames, cached, capture_sha256)
        assert frames_bits(read_frames_npz(cached, capture_sha256)) == frames_bits(frames)
        assert sorted(os.listdir(tmp)) == ["frames.npz", "market.ndjson"]


def test_cached_frames_keep_signed_zeros_and_nan_payloads(tmp_path):
    capture, cached = tmp_path / "market.ndjson", tmp_path / "frames.npz"
    flat_market(100.0, 3.0, capture)
    frames = resample(read_capture(capture))
    assert list(frames.venues) == ["v0"]
    vf = frames.venues["v0"]
    levels = {name: getattr(vf, name).copy() for name in ("bid_price", "bid_qty", "ask_price", "ask_qty")}
    levels["bid_price"].view(np.int64)[2, 4] = 0x7FF8000000000123  # a NaN with a payload
    vf = frames.venues["v0"] = venue_frames(
        vf.present, vf.best_bid, vf.best_ask, vf.mid, vf.buy_volume, vf.sell_volume, **levels
    )
    vf.buy_volume[1] = -0.0
    vf.mid[3] = np.nan
    assert write_frames_npz(frames, cached, "0" * 64)
    assert frames_bits(read_frames_npz(cached, "0" * 64)) == frames_bits(frames)
    assert read_frames_npz(cached, "1" * 64) is None


@pytest.mark.parametrize(
    "edit",
    [
        "none", "dtype", "byte order", "shape", "extra member", "missing member", "venues as bytes",
        "book_at dtype", "negative index", "index past the table", "step of 2", "decrease", "book depth",
    ],
)
def test_frames_npz_of_another_layout_is_a_miss(tmp_path, edit):
    # Both digests match, so only the member checks can turn these away.
    capture, cached = tmp_path / "market.ndjson", tmp_path / "frames.npz"
    flat_market(100.0, 3.0, capture)
    assert write_frames_npz(resample(read_capture(capture)), cached, "0" * 64)
    with np.load(cached) as npz:
        members = dict(npz)
    book, book_at = members["v0_book"], members["v0_book_at"]
    assert len(book) == 1 and not book_at.any()  # the flat market's one book
    if edit == "dtype":
        members["v0_present"] = members["v0_present"].astype(np.float64)
    elif edit == "byte order":
        members["grid_ts"] = members["grid_ts"].astype(">i8")
    elif edit == "shape":
        members["v0_book"] = book[:, 0]
    elif edit == "book_at dtype":
        members["v0_book_at"] = book_at.astype(np.int32)
    elif edit == "negative index":
        book_at[1] = -1
    elif edit == "index past the table":
        book_at[-1] = 1
    elif edit == "step of 2":  # to the last row of a table of three
        members["v0_book"] = np.repeat(book, 3, axis=0)
        book_at[-1] = 2
    elif edit == "decrease":  # 0, then 1, then 0 again, ending on the last row of two
        members["v0_book"] = np.repeat(book, 2, axis=0)
        book_at[1], book_at[-1] = 1, 1
    elif edit == "book depth":
        members["v0_book"] = book[:, :, :-1]
    elif edit == "extra member":
        members["v1_present"] = members["v0_present"]
    elif edit == "missing member":
        del members["v0_mid"]
    elif edit == "venues as bytes":
        members["venues"] = members["venues"].astype(np.bytes_)
    np.savez(cached, **members)
    assert (read_frames_npz(cached, "0" * 64) is None) == (edit != "none")


def test_no_command_reads_the_per_frame_levels(tmp_path, monkeypatch):
    # The frames hold each book once per change; a command that read the four
    # per-frame level arrays would gather every frame's book again.
    def refused(vf):
        raise AssertionError("a command read a per-frame level array")

    for name in ("bid_price", "bid_qty", "ask_price", "ask_qty"):
        monkeypatch.setattr(VenueFrames, name, property(refused))
    capture, out = tmp_path / "market.ndjson", tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.json",
        paths={"capture": str(capture), "out_dir": str(out), "checkpoint_cross": str(out / "ppo_cross.npz")},
        synth_duration_s=30.0,
        problem={"horizon_s": 5.0, "n_decisions": 10, "fill_model": "walk", "impact_enabled": True},
        train={"updates": 1},
        evaluate={"episodes": 5, "heatmap_episodes": 2},
    )
    assert main(["synth", "gen", "--config", str(cfg), "--out", str(capture)]) == 0
    assert main(["capture", "resample", str(capture), str(tmp_path / "frames.csv")]) == 0
    for command in (["signals", "report"], ["train"], ["evaluate"]):
        assert main([*command, "--config", str(cfg)]) == 0, command


def test_venue_name_a_str_array_cannot_hold_is_not_cached(tmp_path):
    capture, cached = tmp_path / "market.ndjson", tmp_path / "frames.npz"
    flat_market(100.0, 3.0, capture)
    frames = resample(read_capture(capture))
    frames.venues = {"v0\x00": frames.venues["v0"]}  # numpy drops a str's trailing NULs
    assert not write_frames_npz(frames, cached, "0" * 64)
    assert sorted(os.listdir(tmp_path)) == ["market.ndjson"]


def train_into(root: Path, capture_bytes: bytes, cfg: dict, cached: bytes | None = None) -> tuple:
    """`train` with `cfg` on `capture_bytes` into root/out, which starts out
    holding `cached` as frames.npz: the exit code, every file in root/out but
    the manifest, and the names the manifest lists."""
    out = root / "out"
    out.mkdir()
    (root / "market.ndjson").write_bytes(capture_bytes)
    if cached is not None:
        (out / "frames.npz").write_bytes(cached)
    paths = {"capture": str(root / "market.ndjson"), "out_dir": str(out), "checkpoint_cross": str(out / "ppo_cross.npz")}
    (root / "cfg.json").write_text(json.dumps({**cfg, "paths": paths}))
    code = assert_clean_exit(["train", "--config", str(root / "cfg.json")])
    files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest_train_cross.json"}
    listed = []
    if code == 0:
        manifest = json.loads((out / "manifest_train_cross.json").read_text())
        listed = sorted(Path(p).name for p in manifest["outputs"])
    return code, files, listed


@pytest.fixture(scope="module")
def cold_trains(small_run, tmp_path_factory):
    """For the small run's capture and for that capture less its last line:
    the capture's bytes, what a cold `train` writes, and the frames.npz that
    ingest code with another source would have written."""
    capture_bytes, cfg, _ = small_run
    runs = {}
    for name, data in (("full", capture_bytes), ("cut", capture_bytes[: capture_bytes.rindex(b"\n", 0, -1) + 1])):
        root = tmp_path_factory.mktemp(f"cold_{name}")
        code, files, listed = train_into(root, data, cfg)
        assert code == 0 and "frames.npz" in listed
        frames = read_frames_npz(root / "out" / "frames.npz", hashlib.sha256(data).hexdigest())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(execlab.cli, "ingest_sha256", lambda: "0" * 64)
            stale = root / "stale.npz"
            assert write_frames_npz(frames, stale, hashlib.sha256(data).hexdigest())
        runs[name] = data, (files, listed), stale.read_bytes()
    return runs, cfg


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_damaged_frames_npz_never_raises(cold_trains, data):
    # Whatever frames.npz holds, `train` parses the capture again, writes what
    # a cold run writes and replaces the file; no temporary file is left.
    runs, cfg = cold_trains
    name = data.draw(st.sampled_from(sorted(runs)))
    capture_bytes, want, stale = runs[name]
    good = want[0]["frames.npz"]
    damage = data.draw(st.sampled_from(["truncate", "flip", "other capture", "other ingest code"]))
    if damage == "truncate":
        cached = good[: data.draw(st.integers(0, len(good) - 1))]
    elif damage == "flip":
        with zipfile.ZipFile(io.BytesIO(good)) as archive:
            member = data.draw(st.sampled_from(archive.infolist()))
        npy = good.index(b"\x93NUMPY", member.header_offset)  # where the member's data starts
        out = bytearray(good)
        positions = st.lists(st.integers(npy, npy + member.compress_size - 1), min_size=1, max_size=3, unique=True)
        for pos in data.draw(positions):
            out[pos] ^= data.draw(st.integers(1, 255))
        cached = bytes(out)
    elif damage == "other capture":  # also what a capture edited after caching leaves behind
        cached = runs[next(other for other in runs if other != name)][1][0]["frames.npz"]
    else:
        cached = stale
    with tempfile.TemporaryDirectory() as tmp:
        assert train_into(Path(tmp), capture_bytes, cfg, cached) == (0, *want)


def test_frames_npz_that_is_a_directory(small_run, tmp_path, capsys):
    capture_bytes, cfg, _ = small_run
    out = tmp_path / "out"
    (out / "frames.npz").mkdir(parents=True)
    (tmp_path / "market.ndjson").write_bytes(capture_bytes)
    paths = {"capture": str(tmp_path / "market.ndjson"), "out_dir": str(out)}
    (tmp_path / "cfg.json").write_text(json.dumps({**cfg, "paths": paths}))
    code, err = run_cli(["train", "--config", str(tmp_path / "cfg.json")], capsys)
    assert (code, err) == (1, f"error: UnwritableOutput: cannot create {out / 'frames.npz'}: Is a directory\n")
    # The command's other outputs are written before frames.npz; the manifest, after.
    assert sorted(p.name for p in out.iterdir()) == ["frames.npz", "ppo_cross.npz", "training_log_cross.csv"]
    assert list((out / "frames.npz").iterdir()) == []


# -- capture resample and frames.npz -----------------------------------------------


def resample_into(capture: Path, csv: Path) -> int:
    """`capture resample` of `capture` into `csv`, in-process; its exit code."""
    return assert_clean_exit(["capture", "resample", str(capture), str(csv)])


def count_parses(monkeypatch) -> list:
    """A list that grows by one at each `read_capture` call the CLI makes."""
    calls = []
    real = execlab.cli.read_capture

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(execlab.cli, "read_capture", counted)
    return calls


def test_capture_resample_hit_never_parses_and_writes_the_same_csv(small_run, tmp_path, monkeypatch):
    capture = tmp_path / "market.ndjson"
    capture.write_bytes(small_run[0])
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    cold.mkdir()
    warm.mkdir()
    assert resample_into(capture, cold / "frames.csv") == 0
    assert sorted(os.listdir(cold)) == ["frames.csv", "frames.npz"]
    shutil.copy(cold / "frames.npz", warm)

    def no_parse(*args, **kwargs):
        raise AssertionError("capture resample parsed the capture although frames.npz held its frames")

    monkeypatch.setattr(execlab.cli, "read_capture", no_parse)
    monkeypatch.setattr(execlab.cli, "resample", no_parse)
    assert resample_into(capture, warm / "frames.csv") == 0
    assert (warm / "frames.csv").read_bytes() == (cold / "frames.csv").read_bytes()
    assert (warm / "frames.npz").read_bytes() == (cold / "frames.npz").read_bytes()
    assert sorted(os.listdir(warm)) == ["frames.csv", "frames.npz"]


def test_capture_resample_miss_caches_the_frames_for_signals_report(pipeline, tmp_path, monkeypatch):
    # The frames.npz `capture resample` writes holds the parse's frames bit for
    # bit, and `signals report` into the same directory loads it: it parses
    # nothing, writes the pinned reports and does not list the file.
    _, _, capture = pipeline
    out = tmp_path / "out"
    out.mkdir()
    assert resample_into(capture, out / "frames.csv") == 0
    capture_sha256 = hashlib.sha256(capture.read_bytes()).hexdigest()
    cached = read_frames_npz(out / "frames.npz", capture_sha256)
    assert frames_bits(cached) == frames_bits(resample(read_capture(capture)))

    parses = count_parses(monkeypatch)
    cfg = write_config(tmp_path / "cfg.json", paths={"capture": str(capture), "out_dir": str(out)})
    assert main(["signals", "report", "--config", str(cfg)]) == 0
    assert parses == []
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in REPORT_DIGESTS}
    assert digests == REPORT_DIGESTS
    manifest = json.loads((out / "manifest_signals_report.json").read_text())
    assert str(out / "frames.npz") not in manifest["outputs"]


def test_capture_resample_parses_an_edited_capture_again(small_run, tmp_path, monkeypatch):
    capture_bytes = small_run[0]
    edited_bytes = capture_bytes[: capture_bytes.rindex(b"\n", 0, -1) + 1]  # less the last record
    capture, out, fresh = tmp_path / "market.ndjson", tmp_path / "out", tmp_path / "fresh"
    out.mkdir()
    fresh.mkdir()
    capture.write_bytes(capture_bytes)
    assert resample_into(capture, out / "frames.csv") == 0
    capture.write_bytes(edited_bytes)
    parses = count_parses(monkeypatch)
    assert resample_into(capture, out / "frames.csv") == 0
    assert len(parses) == 1
    old_sha256, new_sha256 = (hashlib.sha256(b).hexdigest() for b in (capture_bytes, edited_bytes))
    assert read_frames_npz(out / "frames.npz", old_sha256) is None
    assert frames_bits(read_frames_npz(out / "frames.npz", new_sha256)) == frames_bits(
        resample(read_capture(capture))
    )
    assert resample_into(capture, fresh / "frames.csv") == 0
    assert (out / "frames.csv").read_bytes() == (fresh / "frames.csv").read_bytes()
    assert sorted(os.listdir(out)) == ["frames.csv", "frames.npz"]


def test_capture_resample_frames_npz_that_is_a_directory(small_run, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "frames.npz").mkdir(parents=True)
    capture = tmp_path / "market.ndjson"
    capture.write_bytes(small_run[0])
    code, err = run_cli(["capture", "resample", str(capture), str(out / "frames.csv")], capsys)
    assert (code, err) == (1, f"error: UnwritableOutput: cannot create {out / 'frames.npz'}: Is a directory\n")
    # The CSV is written before frames.npz and kept.
    assert sorted(p.name for p in out.iterdir()) == ["frames.csv", "frames.npz"]
    assert (out / "frames.csv").read_text().startswith("grid_ts,venue,present")
    assert list((out / "frames.npz").iterdir()) == []


def test_capture_resample_of_a_malformed_capture_writes_nothing(small_run, tmp_path, capsys):
    capture = tmp_path / "market.ndjson"
    capture.write_bytes(small_run[0][:-20])  # chop into the last record
    code, err = run_cli(["capture", "resample", str(capture), str(tmp_path / "frames.csv")], capsys)
    assert code == 1 and err.startswith("error: MalformedLine: ")
    assert os.listdir(tmp_path) == ["market.ndjson"]


def test_capture_resample_into_a_fifo_caches_nothing(small_run, tmp_path):
    # Like /dev/stdout, a FIFO has no output directory: the CSV streams
    # through it and no frames.npz appears beside it.
    capture = tmp_path / "market.ndjson"
    capture.write_bytes(small_run[0])
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code = resample_into(capture, fifo)
    reader.join(timeout=30)
    assert code == 0
    assert received[0].startswith(b"grid_ts,venue,present")
    assert sorted(os.listdir(tmp_path)) == ["fifo", "market.ndjson"]


def forbid_frames_npz(monkeypatch) -> None:
    """Make any frames.npz lookup or write by the CLI fail the test."""

    def no_cache(*args, **kwargs):
        raise AssertionError("capture resample used a frames.npz where it has no output directory")

    monkeypatch.setattr(execlab.cli, "read_frames_npz", no_cache)
    monkeypatch.setattr(execlab.cli, "write_frames_npz", no_cache)


@pytest.mark.skipif(not os.path.islink("/dev/stdout"), reason="needs /dev/stdout as a link to fd 1")
def test_capture_resample_into_dev_stdout_redirected_to_a_file_caches_nothing(small_run, tmp_path, monkeypatch):
    # `capture resample cap.ndjson /dev/stdout > frames.csv`: /dev/stdout links
    # to the regular file the shell opened, but /dev is no output directory,
    # so frames.npz is neither looked up nor written there.
    capture = tmp_path / "market.ndjson"
    capture.write_bytes(small_run[0])
    assert resample_into(capture, tmp_path / "frames.csv") == 0
    forbid_frames_npz(monkeypatch)
    redirected = tmp_path / "redirected.csv"
    saved = os.dup(1)
    try:
        with open(redirected, "wb") as fh:
            os.dup2(fh.fileno(), 1)
            code = resample_into(capture, Path("/dev/stdout"))
    finally:
        os.dup2(saved, 1)
        os.close(saved)
    assert code == 0
    assert redirected.read_bytes() == (tmp_path / "frames.csv").read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
@pytest.mark.parametrize("command", ["capture resample", "capture align", "synth gen"])
def test_output_to_dev_stdout_redirected_to_a_file_holds_the_output_alone(small_run, tmp_path, command):
    # `execlab capture resample cap.ndjson /dev/stdout > frames.csv` in a shell:
    # the status line goes to stderr, not over the start of the file written.
    capture_bytes, cfg, _ = small_run
    capture, config = tmp_path / "market.ndjson", tmp_path / "cfg.json"
    capture.write_bytes(capture_bytes)
    config.write_text(json.dumps(cfg))

    def argv(out: str) -> list[str]:
        if command == "synth gen":
            return ["synth", "gen", "--config", str(config), "--out", out]
        return [*command.split(), str(capture), out]

    assert assert_clean_exit(argv(str(tmp_path / "plain"))) == 0
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    with open(tmp_path / "redirected", "wb") as stdout:
        proc = subprocess.run(
            [sys.executable, "-m", "execlab", *argv("/dev/stdout")],
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith("wrote ") and proc.stderr.endswith(" to /dev/stdout\n")
    assert (tmp_path / "redirected").read_bytes() == (tmp_path / "plain").read_bytes()


def test_capture_resample_through_a_symlink_caches_nothing(small_run, tmp_path, monkeypatch):
    capture = tmp_path / "market.ndjson"
    capture.write_bytes(small_run[0])
    assert resample_into(capture, tmp_path / "frames.csv") == 0
    forbid_frames_npz(monkeypatch)
    out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
    out.mkdir()
    elsewhere.mkdir()
    (out / "frames.csv").symlink_to(elsewhere / "real.csv")
    assert resample_into(capture, out / "frames.csv") == 0
    assert (elsewhere / "real.csv").read_bytes() == (tmp_path / "frames.csv").read_bytes()
    assert os.listdir(out) == ["frames.csv"] and os.listdir(elsewhere) == ["real.csv"]


def test_capture_resample_into_a_csv_named_frames_npz_keeps_the_csv(small_run, tmp_path):
    # The cache would replace the CSV on a cold run only; it is never written.
    capture = tmp_path / "market.ndjson"
    capture.write_bytes(small_run[0])
    assert resample_into(capture, tmp_path / "frames.csv") == 0
    out = tmp_path / "out"
    out.mkdir()
    for _ in range(2):
        assert resample_into(capture, out / "frames.npz") == 0
        assert (out / "frames.npz").read_bytes() == (tmp_path / "frames.csv").read_bytes()
        assert os.listdir(out) == ["frames.npz"]


def test_pipeline_reads_the_capture_once(small_run, tmp_path, monkeypatch):
    # The benchmark's five pipeline commands, in its order, into one output
    # directory: only the first reads the capture; the rest load frames.npz.
    capture_bytes, cfg, _ = small_run
    out = tmp_path / "out"
    out.mkdir()
    capture = tmp_path / "market.ndjson"
    capture.write_bytes(capture_bytes)
    paths = {
        "capture": str(capture),
        "out_dir": str(out),
        "checkpoint_single": str(out / "ppo_single.npz"),
        "checkpoint_cross": str(out / "ppo_cross.npz"),
    }
    configs = {}
    for scope in ("cross", "single"):
        configs[scope] = tmp_path / f"cfg_{scope}.json"
        configs[scope].write_text(json.dumps({**cfg, "paths": paths, "train": {**cfg["train"], "scope": scope}}))
    commands = {
        "capture_resample": ["capture", "resample", str(capture), str(out / "frames.csv")],
        "signals_report": ["signals", "report", "--config", str(configs["cross"])],
        "train_cross": ["train", "--config", str(configs["cross"])],
        "train_single": ["train", "--config", str(configs["single"])],
        "evaluate": ["evaluate", "--config", str(configs["cross"])],
    }
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert sorted(workloads.PIPELINE_COMMANDS) == sorted(commands)
    parses = count_parses(monkeypatch)
    for name in workloads.PIPELINE_COMMANDS:
        assert assert_clean_exit(commands[name]) == 0, name
    assert len(parses) == 1
    assert (out / "comparison.json").is_file()


def test_cli_signals_report_on_a_placebo_market(tmp_path):
    # With no signal, no lag and no level noise every venue quotes alike, so
    # the peer spread is constant: its fits are degenerate, not an error.
    out = tmp_path / "out"
    capture = tmp_path / "market.ndjson"
    cfg = write_config(
        tmp_path / "cfg.json",
        paths={"capture": str(capture), "out_dir": str(out)},
        synth={"signal_strength": 0.0, "lag_ms": [0, 0, 0], "level_noise": 0.0},
        synth_duration_s=10.0,
    )
    assert main(["synth", "gen", "--config", str(cfg), "--out", str(capture)]) == 0
    assert main(["signals", "report", "--config", str(cfg)]) == 0
    placebo = json.loads((out / "report_peer_spread_centered.json").read_text())
    assert [h["horizon_ms"] for h in placebo["horizons"]] == [100, 500]
    for fit in placebo["horizons"]:
        assert (fit["alpha"], fit["beta"], fit["r2"], fit["degenerate"]) == (None, None, None, True)
        assert fit["n"] > 0
    rows = [line.split(",") for line in (out / "horizon_r2.csv").read_text().splitlines()[1:]]
    assert [row[:2] for row in rows if row[2:5] == ["", "", ""]] == [
        ["peer_spread_centered", "100"], ["peer_spread_centered", "500"]
    ]
    for report in out.glob("report_*.json"):
        if report.name != "report_peer_spread_centered.json":
            for fit in json.loads(report.read_text())["horizons"]:
                assert set(fit) == {"horizon_ms", "alpha", "beta", "r2", "n"}, report.name


def test_cli_heatmap_of_a_signal_nan_on_every_frame(tmp_path):
    # One venue has no peer, so its peer spread is NaN on every frame: every
    # visit falls in "unchanged", and numpy warns of nothing.
    out = tmp_path / "out"
    capture = tmp_path / "market.ndjson"
    cfg = write_config(
        tmp_path / "cfg.json",
        paths={"capture": str(capture), "out_dir": str(out), "checkpoint_cross": str(tmp_path / "cross.npz")},
        synth={"n_venues": 1, "lag_ms": [0], "basis": [0.0]},
        synth_duration_s=20.0,
        problem={"horizon_s": 5.0, "n_decisions": 5},
        signals={"target_venue": "v0"},
        train={"updates": 1},
        evaluate={"heatmap_signal": "peer_spread_centered_bps", "heatmap_episodes": 40},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["synth", "gen", "--config", str(cfg), "--out", str(capture)]) == 0
        assert main(["train", "--config", str(cfg)]) == 0
        assert main(["evaluate", "--config", str(cfg)]) == 0
    rows = [line.split(",") for line in (out / "action_heatmap.csv").read_text().splitlines()[1:]]
    filled = {bucket for _, _, bucket, cell in rows if cell}
    assert filled == {"unchanged"}


def test_cli_runs_with_a_peer_that_goes_silent(tmp_path):
    # v0 sends nothing after 10 s of a 30 s capture.  resample carries its
    # last book forward, so it stays present with a stale mid, and every
    # command runs as on a live peer.  What staleness should mean (absent
    # after some age, or counted) is still open.
    full = tmp_path / "full.ndjson"
    capture = tmp_path / "market.ndjson"
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.json",
        paths={"capture": str(capture), "out_dir": str(out), "checkpoint_cross": str(tmp_path / "cross.npz")},
        synth_duration_s=30.0,
        train={"updates": 1},
    )
    assert main(["synth", "gen", "--config", str(cfg), "--out", str(full)]) == 0
    silent_from = 10 * 10**9
    write_capture(
        (rec for rec in read_capture(full) if rec.venue != "v0" or rec.local_ts < silent_from), capture
    )
    frames = resample(read_capture(capture))
    later = frames.grid_ts > silent_from
    v0 = frames.venues["v0"]
    assert later.sum() > 1000 and v0.present[later].all()
    assert len(np.unique(v0.mid[later])) == 1
    for command in (["signals", "report"], ["train"], ["evaluate"]):
        assert main(command + ["--config", str(cfg)]) == 0, command
    assert (out / "comparison.json").is_file()

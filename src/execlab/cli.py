"""Command-line driver for the full pipeline.

    execlab capture align <in> <out>        clock maps per venue (JSON)
    execlab capture resample <in> <out>     NDJSON capture -> frames CSV
    execlab synth gen --config <f> --out <f>
    execlab signals report --config <f> [--out-dir <d>]
    execlab train --config <f> [--out-dir <d>] [--seed <n>]
    execlab evaluate --config <f> [--out-dir <d>] [--seed <n>]

Every run writes a manifest (config and capture digests, seeds, outputs) into the output
directory; identical configs reproduce outputs byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .capture import align_clock, read_capture, resample, write_frames_csv
from .config import ExperimentConfig, file_sha256, load_config
from .env import ProblemSpec, policy_dims
from .errors import CheckpointError, ConfigError, ExecLabError, MissingInput
from .evalkit import (
    Arm,
    SampledPolicy,
    TwapPolicy,
    action_heatmap,
    compare,
    write_heatmap_csv,
    write_histogram_csv,
    write_report_json,
    write_trace_csv,
)
from .ppo.agent import load_checkpoint, save_checkpoint
from .ppo.trainer import train_policy
from .signals import REPORT_SERIES, feature_bundle, feature_series, horizon_report
from .signals import (  # noqa: F401  perfbench/tracing.py patches these names; no caller here
    cross_sum, depth_imbalance, flow_imbalance, flow_imbalance_norm, peer_spread, peer_spread_centered,
)
from .synth import generate


def _require_file(path: str | None, what: str) -> Path:
    if not path:
        raise MissingInput(f"{what} path not configured")
    p = Path(path)
    if not p.exists():
        raise MissingInput(f"{what} not found: {p}")
    return p


def _load_frames(capture_path: Path):
    return resample(read_capture(capture_path))


def _check_target_venue(frames, cfg: ExperimentConfig) -> None:
    target = cfg.signals.target_venue
    if target not in frames.venues:
        raise ConfigError(
            f"signals.target_venue {target!r} is not a venue of the capture "
            f"(venues: {', '.join(frames.venue_names)})",
            field="signals.target_venue",
        )


def _write_manifest(
    out_dir: Path, command: str, config_path: Path, capture_path: Path, seeds: dict, outputs: list[Path]
) -> None:
    manifest = {
        "command": command,
        "package_version": __version__,
        "config_sha256": file_sha256(config_path),
        "capture_sha256": file_sha256(capture_path),
        "seeds": seeds,
        "outputs": sorted(str(p) for p in outputs),
    }
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_capture_align(args) -> int:
    src = _require_file(args.input, "capture")
    by_venue: dict[str, list] = {}
    for rec in read_capture(src):
        by_venue.setdefault(rec.venue, []).append(rec)
    out = {"venues": {}}
    for venue in sorted(by_venue):
        cmap = align_clock(by_venue[venue])
        out["venues"][venue] = {
            "knots": [
                [int(loc), int(exch)]
                for loc, exch in zip(cmap.local_knots, cmap.exch_knots)
            ],
            "rejected_knots": cmap.rejected_knots,
        }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote clock maps for {len(out['venues'])} venue(s) to {args.output}")
    return 0


def cmd_capture_resample(args) -> int:
    src = _require_file(args.input, "capture")
    frames = _load_frames(src)
    write_frames_csv(frames, args.output)
    print(f"wrote {frames.n_frames} grid points x {len(frames.venues)} venue(s) to {args.output}")
    return 0


def cmd_synth_gen(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        synth_cfg = type(cfg.synth)(**{**asdict(cfg.synth), "seed": args.seed})
    else:
        synth_cfg = cfg.synth
    n = generate(synth_cfg, cfg.synth_duration_s, args.out)
    print(f"wrote {n} records ({cfg.synth_duration_s}s, {synth_cfg.n_venues} venues) to {args.out}")
    return 0


def _resolve_out_dir(cfg: ExperimentConfig, args) -> Path:
    out_dir = Path(args.out_dir) if args.out_dir else Path(cfg.paths.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def cmd_signals_report(args) -> int:
    cfg = load_config(args.config)
    out_dir = _resolve_out_dir(cfg, args)
    capture_path = _require_file(cfg.paths.capture, "capture")
    frames = _load_frames(capture_path)
    _check_target_venue(frames, cfg)
    target = cfg.signals.target_venue
    by_name = feature_series(frames, target, cfg.signals.window_ms)
    # With a single venue there is no peer, so no peer spread to fit.
    series = [
        by_name[name]
        for entry in cfg.signals.features
        for name in REPORT_SERIES[entry]
        if name != "peer_spread_centered" or len(frames.venue_names) > 1
    ]

    outputs = []
    horizon_lines = ["feature,horizon_ms,alpha,beta,r2,n"]
    bin_lines = ["feature,bin_center,mean_return_bps,count"]
    for feat in series:
        report = horizon_report(
            feat,
            frames,
            target,
            horizons_ms=cfg.signals.horizons_ms,
            bin_horizon_ms=cfg.signals.bin_horizon_ms,
        )
        path = out_dir / f"report_{feat.name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        outputs.append(path)
        for h, fit in zip(report.horizons_ms, report.fits):
            horizon_lines.append(
                f"{feat.name},{h},{fit.alpha:.9g},{fit.beta:.9g},{fit.r2:.9g},{fit.n}"
            )
        for c, m, k in zip(report.bin_centers, report.bin_mean_bps, report.bin_counts):
            cell = "" if not np.isfinite(m) else format(m, ".9g")
            bin_lines.append(f"{feat.name},{c:.9g},{cell},{k}")
    horizons_path = out_dir / "horizon_r2.csv"
    horizons_path.write_text("\n".join(horizon_lines) + "\n", encoding="utf-8")
    bins_path = out_dir / "bin_curves.csv"
    bins_path.write_text("\n".join(bin_lines) + "\n", encoding="utf-8")
    outputs += [horizons_path, bins_path]
    _write_manifest(out_dir, "signals report", Path(args.config), capture_path, {"seed": cfg.seed}, outputs)
    print(f"wrote {len(series)} feature reports to {out_dir}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    out_dir = _resolve_out_dir(cfg, args)
    capture_path = _require_file(cfg.paths.capture, "capture")
    frames = _load_frames(capture_path)
    _check_target_venue(frames, cfg)
    scope = cfg.train.scope
    seed = args.seed if args.seed is not None else cfg.train.seed
    features = feature_bundle(frames, cfg.signals.target_venue, scope, cfg.signals.window_ms)
    params, log = train_policy(
        frames,
        cfg.problem,
        features,
        cfg.signals.target_venue,
        cfg.ppo,
        n_updates=cfg.train.updates,
        seed=seed,
    )
    ckpt_path = Path(
        getattr(cfg.paths, f"checkpoint_{scope}") or out_dir / f"ppo_{scope}.npz"
    )
    ckpt_path.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(
        ckpt_path,
        params,
        cfg.ppo,
        meta={"scope": scope, "target_venue": cfg.signals.target_venue, "seed": seed},
    )
    log_path = out_dir / f"training_log_{scope}.csv"
    log_path.write_text("\n".join(log.csv_lines()) + "\n", encoding="utf-8")
    _write_manifest(
        out_dir, "train", Path(args.config), capture_path, {"train_seed": seed}, [ckpt_path, log_path]
    )
    final = log.rows[-1] if log.rows else {}
    print(
        f"trained {scope} policy for {cfg.train.updates} updates "
        f"(last mean episode reward {final.get('mean_episode_reward_bps', float('nan')):.3f} bps); "
        f"checkpoint at {ckpt_path}"
    )
    return 0


def _load_arm(path_value, frames, cfg, scope) -> Arm | None:
    if not path_value:
        return None
    field = f"paths.checkpoint_{scope}"
    try:
        params, _, meta = load_checkpoint(_require_file(path_value, f"checkpoint_{scope}"))
    except CheckpointError as exc:
        raise ConfigError(f"{field}: {exc}", field=field) from exc
    target = cfg.signals.target_venue
    # Checkpoints saved without meta carry no target venue and are accepted.
    if meta.get("target_venue", target) != target:
        raise ConfigError(
            f"{field}: checkpoint was trained for target venue {meta['target_venue']!r}, "
            f"signals.target_venue is {target!r}",
            field=field,
        )
    features = feature_bundle(frames, target, scope, cfg.signals.window_ms)
    want = policy_dims(cfg.problem, features)
    if (params.n_inputs, params.n_actions) != want:
        raise ConfigError(
            f"{field}: checkpoint has n_inputs={params.n_inputs}, "
            f"n_actions={params.n_actions}; the {scope} arm needs n_inputs={want[0]}, "
            f"n_actions={want[1]}",
            field=field,
        )
    return Arm(policy=SampledPolicy(params, seed=cfg.evaluate.seed), features=features)


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.evaluate.seed = args.seed
    out_dir = _resolve_out_dir(cfg, args)
    capture_path = _require_file(cfg.paths.capture, "capture")
    frames = _load_frames(capture_path)
    _check_target_venue(frames, cfg)
    spec: ProblemSpec = cfg.problem
    target = cfg.signals.target_venue

    arms: dict[str, Arm] = {"TWAP": Arm(policy=TwapPolicy(spec))}
    single = _load_arm(cfg.paths.checkpoint_single, frames, cfg, "single")
    if single:
        arms["PPO_single"] = single
    cross = _load_arm(cfg.paths.checkpoint_cross, frames, cfg, "cross")
    if cross:
        arms["PPO_cross"] = cross

    report = compare(
        arms,
        frames,
        spec,
        target,
        n_episodes=cfg.evaluate.episodes,
        seed=cfg.evaluate.seed,
        keep_traces=cfg.evaluate.trace_episodes > 0,
        config_echo={"target_venue": target, "episodes": cfg.evaluate.episodes},
    )
    outputs = []
    report_path = out_dir / "comparison.json"
    write_report_json(report, report_path)
    hist_path = out_dir / "histogram.csv"
    write_histogram_csv(report, hist_path)
    outputs += [report_path, hist_path]

    if "PPO_cross" in arms and cfg.evaluate.heatmap_episodes > 0:
        grid = action_heatmap(
            arms["PPO_cross"].policy,
            frames,
            spec,
            arms["PPO_cross"].features,
            target,
            signal_name=cfg.evaluate.heatmap_signal,
            n_episodes=cfg.evaluate.heatmap_episodes,
            seed=cfg.evaluate.seed,
        )
        heatmap_path = out_dir / "action_heatmap.csv"
        write_heatmap_csv(grid, heatmap_path)
        outputs.append(heatmap_path)

    for name, result in report.results.items():
        for i in range(min(cfg.evaluate.trace_episodes, len(result.traces))):
            trace_path = out_dir / f"trace_{name}_{i}.csv"
            write_trace_csv(result.traces[i], frames.grid_ts, trace_path)
            outputs.append(trace_path)

    _write_manifest(
        out_dir, "evaluate", Path(args.config), capture_path, {"eval_seed": cfg.evaluate.seed}, outputs
    )
    for row in report.table():
        print(
            f"{row['policy']}: IS_mean {row['IS_mean_bps']:.3f} bps, "
            f"IS_std {row['IS_std_bps']:.3f} bps, gain {row['Gain_bps']:.3f} bps"
        )
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="execlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_capture = sub.add_parser("capture", help="clock alignment and resampling")
    cap_sub = p_capture.add_subparsers(dest="capture_command", required=True)
    p_align = cap_sub.add_parser("align", help="build per-venue clock maps")
    p_align.add_argument("input")
    p_align.add_argument("output")
    p_align.set_defaults(func=cmd_capture_align)
    p_resample = cap_sub.add_parser("resample", help="capture NDJSON to frames CSV")
    p_resample.add_argument("input")
    p_resample.add_argument("output")
    p_resample.set_defaults(func=cmd_capture_resample)

    p_synth = sub.add_parser("synth", help="synthetic market generation")
    synth_sub = p_synth.add_subparsers(dest="synth_command", required=True)
    p_gen = synth_sub.add_parser("gen", help="generate a capture file")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.set_defaults(func=cmd_synth_gen)

    p_signals = sub.add_parser("signals", help="feature predictiveness reports")
    sig_sub = p_signals.add_subparsers(dest="signals_command", required=True)
    p_report = sig_sub.add_parser("report", help="r2 by horizon and bin curves")
    p_report.add_argument("--config", required=True)
    p_report.add_argument("--out-dir", default=None)
    p_report.set_defaults(func=cmd_signals_report)

    p_train = sub.add_parser("train", help="train the PPO execution agent")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out-dir", default=None)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="paired policy comparison")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--out-dir", default=None)
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: ConfigParse: {exc}", file=sys.stderr)
        return 2
    except MissingInput as exc:
        print(f"error: MissingInput: {exc}", file=sys.stderr)
        return 3
    except ExecLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

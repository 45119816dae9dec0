"""Command-line driver for the full pipeline.

    execlab capture align <in> <out>        clock maps per venue (JSON)
    execlab capture resample <in> <out>     NDJSON capture -> frames CSV
    execlab synth gen --config <f> --out <f>
    execlab signals report --config <f> [--out-dir <d>]
    execlab train --config <f> [--out-dir <d>] [--seed <n>]
    execlab evaluate --config <f> [--out-dir <d>] [--seed <n>]

`signals report`, `train` and `evaluate` each write their own manifest (config and
capture digests, seeds, outputs) into the output directory: manifest_signals_report.json,
manifest_train_<scope>.json, manifest_evaluate.json.  Identical configs reproduce
outputs byte for byte.  The first of them to read a capture into a directory also
writes the capture's frames there as frames.npz, which the later ones load instead of
parsing again as long as the capture bytes and the ingest code are unchanged; deleting
it is always safe.  `capture resample` counts its CSV's directory as its output
directory and loads and writes frames.npz there too, but only when the CSV path
names a plain file, or nothing yet, and is not itself frames.npz: a link such as
/dev/stdout, a device or a FIFO has no output directory.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import json
import os
import stat
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .blas import one_blas_thread
from .capture import (
    BOOK_DEPTH, ClockMap, FrameSet, VenueFrames, align_clocks, read_capture, resample, write_frames_csv,
)
from .capture.resample import is_book_index
from .errors import CheckpointError, ConfigError, ExecLabError, InvalidConfig, MissingInput, UnwritableOutput, open_output

# The names only some commands use, by the module of the package that defines
# them.  A command binds its modules' names when main dispatches it (see
# _bind), so a process imports only what its command runs: `capture` needs
# no config, and `synth gen` neither the environment nor the agent.
_LAZY = {
    "align_clock": "capture",  # perfbench/tracing.py patches this name; align_clocks calls it
    "SCOPES": "config",
    "check_seed": "config",
    "load_config": "config",
    "generate": "synth",
    "REPORT_SERIES": "signals",
    "feature_bundle": "signals",
    "feature_series": "signals",
    "horizon_report": "signals",
    # perfbench/tracing.py patches these names; no caller here
    "cross_sum": "signals",
    "depth_imbalance": "signals",
    "flow_imbalance": "signals",
    "flow_imbalance_norm": "signals",
    "peer_spread": "signals",
    "peer_spread_centered": "signals",
    "policy_dims": "env",
    "Arm": "evalkit",
    "SampledPolicy": "evalkit",
    "TwapPolicy": "evalkit",
    "action_heatmap": "evalkit",
    "compare": "evalkit",
    "trace_csv_lines": "evalkit",
    "write_report_json": "evalkit",
    "load_checkpoint": "ppo.agent",
    "save_checkpoint": "ppo.agent",
    "train_policy": "ppo.trainer",
}


def _bind(modules) -> None:
    """Bind each name of _LAZY that one of `modules` defines, unless it is
    bound already: a name a caller has replaced here stays replaced."""
    for name, module in _LAZY.items():
        if module in modules and name not in globals():
            globals()[name] = getattr(importlib.import_module(f"{__package__}.{module}"), name)


def __getattr__(name: str):
    """A name of _LAZY looked up from outside.  The lookup binds every one of
    them, as importing this module did when it imported all of the package,
    so that a caller who replaces a name in its defining module afterwards
    (perfbench/tracing.py does) still finds the original here, as the
    commands call it."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(set(_LAZY.values()))
    return globals()[name]


def file_sha256(path: str | Path) -> str:
    """SHA-256 of a file's bytes, read in blocks so a large capture is never held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _require_file(path: str | None, what: str) -> Path:
    if not path:
        raise MissingInput(f"{what} path not configured")
    p = Path(path)
    if not p.is_file():
        raise MissingInput(f"{what} {'is not a regular file' if p.exists() else 'not found'}: {p}")
    return p


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UnwritableOutput(f"cannot create directory {path}: {exc.strerror or exc}") from exc


def _write_json(path: str | Path, obj) -> None:
    with open_output(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_lines(path: str | Path, lines: list[str]) -> None:
    with open_output(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _print_status(output: str | Path, line: str) -> None:
    """Print the status line of a command that wrote `output`: to stderr when
    `output` is stdout's own file, as /dev/stdout is, so that the line never
    lands in what the command wrote (with stdout redirected to a file, a
    second open of it writes from offset 0 and the line would overwrite the
    start)."""
    try:
        onto_output = os.path.samestat(os.stat(output), os.fstat(1))
    except OSError:
        onto_output = False
    print(line, file=sys.stderr if onto_output else sys.stdout)


# -- frames.npz: the capture's frames, kept for the commands after the first

FRAMES_NPZ = "frames.npz"


@functools.cache
def ingest_sha256() -> str:
    """SHA-256 over the source of the modules that turn capture bytes into
    frames, so that frames another version of them made are never reused."""
    digest = hashlib.sha256()
    for module in ("records", "book", "resample"):
        source = Path(sys.modules[f"{__package__}.capture.{module}"].__file__).read_bytes()
        digest.update(hashlib.sha256(source).digest())
    return digest.hexdigest()


def write_frames_npz(frames: FrameSet, path: Path, capture_sha256: str) -> bool:
    """Store `frames` at `path` as an uncompressed .npz with no pickled member,
    keyed by `capture_sha256` and `ingest_sha256()`.

    Members: grid_ts, venues (in FrameSet order), v<i>_<field> per venue (by
    position, as a name may hold any character) and VenueFrames field, and
    the two digests.  The file is written under a per-process name and renamed
    onto `path`, so no reader sees a partial file; a failure is
    UnwritableOutput and leaves nothing behind.  Returns False, with nothing
    written, when a venue name does not survive a numpy str array (which drops
    trailing NULs).
    """
    names = list(frames.venues)
    venues = np.array(names, dtype=np.str_)
    if venues.tolist() != names:
        return False
    arrays = {"grid_ts": frames.grid_ts, "venues": venues}
    for i, vf in enumerate(frames.venues.values()):
        arrays.update({f"v{i}_{f.name}": getattr(vf, f.name) for f in fields(VenueFrames)})
    arrays.update(capture_sha256=np.array(capture_sha256), ingest_sha256=np.array(ingest_sha256()))
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open_output(tmp, "wb") as fh:
        np.savez(fh, **arrays)
    try:
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise UnwritableOutput(f"cannot create {path}: {exc.strerror or exc}") from exc
    return True


def _is_text(arr: np.ndarray, value: str) -> bool:
    return arr.dtype.kind == "U" and arr.shape == () and arr.item() == value


def read_frames_npz(path: Path, capture_sha256: str) -> FrameSet | None:
    """The frames `write_frames_npz` stored at `path` for these capture bytes
    and this ingest code, or None: for a missing, damaged or stale file, a
    directory, any member with an unexpected name, dtype or shape, or a
    book_at that is not an index into its book (see `is_book_index`)."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            if not (
                _is_text(npz["capture_sha256"], capture_sha256)
                and _is_text(npz["ingest_sha256"], ingest_sha256())
            ):
                return None
            venues, grid_ts = npz["venues"], npz["grid_ts"]
            if venues.dtype.kind != "U" or venues.ndim != 1 or grid_ts.dtype != np.int64 or grid_ts.ndim != 1:
                return None
            columns = [f.name for f in fields(VenueFrames)]
            members = [f"v{i}_{name}" for i in range(len(venues)) for name in columns]
            if set(npz.files) != {"grid_ts", "venues", "capture_sha256", "ingest_sha256", *members}:
                return None
            n = len(grid_ts)
            by_venue = {}
            for i, venue in enumerate(venues.tolist()):
                cols = {}
                for name in columns:
                    arr = npz[f"v{i}_{name}"]
                    dtype = {"present": np.bool_, "book_at": np.int64}.get(name, np.float64)
                    shape = (*arr.shape[:1], 4, BOOK_DEPTH) if name == "book" else (n,)
                    if arr.dtype != dtype or arr.shape != shape:
                        return None
                    cols[name] = arr
                if not is_book_index(cols["book_at"], len(cols["book"])):
                    return None
                by_venue[venue] = VenueFrames(**cols)
    except Exception:  # a damaged file fails in any of zipfile's and numpy's ways; each is a miss
        return None
    return FrameSet(grid_ts=grid_ts, venues=by_venue)


def load_frames(capture_path: Path, out_dir: Path | None) -> tuple[FrameSet, str | None, bool]:
    """The capture's frames, its SHA-256, and whether the capture was parsed:
    the frames come from `out_dir`'s frames.npz when it holds this capture's
    frames, and from parsing the capture otherwise.  With no `out_dir` the
    capture is parsed and not hashed (its SHA-256 is None).  Writing the file
    after a parse is the caller's, once its own outputs are written."""
    capture_sha256 = None
    if out_dir is not None:
        capture_sha256 = file_sha256(capture_path)
        frames = read_frames_npz(out_dir / FRAMES_NPZ, capture_sha256)
        if frames is not None:
            return frames, capture_sha256, False
    frames = resample(read_capture(capture_path))
    return frames, capture_sha256, True


class Run:
    """What `signals report`, `train` and `evaluate` share: the checked config,
    the output directory, the capture's frames and the files the command writes.

    The frames come from the output directory's frames.npz when it holds this
    capture's frames, and from parsing the capture otherwise.  The output
    directory is created only once the config is valid and the frames hold the
    target venue; `finish` writes the frames a parse made, then the command's
    own manifest listing every path `output` handed out.
    """

    def __init__(self, args):
        self.config_path = Path(args.config)
        self.cfg = load_config(self.config_path)
        if getattr(args, "seed", None) is not None:  # train's and evaluate's --seed
            check_seed("--seed", args.seed)
            self.cfg.train.seed = self.cfg.evaluate.seed = args.seed
        self.capture_path = _require_file(self.cfg.paths.capture, "capture")
        self.out_dir = Path(args.out_dir or self.cfg.paths.out_dir)
        self.frames, self.capture_sha256, self.parsed = load_frames(self.capture_path, self.out_dir)
        target = self.cfg.signals.target_venue
        if target not in self.frames.venues:
            raise ConfigError(
                f"signals.target_venue {target!r} is not a venue of the capture "
                f"(venues: {', '.join(self.frames.venue_names)})",
                field="signals.target_venue",
            )
        _make_dir(self.out_dir)
        self.outputs: list[Path] = []

    def output(self, path: str | Path) -> Path:
        """`path` (relative to the output directory), recorded for the manifest."""
        path = self.out_dir / path
        self.outputs.append(path)
        return path

    def finish(self, name: str, **entries) -> None:
        """Write frames.npz if this command parsed the capture, then
        manifest_<name>.json: the package version, config and capture digests,
        the outputs, and the command's own `entries`."""
        frames_path = self.out_dir / FRAMES_NPZ
        if self.parsed and write_frames_npz(self.frames, frames_path, self.capture_sha256):
            self.outputs.append(frames_path)
        manifest = {
            "package_version": __version__,
            "config_sha256": file_sha256(self.config_path),
            "capture_sha256": self.capture_sha256,
            "outputs": sorted(str(p) for p in self.outputs),
            **entries,
        }
        _write_json(self.out_dir / f"manifest_{name}.json", manifest)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_capture_align(args) -> int:
    src = _require_file(args.input, "capture")
    cmaps = align_clocks(read_capture(src))
    _write_clock_maps(args.output, cmaps)
    _print_status(args.output, f"wrote clock maps for {len(cmaps)} venue(s) to {args.output}")
    return 0


def _write_clock_maps(path: str | Path, cmaps: dict[str, ClockMap]) -> None:
    """Write what _write_json writes for {"venues": {venue: {"knots": [[local,
    exch], ...], "rejected_knots": n}}}, in venue order, a knot at a time:
    there is no list per knot, and no text of all of them."""
    with open_output(path) as fh:
        fh.write('{\n  "venues": {')
        for i, venue in enumerate(sorted(cmaps)):
            cmap = cmaps[venue]
            fh.write(f'{"," if i else ""}\n    {json.dumps(venue)}: {{\n      "knots": [')
            knots = zip(cmap.local_knots, cmap.exch_knots)
            fh.writelines(
                f'{"," if j else ""}\n        [\n          {local},\n          {exch}\n        ]'
                for j, (local, exch) in enumerate(knots)
            )
            fh.write(f'\n      ],\n      "rejected_knots": {cmap.rejected_knots}\n    }}')
        fh.write("\n  }\n}\n" if cmaps else "}\n}\n")


def _csv_out_dir(csv: Path) -> Path | None:
    """The output directory of a frames CSV written to `csv`: its parent when
    `csv` is a plain file or nothing yet (opening it then makes a plain file),
    else None.  The link is not followed: /dev/stdout links to whatever the
    shell redirected it to, often a regular file, but /dev is no output
    directory.  A CSV named frames.npz has none either, as the cache would
    replace it."""
    if csv.name == FRAMES_NPZ:
        return None
    try:
        mode = os.lstat(csv).st_mode
    except FileNotFoundError:
        return csv.parent
    except OSError:
        return None
    return csv.parent if stat.S_ISREG(mode) else None


def cmd_capture_resample(args) -> int:
    src = _require_file(args.input, "capture")
    out = Path(args.output)
    out_dir = _csv_out_dir(out)
    frames, capture_sha256, parsed = load_frames(src, out_dir)
    write_frames_csv(frames, out)
    if parsed and out_dir is not None:
        write_frames_npz(frames, out_dir / FRAMES_NPZ, capture_sha256)
    _print_status(args.output, f"wrote {frames.n_frames} grid points x {len(frames.venues)} venue(s) to {args.output}")
    return 0


def cmd_synth_gen(args) -> int:
    cfg = load_config(args.config)
    synth_cfg = cfg.synth
    if args.seed is not None:
        check_seed("--seed", args.seed)
        synth_cfg = replace(synth_cfg, seed=args.seed)
    try:
        n = generate(synth_cfg, cfg.synth_duration_s, args.out)
    except InvalidConfig as exc:  # draws that no capture can hold
        raise ConfigError(f"synth: {exc}", field="synth") from exc
    _print_status(args.out, f"wrote {n} records ({cfg.synth_duration_s}s, {synth_cfg.n_venues} venues) to {args.out}")
    return 0


def cmd_signals_report(args) -> int:
    run = Run(args)
    cfg, frames = run.cfg, run.frames
    target = cfg.signals.target_venue
    values = feature_series(frames, target, cfg.signals.window_ms)
    # With a single venue there is no peer, so no peer spread to fit.
    names = [
        name
        for entry in cfg.signals.features
        for name in REPORT_SERIES[entry]
        if name != "peer_spread_centered" or len(frames.venue_names) > 1
    ]

    horizon_lines = ["feature,horizon_ms,alpha,beta,r2,n"]
    bin_lines = ["feature,bin_center,mean_return_bps,count"]
    for name in names:
        report = horizon_report(
            name, values[name], frames, target, cfg.signals.horizons_ms, cfg.signals.bin_horizon_ms
        )
        _write_json(run.output(f"report_{name}.json"), report.to_json_dict())
        for h, fit in zip(report.horizons_ms, report.fits):
            cells = ",," if fit.degenerate else f"{fit.alpha:.9g},{fit.beta:.9g},{fit.r2:.9g}"
            horizon_lines.append(f"{name},{h},{cells},{fit.n}")
        for c, m, k in zip(report.bin_centers, report.bin_mean_bps, report.bin_counts):
            cell = "" if not np.isfinite(m) else format(m, ".9g")
            bin_lines.append(f"{name},{c:.9g},{cell},{k}")
    _write_lines(run.output("horizon_r2.csv"), horizon_lines)
    _write_lines(run.output("bin_curves.csv"), bin_lines)
    run.finish("signals_report", command="signals report", seeds={"seed": cfg.seed})
    print(f"wrote {len(names)} feature reports to {run.out_dir}")
    return 0


def cmd_train(args) -> int:
    run = Run(args)
    cfg = run.cfg
    scope, seed = cfg.train.scope, cfg.train.seed
    features = feature_bundle(run.frames, cfg.signals.target_venue, scope, cfg.signals.window_ms)
    params, log = train_policy(
        run.frames,
        cfg.problem,
        features,
        cfg.signals.target_venue,
        cfg.ppo,
        n_updates=cfg.train.updates,
        seed=seed,
    )
    # A configured checkpoint path is taken as given, not under the output directory.
    ckpt_path = Path(getattr(cfg.paths, f"checkpoint_{scope}") or run.out_dir / f"ppo_{scope}.npz")
    _make_dir(ckpt_path.parent)
    save_checkpoint(
        ckpt_path,
        params,
        cfg.ppo,
        meta={"scope": scope, "target_venue": cfg.signals.target_venue, "seed": seed},
    )
    run.outputs.append(ckpt_path)
    _write_lines(run.output(f"training_log_{scope}.csv"), log.csv_lines())
    run.finish(f"train_{scope}", command="train", seeds={"train_seed": seed})
    final = log.rows[-1] if log.rows else {}
    print(
        f"trained {scope} policy for {cfg.train.updates} updates "
        f"(last mean episode reward {final.get('mean_episode_reward_bps', float('nan')):.3f} bps); "
        f"checkpoint at {ckpt_path}"
    )
    return 0


def _load_arm(path: Path, run: Run, scope: str) -> Arm:
    cfg = run.cfg
    field = f"paths.checkpoint_{scope}"
    try:
        params, _, meta = load_checkpoint(path)
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
    features = feature_bundle(run.frames, target, scope, cfg.signals.window_ms)
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
    run = Run(args)
    cfg, frames = run.cfg, run.frames
    spec = cfg.problem
    target = cfg.signals.target_venue

    arms: dict[str, Arm] = {"TWAP": Arm(policy=TwapPolicy(spec))}
    checkpoint_sha256 = {}
    for scope in SCOPES:
        if path_value := getattr(cfg.paths, f"checkpoint_{scope}"):
            path = _require_file(path_value, f"checkpoint_{scope}")
            arms[f"PPO_{scope}"] = _load_arm(path, run, scope)
            checkpoint_sha256[str(path)] = file_sha256(path)

    report = compare(
        arms,
        frames,
        spec,
        target,
        n_episodes=cfg.evaluate.episodes,
        seed=cfg.evaluate.seed,
    )
    write_report_json(report, run.output("comparison.json"))
    _write_lines(run.output("histogram.csv"), report.histogram_csv_lines())

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
        _write_lines(run.output("action_heatmap.csv"), grid.csv_lines())

    for name, result in report.results.items():
        for i, trace in enumerate(result.traces[: cfg.evaluate.trace_episodes]):
            _write_lines(run.output(f"trace_{name}_{i}.csv"), trace_csv_lines(trace, frames.grid_ts))

    run.finish(
        "evaluate",
        command="evaluate",
        seeds={"eval_seed": cfg.evaluate.seed},
        checkpoint_sha256=checkpoint_sha256,
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
    p_align.set_defaults(func=cmd_capture_align, modules=())
    p_resample = cap_sub.add_parser("resample", help="capture NDJSON to frames CSV")
    p_resample.add_argument("input")
    p_resample.add_argument("output")
    p_resample.set_defaults(func=cmd_capture_resample, modules=())

    p_synth = sub.add_parser("synth", help="synthetic market generation")
    synth_sub = p_synth.add_subparsers(dest="synth_command", required=True)
    p_gen = synth_sub.add_parser("gen", help="generate a capture file")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.set_defaults(func=cmd_synth_gen, modules=("config", "synth"))

    p_signals = sub.add_parser("signals", help="feature predictiveness reports")
    sig_sub = p_signals.add_subparsers(dest="signals_command", required=True)
    p_report = sig_sub.add_parser("report", help="r2 by horizon and bin curves")
    p_report.add_argument("--config", required=True)
    p_report.add_argument("--out-dir", default=None)
    p_report.set_defaults(func=cmd_signals_report, modules=("config", "signals"))

    p_train = sub.add_parser("train", help="train the PPO execution agent")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out-dir", default=None)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.set_defaults(func=cmd_train, modules=("config", "signals", "ppo.agent", "ppo.trainer"))

    p_eval = sub.add_parser("evaluate", help="paired policy comparison")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--out-dir", default=None)
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.set_defaults(func=cmd_evaluate, modules=("config", "signals", "env", "evalkit", "ppo.agent"))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _bind(args.modules)
    try:
        with one_blas_thread():  # the BLAS rule holds for every command, however entered
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
    except MemoryError as exc:
        print(f"error: OutOfMemory: {str(exc) or 'cannot allocate memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

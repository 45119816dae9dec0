"""One repetition of a workload, in a fresh process.

    worker.py rep <task.json>
        Runs one `ingest` or `train` repetition and writes rep.json (timings,
        peak RSS) and the repetition's outputs into the task's out_dir.
    worker.py cli <stats.json> <run id | -> <execlab CLI arguments...>
        Runs `execlab.cli.main` as a user would and writes the process's own
        peak RSS and exit code to stats.json.

With a run id the process installs the tracing wrappers first and writes
its spans next to its other outputs when it ends.  Users pay first-call
costs on every CLI run, so no repetition reuses a warm process.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    EVAL_SEED,
    POLICY_DRAW_SEED,
    TARGET,
    TRAIN_SEED,
    market,
    write_json,
)


def peak_rss_mb() -> float:
    # RUSAGE_SELF: this process only (RUSAGE_CHILDREN keeps a maximum over
    # all children ever waited for).
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rep_ingest(task: dict, out_dir: Path) -> dict:
    records = importlib.import_module("execlab.capture.records")
    clock = importlib.import_module("execlab.capture.clock")
    resample = importlib.import_module("execlab.capture.resample")

    t0 = time.perf_counter()
    recs = list(records.read_capture(task["capture"]))
    t1 = time.perf_counter()
    by_venue: dict[str, list] = {}
    for rec in recs:
        by_venue.setdefault(rec.venue, []).append(rec)
    maps = {venue: clock.align_clock(by_venue[venue]) for venue in sorted(by_venue)}
    t2 = time.perf_counter()
    frames = resample.resample(recs)
    t3 = time.perf_counter()
    resample.write_frames_csv(frames, out_dir / "frames.csv")
    t4 = time.perf_counter()

    write_json(
        out_dir / "clockmaps.json",
        {
            venue: {
                "offsets_ns": sorted({int(l) - int(e) for l, e in zip(m.local_knots, m.exch_knots)}),
                "rejected_knots": m.rejected_knots,
            }
            for venue, m in maps.items()
        },
    )
    return {
        "wall_s": t4 - t0,
        "parse_s": t1 - t0,
        "align_s": t2 - t1,
        "resample_s": t3 - t2,
        "csv_s": t4 - t3,
        "records": len(recs),
    }


def rep_train(task: dict, out_dir: Path) -> dict:
    synth = importlib.import_module("execlab.synth")
    signals = importlib.import_module("execlab.signals")
    trainer = importlib.import_module("execlab.ppo.trainer")
    agent = importlib.import_module("execlab.ppo.agent")
    evalkit = importlib.import_module("execlab.evalkit")
    from execlab.env import ProblemSpec

    size = task["size"]
    spec = ProblemSpec()
    config = agent.PpoConfig()

    t0 = time.perf_counter()
    frames = synth.generate_frames(market(task["seed"]), size["train_market_s"])
    features = signals.feature_bundle(frames, TARGET, "cross")
    t1 = time.perf_counter()
    params, _ = trainer.train_policy(
        frames, spec, features, TARGET, config, n_updates=size["train_updates"], seed=TRAIN_SEED
    )
    t2 = time.perf_counter()
    arms = {
        "TWAP": evalkit.Arm(policy=evalkit.TwapPolicy(spec)),
        "PPO_cross": evalkit.Arm(
            policy=evalkit.SampledPolicy(params, seed=POLICY_DRAW_SEED), features=features
        ),
    }
    report = evalkit.compare(
        arms, frames, spec, TARGET, n_episodes=size["train_episodes"], seed=EVAL_SEED
    )
    t3 = time.perf_counter()

    evalkit.write_report_json(report, out_dir / "comparison.json")
    digest = hashlib.sha256()
    for net in (params.actor, params.critic):
        for arr in net.arrays:
            digest.update(arr.tobytes())
    return {
        "setup_s": t1 - t0,
        "wall_s": t3 - t1,
        "train_s": t2 - t1,
        "compare_s": t3 - t2,
        "updates": size["train_updates"],
        "episode_runs": size["train_episodes"] * len(arms),
        "params_sha256": digest.hexdigest(),
    }


REPS = {"ingest": rep_ingest, "train": rep_train}


def main(argv: list[str]) -> int:
    if argv[:1] == ["rep"] and len(argv) == 2:
        task = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
        out_dir = Path(task["out_dir"])
        tracer = Tracer(task["run_id"]) if task["traced"] else None
        if tracer:
            tracer.install()
        result = REPS[task["workload"]](task, out_dir)
        result["peak_rss_mb"] = peak_rss_mb()
        if tracer:
            tracer.write(str(out_dir / "spans.jsonl"))
        write_json(out_dir / "rep.json", result)
        return 0
    if argv[:1] == ["cli"] and len(argv) >= 3:
        stats_path, run_id, cli_args = Path(argv[1]), argv[2], argv[3:]
        tracer = Tracer(run_id) if run_id != "-" else None
        if tracer:
            tracer.install()
        from execlab.cli import main as cli_main

        code = cli_main(cli_args)
        if tracer:
            tracer.write(str(stats_path.with_suffix(".spans.jsonl")))
        write_json(stats_path, {"exit_code": code, "peak_rss_mb": peak_rss_mb()})
        return code
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

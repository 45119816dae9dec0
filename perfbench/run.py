"""execlab benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload {ingest,train,pipeline} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
Load is a closed loop from one process: one repetition at a time, each in a
fresh worker process, the next starting when the previous one has ended, for
``--seconds`` seconds (at least two repetitions).  Every output is checked:
against an oracle for every seed, for consistency across the run's
repetitions, and against the reference pinned in ``reference.json`` for the
default seed.  A repetition whose process fails or whose output differs
counts in ``failed``.

With ``--trace 0`` the last line holds the end-to-end metrics of
BENCHMARK.json, measured untraced.  With ``--trace 1`` the run alternates
untraced and traced repetitions and the last line holds the per-layer
metrics (medians over traced repetitions) plus the tracing overhead.
Everything else -- run metadata, the workload-specific end-to-end figures,
failures -- is printed above the last line and written to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
from tracing import layer_metrics, read_spans  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    PIPELINE_COMMANDS,
    SIZES,
    market,
    pipeline_config,
    sha256_file,
    write_json,
)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in BENCH["workloads"])
E2E_UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
# Reported next to the gated metrics but not gated; not every workload has them.
EXTRA_UNITS = {
    "error_rate": "ratio",
    "ingest_records_per_s": "1/s",
    "train_updates_per_s": "1/s",
    "eval_episodes_per_s": "1/s",
    "ppo_gain_bps": "bps",
}
# Set-ups per run; setup_s is their median.  train sets up inside every
# repetition's process instead (see worker.rep_train).
SETUP_REPEATS = {"ingest": 9, "pipeline": 5}
MIN_REPS = 2
# A run stops starting repetitions after this long, whatever --seconds says,
# so that it always ends within the 180 s a run may take.
HARD_LIMIT_S = 120.0


def median(values) -> float:
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else 0.0


def corrupt(path: Path, marker: bytes) -> None:
    """Change the first digit after `marker`; used by the self-test."""
    data = bytearray(path.read_bytes())
    i = data.index(marker) + len(marker)
    while not chr(data[i]).isdigit():
        i += 1
    data[i] = ord(str((int(chr(data[i])) + 1) % 10))
    path.write_bytes(bytes(data))


def prune(directory: Path) -> None:
    """Drop a checked repetition's bulky outputs; keep its JSON and spans."""
    for path in directory.iterdir():
        if path.suffix not in (".json", ".jsonl"):
            path.unlink()


def merge_spans(span_lists: list[list[list]]) -> list[list]:
    merged: list[list] = []
    for spans in span_lists:
        base = len(merged)
        merged += [[n, s, e, p + base if p >= 0 else -1] for n, s, e, p in spans]
    return merged


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            getter = getattr(handle, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_state() -> tuple[str | None, bool | None]:
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return None, None
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))
    except (OSError, subprocess.CalledProcessError):
        return None, None


def run_metadata(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha, dirty = git_state()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
    }


class Run:
    """One benchmark run: set-up, the measuring loop, checks and metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, size: str,
                 corrupt_first: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = SIZES[size]
        self.corrupt_first = corrupt_first
        self.dir = WORK / f"{workload}-s{seed}-t{int(trace)}"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setup_s: list[float] = []
        self.setup_spans: list[list[list]] = []
        self.reps: list[dict] = []
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        pinned = seed == reference["seed"] and size == reference["size"]
        self.pinned = reference[workload] if pinned else None

    # -- helpers ---------------------------------------------------------------

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def python(self, *args) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(WORKER), *map(str, args)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=170,
        )

    def oracle_csv_digest(self, duration_s: float) -> str:
        """Digest of the frames CSV of generate_frames, which equals
        resample(generate(...)) bit for bit."""
        from execlab.capture import write_frames_csv
        from execlab.synth import generate_frames

        path = self.dir / "oracle.csv"
        write_frames_csv(generate_frames(market(self.seed), duration_s), path)
        digest = sha256_file(path)
        path.unlink()
        return digest

    def check_frames_csv(self, digest: str, what: str) -> bool:
        if digest != self.oracle_digest:
            self.fail(f"{what}: frames CSV digest differs from the generate_frames oracle")
            return False
        if self.pinned and digest != self.pinned["frames_csv_sha256"]:
            self.fail(f"{what}: frames CSV digest differs from the pinned reference")
            return False
        return True

    def check_comparison(self, path: Path, what: str) -> tuple[bool, dict]:
        table = {row["policy"]: row for row in json.loads(path.read_text())["table"]}
        ok = True
        for row in table.values():
            if not all(isinstance(row[k], float) and abs(row[k]) < 1e6
                       for k in ("IS_mean_bps", "IS_std_bps", "Gain_bps")):
                self.fail(f"{what}: non-finite shortfall for {row['policy']}")
                ok = False
        if table.get("TWAP", {}).get("Gain_bps") != 0.0:
            self.fail(f"{what}: TWAP gain over itself is not 0")
            ok = False
        if self.pinned:
            tol = self.pinned["tolerance_bps"]
            for key in ("IS_mean_bps", "Gain_bps"):
                for arm, want in self.pinned[key].items():
                    got = table.get(arm, {}).get(key)
                    if got is None or abs(got - want) > tol:
                        self.fail(f"{what}: {arm} {key} {got} differs from pinned {want}")
                        ok = False
        return ok, table

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        """Prepare the run directory and do set-up 0, which makes the input."""
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        if self.workload in SETUP_REPEATS:
            key = f"{self.workload}_market_s"
            self.capture = self.dir / "market.ndjson"
            self.oracle_digest = self.oracle_csv_digest(self.size[key])
            if self.workload == "pipeline":
                self.synth_cfg = self.dir / "synth.json"
                write_json(self.synth_cfg,
                           pipeline_config(self.seed, self.size, self.capture, self.dir, "cross"))
            self.setup_digests: list[str] = []
            self.setup_sample()
        # train sets up inside each repetition's own process (see rep_train).

    def setup_sample(self) -> None:
        """One timed set-up.  Set-up 0 writes the capture the repetitions read;
        every later one must write the same bytes.

        The measuring loop runs one set-up after each repetition, so that the
        median of setup_s spans the same swings of host speed as wall_s's
        rather than a few seconds of them.
        """
        j = len(self.setup_s)
        self.attempted += 1
        out = self.dir / f"market{j}.ndjson"
        t0 = time.perf_counter()
        if self.workload == "ingest":
            from execlab import synth

            synth.generate(market(self.seed), self.size["ingest_market_s"], out)
        else:
            stats = self.dir / f"setup{j}.stats.json"
            run_id = f"{self.dir.name}-setup{j}" if self.trace else "-"
            proc = self.python("cli", stats, run_id, "synth", "gen", "--config", self.synth_cfg,
                               "--out", out)
        self.setup_s.append(time.perf_counter() - t0)
        if self.workload == "pipeline":
            if proc.returncode != 0:
                self.fail(f"set-up {j}: synth gen exited {proc.returncode}: {proc.stderr[-300:]}")
                self.failed += 1
                return
            if self.trace:
                self.setup_spans.append(read_spans(str(stats.with_suffix(".spans.jsonl")))[0])
        self.setup_digests.append(sha256_file(out))
        if self.setup_digests[-1] != self.setup_digests[0]:
            self.fail(f"set-up {j}: the capture differs from set-up 0 of the same seed")
            self.failed += 1
        if j == 0:
            out.rename(self.capture)
        else:
            out.unlink()

    def setups_left(self) -> int:
        return SETUP_REPEATS.get(self.workload, 0) - len(self.setup_s)

    # -- repetitions -------------------------------------------------------------

    def rep_worker(self, i: int, traced: bool) -> dict | None:
        out = self.dir / f"rep{i}"
        out.mkdir()
        task = {
            "workload": self.workload, "seed": self.seed, "size": self.size,
            "out_dir": str(out), "run_id": f"{self.dir.name}-rep{i}", "traced": traced,
            "capture": str(getattr(self, "capture", "")),
        }
        task_path = out / "task.json"
        write_json(task_path, task)
        proc = self.python("rep", task_path)
        if proc.returncode != 0:
            self.fail(f"rep {i}: worker exited {proc.returncode}: {proc.stderr[-300:]}")
            return None
        rep = json.loads((out / "rep.json").read_text())
        if traced:
            spans, counters = read_spans(str(out / "spans.jsonl"))
            rep["layers"] = layer_metrics(spans, counters)

        if self.workload == "ingest":
            csv = out / "frames.csv"
            if self.corrupt_first and i == 0:
                corrupt(csv, b"\n")
            rep["ok"] = self.check_frames_csv(sha256_file(csv), f"rep {i}")
            for venue, m in json.loads((out / "clockmaps.json").read_text()).items():
                if len(m["offsets_ns"]) != 1 or m["rejected_knots"]:
                    self.fail(f"rep {i}: clock map of {venue} is not a constant skew")
                    rep["ok"] = False
            rep["records_per_s"] = rep["records"] / rep["wall_s"]
        else:
            report = out / "comparison.json"
            if self.corrupt_first and i == 0:
                corrupt(report, b'"IS_mean_bps": ')
            rep["ok"], table = self.check_comparison(report, f"rep {i}")
            rep["gain_bps"] = table.get("PPO_cross", {}).get("Gain_bps")
            rep["digest"] = (sha256_file(report), rep["params_sha256"])
            rep["updates_per_s"] = rep["updates"] / rep["train_s"]
            rep["episodes_per_s"] = rep["episode_runs"] / rep["compare_s"]
        prune(out)
        return rep

    def rep_pipeline(self, i: int, traced: bool) -> dict | None:
        out = self.dir / f"rep{i}"
        out.mkdir()
        configs = {}
        for scope in ("cross", "single"):
            configs[scope] = out / f"cfg_{scope}.json"
            write_json(configs[scope], pipeline_config(self.seed, self.size, self.capture, out, scope))
        commands = {
            "capture_resample": ["capture", "resample", self.capture, out / "frames.csv"],
            "signals_report": ["signals", "report", "--config", configs["cross"]],
            "train_cross": ["train", "--config", configs["cross"]],
            "train_single": ["train", "--config", configs["single"]],
            "evaluate": ["evaluate", "--config", configs["cross"]],
        }
        rep: dict = {"command_s": {}, "command_rss_mb": {}}
        spans = []
        t_start = time.perf_counter()
        for name in PIPELINE_COMMANDS:
            stats = out / f"{name}.stats.json"
            run_id = f"{self.dir.name}-rep{i}-{name}" if traced else "-"
            t0 = time.perf_counter()
            proc = self.python("cli", stats, run_id, *commands[name])
            rep["command_s"][name] = time.perf_counter() - t0
            if proc.returncode != 0:
                self.fail(f"rep {i}: {name} exited {proc.returncode}: {proc.stderr[-300:]}")
                return None
            rep["command_rss_mb"][name] = json.loads(stats.read_text())["peak_rss_mb"]
            if traced:
                spans.append(read_spans(str(stats.with_suffix(".spans.jsonl"))))
        rep["wall_s"] = time.perf_counter() - t_start
        rep["peak_rss_mb"] = max(rep["command_rss_mb"].values())
        if traced:
            merged = merge_spans([s for s, _ in spans])
            counters: dict[str, float] = {}
            for _, c in spans:
                for k, v in c.items():
                    counters[k] = counters.get(k, 0) + v
            rep["layers"] = layer_metrics(merged, counters)
            rep["layers"]["cli.capture_reads"] = sum(
                1 for name, *_ in merged if name == "capture.records"
            )

        report = out / "comparison.json"
        if self.corrupt_first and i == 0:
            corrupt(report, b'"IS_mean_bps": ')
        rep["ok"] = self.check_frames_csv(sha256_file(out / "frames.csv"), f"rep {i}")
        ok, table = self.check_comparison(report, f"rep {i}")
        rep["ok"] &= ok
        rep["gain_bps"] = table.get("PPO_cross", {}).get("Gain_bps")
        rep["digest"] = tuple(
            sha256_file(out / f) for f in (
                "comparison.json", "horizon_r2.csv", "bin_curves.csv", "action_heatmap.csv",
                "training_log_cross.csv", "training_log_single.csv",
            )
        )
        prune(out)
        return rep

    def measure(self) -> None:
        """Closed loop: one repetition at a time until the measuring time is used.

        A traced run alternates untraced and traced repetitions so that the
        tracing overhead is measured under the same conditions.  While set-ups
        are left, one follows each repetition; the rest follow the loop.
        """
        rep_fn = self.rep_pipeline if self.workload == "pipeline" else self.rep_worker
        t_start = time.perf_counter()
        durations = []
        i = 0
        while True:
            traced = self.trace and i % 2 == 1
            self.attempted += 1
            t0 = time.perf_counter()
            rep = rep_fn(i, traced)
            if rep is None:
                self.failed += 1
            else:
                rep.update(index=i, traced=traced)
                self.reps.append(rep)
                self.failed += not rep["ok"]
            if self.setups_left() > 0:
                self.setup_sample()
            durations.append(time.perf_counter() - t0)
            i += 1
            done_min = i >= (2 * MIN_REPS if self.trace else MIN_REPS)
            next_end = time.perf_counter() + statistics.median(durations) - t_start
            if done_min and (next_end > self.seconds or next_end > HARD_LIMIT_S):
                break
        while self.setups_left() > 0:
            self.setup_sample()
        # Every repetition of one seed must produce the same outputs.
        digests = [r["digest"] for r in self.reps if "digest" in r]
        if digests:
            common = max(set(digests), key=digests.count)
            for r in self.reps:
                if r["digest"] != common and r["ok"]:
                    self.fail(f"rep {r['index']}: outputs differ from the run's other repetitions")
                    r["ok"] = False
                    self.failed += 1

    # -- metrics -----------------------------------------------------------------

    def end_to_end(self) -> dict:
        untraced = [r for r in self.reps if not r["traced"]]
        setup = self.setup_s if self.workload != "train" else [r["setup_s"] for r in untraced]
        return {
            "setup_s": median(setup),
            "wall_s": median(r["wall_s"] for r in untraced),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
        }

    def extras(self) -> dict:
        untraced = [r for r in self.reps if not r["traced"]]
        out = {"error_rate": self.failed / self.attempted}
        if self.workload == "ingest":
            out["ingest_records_per_s"] = median(r["records_per_s"] for r in untraced)
        if self.workload == "train":
            out["train_updates_per_s"] = median(r["updates_per_s"] for r in untraced)
            out["eval_episodes_per_s"] = median(r["episodes_per_s"] for r in untraced)
        if self.workload in ("train", "pipeline") and self.reps:
            out["ppo_gain_bps"] = self.reps[0]["gain_bps"]
        return out

    def per_layer(self) -> dict:
        traced = [r for r in self.reps if r["traced"]]
        untraced = [r for r in self.reps if not r["traced"]]
        m = {name: median(r["layers"].get(name, 0.0) for r in traced)
             for name in PER_LAYER_UNITS}
        if self.workload == "ingest":
            m["synth.generate_s"] = median(self.setup_s)
        if self.workload == "pipeline":
            m["synth.generate_s"] = median(
                sum(e - s for n, s, e, _ in spans if n == "synth.generate")
                for spans in self.setup_spans
            )
        for c in PIPELINE_COMMANDS:
            m[f"cli.{c}_s"] = median(r.get("command_s", {}).get(c) for r in untraced)
            m[f"cli.{c}_peak_rss_mb"] = median(r.get("command_rss_mb", {}).get(c) for r in untraced)
        wall_u = median(r["wall_s"] for r in untraced)
        wall_t = median(r["wall_s"] for r in traced)
        m["trace.overhead_s"] = wall_t - wall_u
        m["trace.overhead_frac"] = (wall_t - wall_u) / wall_u if wall_u else 0.0
        return m


def use_sources() -> bool:
    """Put the checkout's src/ on the import path; False if it is missing."""
    if not (ROOT / "src" / "execlab" / "__init__.py").is_file():
        print(f"perfbench: no execlab sources under {ROOT / 'src'}", file=sys.stderr)
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  size: str = "full", corrupt_first: bool = False) -> dict:
    run = Run(workload, seed, seconds, trace, size, corrupt_first)
    meta = run_metadata(seed)
    run.setup()
    run.measure()
    result = {
        "workload": workload,
        "size": size,
        "meta": meta,
        "repetitions": len(run.reps),
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "end_to_end": run.end_to_end(),
        "extras": run.extras(),
    }
    if trace:
        result["per_layer"] = run.per_layer()
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    write_json(results_dir / f"{workload}-s{seed}-t{int(trace)}.json", result)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="tiny is for the smoke self-test only")
    parser.add_argument("--corrupt-first", action="store_true",
                        help="self-test: corrupt the first repetition's output before its check")
    args = parser.parse_args(argv)

    if not use_sources():
        return 1
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.size, args.corrupt_first)
    print("meta " + json.dumps(result["meta"], sort_keys=True))
    for failure in result["failures"]:
        print("FAILED " + failure)
    shown = dict(result["end_to_end"], **result["extras"])
    units = dict(E2E_UNITS, **EXTRA_UNITS)
    print(f"{args.workload} seed={args.seed} repetitions={result['repetitions']}: "
          + ", ".join(f"{k}={v:.6g} {units[k]}" for k, v in shown.items() if v is not None))
    if args.trace:
        values, units = result["per_layer"], PER_LAYER_UNITS
    else:
        values, units = result["end_to_end"], E2E_UNITS
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

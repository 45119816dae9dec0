"""Self-test of the benchmark itself, at a tiny input size.

    python3 perfbench/selftest.py

1. Smoke: every workload, untraced and traced, prints a last line with
   exactly the keys correct/attempted/failed/metrics, and its metrics are
   exactly BENCHMARK.json's end-to-end (untraced) or per-layer (traced)
   metrics, each a finite number with its unit.
2. Corruption: with one repetition's output corrupted before its check,
   every workload reports the failure in `failed` and `correct` is false.
3. Missing sources: in a directory holding only BENCHMARK.json and the
   benchmark's files, the benchmark exits nonzero without a result.
Exits nonzero if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def bench_run(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []

    for workload in (w["name"] for w in bench["workloads"]):
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = bench_run(ROOT, workload, trace)
            if proc.returncode != 0:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            out = last_json(proc)
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace={trace}: keys {sorted(out)}")
            if out.get("correct") is not True or out.get("failed") != 0 or out.get("attempted", 0) < 1:
                problems.append(f"{workload} trace={trace}: not correct: {proc.stdout[-800:]}")
            want = {m["name"]: m["unit"] for m in listed}
            got = out.get("metrics", {})
            if set(got) != set(want):
                problems.append(
                    f"{workload} trace={trace}: missing {sorted(set(want) - set(got))}, "
                    f"unexpected {sorted(set(got) - set(want))}"
                )
            for name, unit in want.items():
                entry = got.get(name, {})
                value = entry.get("value")
                if entry.get("unit") != unit or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    problems.append(f"{workload} trace={trace}: bad {name}: {entry}")
            print(f"smoke {workload} trace={trace}: {len(got)} metrics", flush=True)

        proc = bench_run(ROOT, workload, 0, "--corrupt-first")
        out = last_json(proc) if proc.returncode == 0 else {}
        if out.get("correct") is not False or out.get("failed", 0) < 1:
            problems.append(f"{workload}: corrupted output not counted: {proc.stdout[-800:]}")
        print(f"corrupt {workload}: failed={out.get('failed')} of {out.get('attempted')}", flush=True)

    bare = ROOT / ".perfbench_work" / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run(bare, bench["workloads"][0]["name"], 0)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    print(f"without sources: exit {proc.returncode}", flush=True)
    shutil.rmtree(bare)

    for problem in problems:
        print("PROBLEM " + problem)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

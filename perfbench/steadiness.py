"""Steadiness report: two sets of runs per workload, side by side.

    python3 perfbench/steadiness.py

Each of two sets runs every workload of BENCHMARK.json once per seed (set k
uses seeds 100*k+1 .. 100*k+10) for run_seconds, one run at a time, exactly
as BENCHMARK.json's command would.  For every end-to-end metric it prints
each set's median and quartiles, the spread (third minus first quartile, as
a share of the median) and how far the second set's median moved from the
first's in the metric's worse direction.
A spread above a third of the metric's bound, or a move above the bound, is
flagged; setup_s's spread is shown but not gated.  These figures set the
bounds recorded in BENCHMARK.json.  The full report goes to
.perfbench_work/steadiness.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10
OUT = ROOT / ".perfbench_work" / "steadiness.json"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    raw: dict = {w: [[] for _ in range(SETS)] for w in workloads}
    meta = None
    for k in range(SETS):
        for seed in range(100 * k + 1, 100 * k + RUNS + 1):
            for w in workloads:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
                if proc.returncode != 0:
                    print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-1000:]}",
                          file=sys.stderr)
                    return 1
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                meta = next((json.loads(l[5:]) for l in lines if l.startswith("meta ")), meta)
                raw[w][k].append({"seed": seed, **result})
                values = {n: round(v["value"], 4) for n, v in result["metrics"].items()}
                print(f"set {k} seed {seed} {w}: correct={result['correct']} {values}", flush=True)

    report: dict = {"meta": meta, "seconds": seconds, "runs": RUNS, "workloads": {}}
    flagged = []
    lines = ["| workload | metric | bound | " + " | ".join(
        f"set {k} median [q1, q3] spread" for k in range(SETS)) + " | move |",
        "|---" * (4 + SETS) + "|"]
    for w in workloads:
        report["workloads"][w] = {}
        for name, spec in metrics.items():
            cells, medians = [], []
            for k in range(SETS):
                vals = [r["metrics"][name]["value"] for r in raw[w][k]]
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / q2
                medians.append(q2)
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] {spread:.3f}")
                report["workloads"][w].setdefault(name, []).append(
                    {"values": vals, "median": q2, "q1": q1, "q3": q3, "spread": spread}
                )
                if name != "setup_s" and spread > spec["bound"] / 3:
                    flagged.append(f"{w} {name} set {k}: spread {spread:.3f} > bound/3")
            sign = 1.0 if spec["better"] == "lower" else -1.0
            move = max(sign * (m - medians[0]) / medians[0] for m in medians)
            if move > spec["bound"]:
                flagged.append(f"{w} {name}: median moved {move:.3f} > bound")
            lines.append(f"| {w} | {name} | {spec['bound']} | " + " | ".join(cells)
                         + f" | {move:+.3f} |")
        report["workloads"][w]["correct"] = all(
            r["correct"] for runs in raw[w] for r in runs
        )
    report["flagged"] = flagged
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print("flagged: " + ("; ".join(flagged) if flagged else "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())

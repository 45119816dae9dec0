"""Every end-to-end metric of every workload, one row per workload.

    python3 perfbench/summary.py [--seed 1234]

Runs each workload untraced for BENCHMARK.json's run_seconds, as run.py
does, and prints the gated metrics of BENCHMARK.json (setup_s, wall_s,
peak_rss_mb) next to the workload-specific ones: error_rate, ingest_records_per_s, train_updates_per_s,
eval_episodes_per_s and ppo_gain_bps ("-" where a workload has no such
figure).  With the default seed every output is also checked against the
pinned reference.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = parser.parse_args()
    if not run.use_sources():
        return 1

    units = dict(run.E2E_UNITS, **run.EXTRA_UNITS)
    rows = []
    for workload in run.WORKLOADS:
        result = run.run_benchmark(workload, args.seed, run.BENCH["run_seconds"], trace=False)
        for failure in result["failures"]:
            print(f"FAILED {workload}: {failure}")
        rows.append((workload, dict(result["end_to_end"], **result["extras"])))
    print("meta " + json.dumps(result["meta"], sort_keys=True))

    header = ["workload"] + [f"{name} [{unit}]" for name, unit in units.items()]
    table = [header] + [
        [workload] + ["-" if values.get(name) is None else f"{values[name]:.6g}" for name in units]
        for workload, values in rows
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

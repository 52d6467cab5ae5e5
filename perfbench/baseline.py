"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/baseline.py [--seeds 10] [--workload NAME ...] [--write]

For every workload and metric it prints the median and the spread, the
distance between the first and third quartile (``statistics.quantiles``
with n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json.  ``--write`` records the medians, with the machine's core
count and Python version, in perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    worst = 0.0
    for workload in args.workload or names:
        runs = []
        for seed in range(1, args.seeds + 1):
            proc = subprocess.run(
                [sys.executable, *bench["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                return 1
            runs.append(result)
        summary[workload] = {"runs": len(runs),
                             "attempted": sum(r["attempted"] for r in runs),
                             "failed": sum(r["failed"] for r in runs),
                             "median": {}, "spread": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[workload]["median"][name] = med
            summary[workload]["spread"][name] = round(spread, 4)
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{workload:18s} {name:14s} median {med:12.4f}  spread "
                  f"{spread:7.4f}  bound {bound}  runs "
                  f"{' '.join(f'{v:.4g}' for v in values)}", flush=True)
        print(f"{workload:18s} error_rate {summary[workload]['failed']}/"
              f"{summary[workload]['attempted']}", flush=True)
    print(f"largest spread as a share of its bound, setup_s aside: {worst:.3f}")
    if args.write:
        doc = {"recorded": time.strftime("%Y-%m-%d"),
               "nproc": os.cpu_count(),
               "python": platform.python_version(),
               "machine": platform.machine(),
               "run_seconds": bench["run_seconds"],
               "workloads": summary}
        (HERE / "baseline.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""semitop benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads: obstruction-sweep, suite-battery, query-mix (see workloads.py).

Each workload runs in its own fresh worker process, one thread, sending
every op through ``semitop.cli.main`` in-process.  With ``--trace 0`` the
end-to-end metrics are printed, with times rescaled to a reference host
speed (speed.py explains why; raw times are printed alongside);
``setup_s`` is the median import time of ``semitop.cli`` over several
fresh processes.  With ``--trace 1`` the
per-layer metrics of a traced pass are printed instead, and the spans are
written to ``.perfbench/``.  Every output is checked against its known
answer; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` is false when any
op returned a wrong exit code or verdict; ``failed`` also counts ops whose
exception escaped ``cli.main``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
DEADLINE_S = 170

# Times the import of semitop.cli in a fresh interpreter, and the
# reference loop (copied in, so that no extra module is imported first)
# before and after it.
_PROBE = f"""import time
{inspect.getsource(speed.reference)}
def reference_s():
    samples = []
    for _ in range(15):
        t0 = time.perf_counter()
        reference()
        samples.append(time.perf_counter() - t0)
    return sorted(samples)[7]
before = reference_s()
t0 = time.perf_counter()
import semitop.cli
elapsed = time.perf_counter() - t0
print(elapsed, (before + reference_s()) / 2)
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_times(count: int) -> list:
    """Import time of semitop.cli in ``count`` fresh interpreters, as
    (seconds at reference speed, raw seconds)."""
    out = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", _PROBE], cwd=ROOT,
                              env=_env(), capture_output=True, text=True,
                              timeout=60, check=True)
        elapsed, ref = map(float, proc.stdout.split())
        out.append((elapsed * speed.REFERENCE_S / ref, elapsed))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload at toy sizes, for the "
                             "smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "semitop" / "cli.py").is_file():
        print(f"perfbench: no semitop sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    started = time.monotonic()

    setup = [] if args.trace else setup_times(SETUP_PROBES)
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace), args.scale]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True,
                              timeout=DEADLINE_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        print("perfbench: the workload did not finish in time", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        print(f"perfbench: worker exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    values = result["metrics"]
    if args.trace:
        defs = metrics.per_layer()
    else:
        defs = metrics.END_TO_END
        values["setup_s"] = statistics.median(t for t, _ in setup)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"scale {args.scale}")
    if setup:
        print(f"setup_s {values['setup_s']:.4f} s (median import of "
              f"semitop.cli in {len(setup)} fresh processes: "
              f"{', '.join(f'{t:.4f}' for t, _ in setup)}; raw "
              f"{', '.join(f'{t:.4f}' for _, t in setup)})")
    for line in lines[:-1]:
        print(line)
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, (unit, _) in defs.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

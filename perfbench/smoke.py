"""Smoke test of the benchmark itself, at toy sizes (about a minute).

    python3 perfbench/smoke.py

Checks that BENCHMARK.json lists exactly the metrics the code defines,
that every workload completes in both modes and prints exactly those
metric names with their units, that a deliberately wrong expected answer
is counted as a failed op, and that without the program's sources the
benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAIL: {message}")


def run(args: list, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def bench_matches_code(bench: dict) -> None:
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    check(e2e == metrics.END_TO_END, "end_to_end differs from metrics.py")
    check(layer == metrics.per_layer(), "per_layer differs from layers.json")
    check([w["name"] for w in bench["workloads"]] == list(workloads.NAMES),
          "workloads differ from workloads.NAMES")


def workloads_print_their_metrics(bench: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[key]}
        for name in workloads.NAMES:
            proc = run(["--workload", name, "--seed", "3", "--seconds", "0.2",
                        "--trace", str(trace), "--scale", "tiny"])
            check(proc.returncode == 0, f"{name} trace {trace}: {proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{name} trace {trace}: metric names or units")
            check(result["correct"] and result["attempted"] >= 1,
                  f"{name} trace {trace}: {result['correct']}, "
                  f"{result['attempted']} attempted")
            if trace == 1 and name != "obstruction-sweep":
                check(result["metrics"][
                    "obstructions.open_set_identity_sweep.calls"]["value"] == 0,
                      f"{name} ran the open-set sweep")
            print(f"smoke: {name} trace {trace} ok "
                  f"({result['failed']}/{result['attempted']} failed)")


def wrong_answer_is_counted() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import semitop.cli as cli
    ops = workloads.build_ops("query-mix", 3, "tiny")
    honest = workloads.Tally()
    workloads.run_pass(cli, ops, honest)
    target = next(op for op in ops if op["mix"] == "member-true")
    target["expect"] = dict(target["expect"], exit=1)   # deliberately wrong
    tally = workloads.Tally()
    workloads.run_pass(cli, ops, tally)
    check(tally.wrong == honest.wrong + 1 and tally.failed == honest.failed + 1,
          "a wrong expected answer was not counted as a failed op")
    print(f"smoke: wrong expected answer counted "
          f"(error_rate {honest.failed}/{honest.attempted} -> "
          f"{tally.failed}/{tally.attempted})")


def bare_directory_fails() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(["--workload", "query-mix", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without sources the benchmark must fail without a result")
    print("smoke: exits nonzero without the program's sources")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench_matches_code(bench)
    wrong_answer_is_counted()
    bare_directory_fails()
    workloads_print_their_metrics(bench)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

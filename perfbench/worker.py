"""Run one workload in this (fresh) process and print its raw results.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE SCALE

Untraced (TRACE=0): passes over the workload's ops repeat until SECONDS
have passed, stopping only between passes; the end-to-end metrics are
taken here.  Traced (TRACE=1): one untraced pass, then one traced pass of
the same ops; the per-layer metrics and the trace file come from the
traced pass, and their wall times give the tracing overhead.

Human-readable lines come first; the last line is one JSON object.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from math import ceil, floor
from pathlib import Path

import metrics
import speed
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent


def tail_percentile(samples: list) -> tuple:
    """(percentile, value): the highest percentile, up to 99, with at least
    ten samples beyond it (nearest rank); the maximum under 20 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    p = min(99, floor(100 * (1 - 10 / n)))
    if p < 50:
        return "max", ordered[-1]
    return f"p{p}", ordered[ceil(p / 100 * n) - 1]


def add_pass(passes: list, run: dict, tally: workloads.Tally) -> None:
    """Keep a pass; its op digests must equal the first pass's, and only
    the first pass keeps them."""
    if passes and run.pop("digests") != passes[0]["digests"]:
        tally.wrong += 1
        tally.examples["determinism"] = "op outputs differ between passes"
    passes.append(run)


def _op_intervals(run: dict) -> list:
    t = run["times"]
    return list(zip(t[::2], t[1::2]))


def _op_seconds(run: dict) -> list:
    return [t1 - t0 for t0, t1 in _op_intervals(run)]


def untraced(cli, ops, seconds: float, tally) -> tuple:
    """Passes until ``seconds`` have passed, stopping only between passes.

    Every op time is rescaled to the reference host speed (speed.py).
    verdict_s is the fastest pass, counting the time spent in ``cli.main``;
    the rescaling under-corrects in the host's slow phases, which the best
    pass avoids when the run sees a fast one.  An op's latency is its
    median over the passes, and the percentiles are over the distinct ops,
    so that they do not depend on how many passes fitted in the run.
    """
    passes = []
    with speed.SpeedSampler() as sampler:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            add_pass(passes, workloads.run_pass(cli, ops, tally), tally)
    rescaled = [[sampler.rescale(t0, t1) for t0, t1 in _op_intervals(p)]
                for p in passes]
    pass_s = [sum(r) for r in rescaled]
    raw_pass_s = [sum(_op_seconds(p)) for p in passes]
    per_op = [statistics.median(op_s) for op_s in zip(*rescaled)]
    tail_name, tail = tail_percentile(per_op)
    values = {
        "verdict_s": min(pass_s),
        "query_p50_ms": statistics.median(per_op) * 1000,
        "query_p99_ms": tail * 1000,
        "queries_per_s": len(ops) / min(pass_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    n = f"n={len(ops)} ops, each the median of {len(passes)} passes"
    lines = [
        f"host speed: reference loop {statistics.median(sampler.durations) * 1e3:.4f}"
        f" ms median over {len(sampler.durations)} samples, "
        f"{speed.REFERENCE_S * 1e3} ms at reference speed",
        f"verdict_s {values['verdict_s']:.4f} s (fastest of {len(passes)} "
        f"passes of {len(ops)} ops: {', '.join(f'{w:.3f}' for w in pass_s)}; "
        f"raw {', '.join(f'{w:.3f}' for w in raw_pass_s)})",
        f"query_p50_ms {values['query_p50_ms']:.4f} ms ({n})",
        f"query_p99_ms {values['query_p99_ms']:.4f} ms ({tail_name}, {n})",
        f"queries_per_s {values['queries_per_s']:.4f} 1/s (fastest pass of "
        f"{len(ops)} ops, one client, closed loop)",
        f"peak_rss_mb {values['peak_rss_mb']:.2f} MB (ru_maxrss)",
    ]
    return values, lines, passes


def _sweep_witness(reports: list) -> dict:
    for report in reports:
        for check in report["checks"]:
            if check["id"] == "open-set-identity-sweep":
                return check["witness"] or {}
    return {}


def traced(cli, ops, workload: str, seed: int, tally) -> tuple:
    import semitop.suites
    passes = []
    tracer = Tracer()

    def set_op(i):
        tracer.op = i
    # Both passes are timed at reference speed for the overhead ratio; the
    # sampler's own time inside spans adds about 1.5% to the self times.
    with speed.SpeedSampler() as sampler:
        add_pass(passes, workloads.run_pass(cli, ops, tally), tally)
        for layer in metrics.LAYERS:
            for qualname, kinds in layer["spans"].items():
                tracer.install(layer["layer"], qualname,
                               metrics.span_name(layer["layer"], qualname),
                               span="self_s" in kinds)
        tracer.install_check_spans(semitop.suites)
        try:
            add_pass(passes, workloads.run_pass(cli, ops, tally,
                                                before_op=set_op), tally)
        finally:
            tracer.uninstall()
    plain, run = passes

    values = {}
    for name in metrics.per_layer():
        base, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s"):
            calls, self_s, _ = tracer.stats(base)
            values[name] = calls if kind == "calls" else self_s
        elif name.startswith("suites.check."):
            values[name] = tracer.stats(base)[2]
    sweep = _sweep_witness(run["reports"])
    specs = sweep.get("specs_checked", 0)
    values["obstructions.universe"] = sweep.get("universe", 0)
    values["obstructions.specs_checked"] = specs
    values["obstructions.cross_checked"] = sweep.get("cross_checked", 0)
    values["obstructions.cross_check_ratio"] = (
        sweep.get("cross_checked", 0) / specs if specs else 0.0)
    values["jsonio.report_bytes"] = run["bytes"]
    for command in ("member", "converge", "distinguish", "waptest"):
        lat = [x for op, x in zip(ops, _op_seconds(run))
               if op["kind"] == command]
        values[f"cli.{command}.p50_ms"] = (statistics.median(lat) * 1000
                                           if lat else 0.0)
    check_totals = [tracer.stats(n)[2]
                    for n in tracer.names_with_prefix("suites.check.")]
    values["suites.check_max_s"] = max(check_totals, default=0.0)
    traced_s, plain_s = sum(_op_seconds(run)), sum(_op_seconds(plain))
    values["trace.overhead_ratio"] = (
        sum(sampler.rescale(*op) for op in _op_intervals(run))
        / sum(sampler.rescale(*op) for op in _op_intervals(plain)))

    lines = [f"traced pass {traced_s:.3f} s, untraced pass "
             f"{plain_s:.3f} s (raw), trace.overhead_ratio "
             f"{values['trace.overhead_ratio']:.3f} (at reference speed)"]
    if tracer.missing:
        lines.append(f"not found in the program, read as 0: {tracer.missing}")
    for layer in metrics.LAYERS:
        prefix = layer["layer"] + "."
        share = sum(tracer.stats(n)[1]
                    for n in tracer.names_with_prefix(prefix)) / traced_s
        lines.append(f"self-time share of traced time, {layer['layer']}: "
                     f"{share:.3f}")
    top = sorted(tracer.names, key=lambda n: -tracer.stats(n)[1])[:8]
    lines += [f"  {n}: self {tracer.stats(n)[1]:.3f} s, "
              f"{tracer.stats(n)[0]} calls" for n in top]

    path = ROOT / ".perfbench" / f"trace-{workload}-seed{seed}.json"
    tracer.write(path, {"workload": workload, "seed": seed,
                        "traced_s": traced_s, "untraced_s": plain_s,
                        "ops": [op["argv"][:2] for op in ops]})
    lines.append(f"trace written to {path.relative_to(ROOT)}")
    return values, lines, passes


def main(argv: list) -> int:
    workload, seed, seconds, trace, scale = argv
    sys.path.insert(0, str(ROOT / "src"))
    import semitop.cli as cli
    ops = workloads.build_ops(workload, int(seed), scale)
    tally = workloads.Tally()
    if trace == "1":
        values, lines, passes = traced(cli, ops, workload, int(seed), tally)
    else:
        values, lines, passes = untraced(cli, ops, float(seconds), tally)
    first = passes[0]["digests"]
    for op, d in zip(ops, first):
        if op["kind"] == "suite":
            lines.append(f"digest {op['argv'][1]} {d}")
    lines.append(f"digest of all op outputs, timing stripped: "
                 f"{workloads.digest(0, json.dumps(first))}")
    escaped = ", ".join(f"{k} x{v}" for k, v in sorted(tally.escaped.items()))
    lines.append(f"error_rate {tally.failed}/{tally.attempted} = "
                 f"{tally.failed / tally.attempted:.4f} (escaped: "
                 f"{escaped or 'none'}; wrong answers: {tally.wrong})")
    lines += [f"  failed op: {e}" for e in tally.examples.values()]
    for line in lines:
        print(line)
    print(json.dumps({"correct": tally.wrong == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

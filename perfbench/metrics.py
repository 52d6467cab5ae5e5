"""Metric names, units and better directions, in one place.

End-to-end metrics come from untraced runs; per-layer metrics from the
traced run, as defined by ``layers.json``.  ``BENCHMARK.json`` lists the
same names; the smoke test checks that the two agree.
"""

from __future__ import annotations

import json
from pathlib import Path

LAYERS = json.loads((Path(__file__).parent / "layers.json").read_text())["layers"]

# An op is one cli.main call: a suite on the batch workloads, a query on
# query-mix.
END_TO_END = {
    "setup_s": ("s", "lower"),          # fresh process: import semitop.cli
    "verdict_s": ("s", "lower"),        # one pass over the workload's ops
    "query_p50_ms": ("ms", "lower"),    # median op latency
    "query_p99_ms": ("ms", "lower"),    # highest percentile with >= 10 beyond
    "queries_per_s": ("1/s", "higher"),  # closed loop, one client
    "peak_rss_mb": ("MB", "lower"),     # ru_maxrss of the workload process
}

_DERIVED_UNITS = {
    "obstructions.universe": ("count", "higher"),
    "obstructions.specs_checked": ("count", "higher"),
    "obstructions.cross_checked": ("count", "higher"),
    "obstructions.cross_check_ratio": ("ratio", "higher"),
    "jsonio.report_bytes": ("bytes", "lower"),
    "suites.check_max_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def span_name(layer: str, qualname: str) -> str:
    return f"{layer}.{qualname.replace('.__init__', '.init')}"


def per_layer() -> dict:
    """Every per-layer metric name, in order, with (unit, better)."""
    out = {}
    for layer in LAYERS:
        for qualname, kinds in layer["spans"].items():
            name = span_name(layer["layer"], qualname)
            for kind in kinds:
                out[f"{name}.{kind}"] = ("count" if kind == "calls" else "s",
                                         "lower")
        for check in layer.get("checks", ()):
            out[f"suites.check.{check}.s"] = ("s", "lower")
        for name in layer["derived"]:
            out[name] = (("ms", "lower") if name.endswith(".p50_ms")
                         else _DERIVED_UNITS[name])
    return out

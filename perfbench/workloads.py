"""The three workloads: their ops, how an op goes through ``cli.main``,
and how each output is checked against its known answer.

An op is one ``cli.main`` call: a whole suite on the batch workloads, a
single query on query-mix.  One pass runs a workload's ops once, in order.

* obstruction-sweep: the complete open-set sweep universe at
  max_domain=4, max_value=6 (1045 maps, 2248 specs).  The obstructions
  layer and PartialMap do nearly all the work.
* suite-battery: the ten other suites at default params, without
  ``--jobs``, so it measures whatever default the program picks.  dyadic,
  topologies, l1 and wap do the work; obstructions does none.
* query-mix: seeded single queries with cold topology caches, so the
  cli/jsonio parsing and emission are a large share of each op.

The batch workloads do not depend on the seed, which makes their report
digests comparable across seeds; query-mix draws its queries from it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from array import array
from math import comb, perm

import querygen

NAMES = ("obstruction-sweep", "suite-battery", "query-mix")

_SWEEP_PARAMS = {"full": {"max_domain": 4, "max_value": 6},
                 "tiny": {"max_domain": 3, "max_value": 4,
                          "fnp_trials": 10, "n_max": 5}}
# cross_checked of the sweep when the benchmark was written; a later
# version may check more specs literally, never fewer.
_CROSS_CHECKED_FLOOR = {(4, 6): 743, (3, 4): 96}
_BATTERY = {"full": ("lemma-technical", "gen-con-one", "gen-con-two",
                     "star-condition", "remark4-continuum", "good-corr",
                     "nmax-wap", "unique-l1s", "rees-cancellativity",
                     "structural"),
            "tiny": ("star-condition", "good-corr")}
_QUERIES_PER_PASS = {"full": 1000, "tiny": 40}


def sweep_expectation(max_domain: int, max_value: int) -> dict:
    """Universe and spec counts the sweep params imply.

    The universe holds every injective partial map with domain in
    {1..max_domain} and values in {1..max_value}; each map f gets one
    spec per subset F' of the points outside its domain.
    """
    by_size = [comb(max_domain, k) * perm(max_value, k)
               for k in range(max_domain + 1)]
    return {"universe": sum(by_size),
            "specs_checked": sum(n * 2 ** (max_domain - k)
                                 for k, n in enumerate(by_size)),
            "cross_checked_min": _CROSS_CHECKED_FLOOR.get(
                (max_domain, max_value), 1)}


def _suite_op(name: str, params: dict = None, sweep: dict = None) -> dict:
    argv = ["--suite", name]
    if params:
        argv += ["--params", json.dumps(params)]
    expect = {"exit": 0, "suite": name}
    if sweep:
        expect["sweep"] = sweep
    return {"kind": "suite", "argv": argv, "expect": expect}


def build_ops(workload: str, seed: int, scale: str = "full") -> list:
    if workload == "obstruction-sweep":
        params = _SWEEP_PARAMS[scale]
        return [_suite_op("section4-no-predual", params, sweep_expectation(
            params["max_domain"], params["max_value"]))]
    if workload == "suite-battery":
        return [_suite_op(name) for name in _BATTERY[scale]]
    if workload == "query-mix":
        return querygen.generate(seed, _QUERIES_PER_PASS[scale])
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# checking outputs


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items()
                if k not in ("elapsed_ms", "timing")}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def digest(code, text: str) -> str:
    """Hash of an exit code and its output with timing fields removed."""
    try:
        canon = json.dumps(_strip_timing(json.loads(text)), sort_keys=True)
    except ValueError:
        canon = text
    return hashlib.sha256(f"{code}\n{canon}".encode()).hexdigest()[:16]


def _check_report(report: dict, expect: dict) -> str:
    if report.get("suite") != expect["suite"]:
        return f"report is for suite {report.get('suite')!r}"
    bad = [c["id"] for c in report["checks"] if c["status"] != "PASS"]
    if bad or report.get("overall") != "PASS":
        return f"checks not PASS: {bad}"
    sweep = expect.get("sweep")
    if sweep:
        w = next((c["witness"] for c in report["checks"]
                  if c["id"] == "open-set-identity-sweep"), None) or {}
        for key in ("universe", "specs_checked"):
            if w.get(key) != sweep[key]:
                return f"sweep {key} = {w.get(key)}, params imply {sweep[key]}"
        if not w.get("cross_checked", 0) >= sweep["cross_checked_min"]:
            return (f"sweep cross_checked = {w.get('cross_checked')}, below "
                    f"{sweep['cross_checked_min']}")
    return ""


def verdict_error(op: dict, code, text: str) -> str:
    """Why the output of a returned op breaks its known answer, or ''."""
    expect = op["expect"]
    if code != expect["exit"]:
        return f"exit code {code}, expected {expect['exit']}"
    if expect["exit"] == 3:
        return ""
    try:
        payload = json.loads(text)
    except ValueError:
        return "output is not JSON"
    if op["kind"] == "suite":
        return _check_report(payload, expect)
    if "status" in expect and payload.get("status") != expect["status"]:
        return f"status {payload.get('status')!r}, expected {expect['status']!r}"
    if "indices" in expect and payload.get("indices") != expect["indices"]:
        return f"indices {payload.get('indices')}, expected {expect['indices']}"
    if "limit" in expect and payload.get("limit") != expect["limit"]:
        return f"limit {payload.get('limit')}, expected {expect['limit']}"
    if "symmetric_difference" in expect:
        got = (payload.get("witness") or {}).get("symmetric_difference")
        if got != expect["symmetric_difference"]:
            return (f"symmetric difference {got}, expected "
                    f"{expect['symmetric_difference']}")
    return ""


class Tally:
    """Ops attempted and failed, split into escapes and wrong answers.

    An op fails when an exception escapes ``cli.main``, or when its exit
    code or verdict differs from the known answer (a wrong answer).
    """

    def __init__(self):
        self.attempted = 0
        self.escaped: dict = {}
        self.wrong = 0
        self.examples: dict = {}

    @property
    def failed(self) -> int:
        return sum(self.escaped.values()) + self.wrong

    def note(self, op: dict, message: str) -> None:
        """Keep the first failure of each kind of op as an example."""
        kind = op.get("mix", op["kind"])
        self.examples.setdefault(
            kind, f"{kind} {' '.join(op['argv'])[:100]}: {message}")


def call(cli, argv: list) -> tuple:
    """One ``cli.main`` call: (exit code, stdout text, escaped exception)."""
    out = io.StringIO()
    code, exc = None, None
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as stop:          # argparse reports usage this way
        code = stop.code
    except Exception as escaped:        # counted as a failed op
        exc = escaped
    return code, out.getvalue(), exc


def run_pass(cli, ops: list, tally: Tally, before_op=None) -> dict:
    """Run every op once, in order, checking each output.

    ``times`` holds the start and end clock readings around each
    ``cli.main`` call, flat.
    """
    times, digests, reports = array("d"), [], []
    emitted = 0
    clock = time.perf_counter
    for i, op in enumerate(ops):
        if before_op is not None:
            before_op(i)
        t0 = clock()
        code, text, exc = call(cli, op["argv"])
        times.extend((t0, clock()))
        tally.attempted += 1
        if exc is not None:
            name = type(exc).__name__
            tally.escaped[name] = tally.escaped.get(name, 0) + 1
            tally.note(op, f"{name} escaped cli.main: {exc}")
            digests.append(digest("escaped", name))
        else:
            error = verdict_error(op, code, text)
            if error:
                tally.wrong += 1
                tally.note(op, error)
            digests.append(digest(code, text))
        emitted += len(text.encode())
        if op["kind"] == "suite" and code == 0 and exc is None:
            reports.append(json.loads(text))
    return {"times": times, "digests": digests, "bytes": emitted,
            "reports": reports}

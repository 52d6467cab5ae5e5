"""Command line front end.

Two modes share one executable:

* ``semitop --suite NAME [--params JSON] [--out PATH]`` runs a
  registered suite and writes its report as JSON; the report depends on
  the params alone, so a suite takes no ``--seed``.
* ``semitop member|converge|distinguish|waptest --params JSON`` answers a
  single query described by the params payload; ``waptest`` alone takes
  ``--seed N``, the seed of its default pairs.

Exit codes follow the status of the one `Verdict` type: 0 for PASS or
NOT_APPLICABLE, 1 for FAIL, 2 for UNDETERMINED at the given horizon, 3 for
usage errors such as an unknown suite, an undeclared or missing key at any
depth of the params (a key the weights' kind or the function's tag does
not use is undeclared), malformed JSON, a parameter
that is not an integer in its declared range, a decimal string of too many
digits, a point or sequence term that is not a point of Z+ x S for the
topology's base, ``--seed`` given with ``--suite`` or with a command other
than waptest, or an ``--out`` path that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio, topologies
from .jsonio import (MAX_INDEX_BOUND, REQUIRED, SuiteError, array_of,
                     pair_of)
from .suites import SUITE_PARAMS, SUITES, run_suite
from .verdicts import FAIL, NOT_APPLICABLE, PASS, UNDETERMINED
from .wap import subsequence_pair_family, wap_test

_EXIT_OK = 0
_EXIT_FAIL = 1
_EXIT_UNDETERMINED = 2
_EXIT_USAGE = 3

_STATUS_EXIT = {PASS: _EXIT_OK, NOT_APPLICABLE: _EXIT_OK, FAIL: _EXIT_FAIL,
                UNDETERMINED: _EXIT_UNDETERMINED}

# How three commands name their answers in the payload's status; a status
# without a name is written as it is.
_MEMBER_STATUS = {PASS: True, FAIL: False, UNDETERMINED: None}
_DISTINGUISH_STATUS = {PASS: "DISTINCT"}
_WAPTEST_STATUS = {PASS: "WAP-consistent", FAIL: "NOT-WAP"}


class _HelpFormatter(argparse.HelpFormatter):
    """Wraps help at spaces only, so no suite name splits at a hyphen."""

    def _split_lines(self, text, width):
        import textwrap     # only --help needs it, as in argparse itself
        text = self._whitespace_matcher.sub(" ", text).strip()
        return textwrap.wrap(text, width, break_on_hyphens=False)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _answer(res, names: dict) -> tuple:
    """The verdict's payload with its status named as in ``names``."""
    payload = jsonio.to_jsonable(res)
    payload["status"] = names.get(res.status, res.status)
    return payload, _STATUS_EXIT[res.status]


def _member(params: dict) -> tuple:
    res = params["topology"].member(params["nbhd"], params["point"])
    payload = {"status": _MEMBER_STATUS[res.status],
               "indices": list(res.witness or ()), "reason": res.detail}
    return payload, _STATUS_EXIT[res.status]


def _converge(params: dict) -> tuple:
    T, seq, limit = params["topology"], params["sequence"], params["limit"]
    alpha_max = params["alpha_max"]
    res = (topologies.find_limit(T, seq, alpha_max) if limit is None
           else topologies.check_convergence(T, seq, limit, alpha_max))
    if not res:
        return jsonio.to_jsonable(res), _STATUS_EXIT[res.status]
    cert = jsonio.certificate_to_json(res.witness)
    found = {"limit": cert["limit"]} if limit is None else {}
    return {"status": PASS, **found, "certificate": cert}, _EXIT_OK


def _distinguish(params: dict) -> tuple:
    weights = params["weights"]
    horizon = params["horizon"] or weights.index_bound
    res = topologies.distinguish_topologies(weights, params["mask1"],
                                            params["mask2"], horizon)
    return _answer(res, _DISTINGUISH_STATUS)


def _waptest(params: dict, seed: int) -> tuple:
    count, horizon, pairs = params["count"], params["horizon"], params["pairs"]
    if pairs is not None:
        if count is not None or horizon is not None:
            raise SuiteError("'pairs' takes no 'count' or 'horizon'")
    else:   # by default 20 seeded pairs over the first 200 indices, each
        # drawn only if the test reads it
        pairs = subsequence_pair_family(count or 20, horizon or 200, seed=seed)
    return _answer(wap_test(params["function"], pairs), _WAPTEST_STATUS)


def _like(suite: str, key: str, default) -> tuple:
    """A query key bounded like the same quantity in a suite."""
    _, lo, hi = SUITE_PARAMS[suite][key]
    return default, lo, hi


def _array_like(suite: str, key: str, reader):
    """A query array as long as a suite's count of the same things."""
    _, lo, hi = SUITE_PARAMS[suite][key]
    return array_of(reader, lo, hi)


# The most terms a converge query takes; the suites build prefixes of at
# most 14 terms (gen-con-two and good-corr at their top index bound).
_MAX_TERMS = 16


# Each command with its top-level keys, declared as for jsonio.read_params.
_COMMANDS = {
    "member": (_member, {"topology": (REQUIRED, jsonio.topology_from_json),
                         "nbhd": (REQUIRED, jsonio.nbhd_from_json),
                         "point": (REQUIRED, jsonio.s1_point_from_json)}),
    "converge": (_converge, {
        "topology": (REQUIRED, jsonio.topology_from_json),
        "sequence": (REQUIRED, array_of(jsonio.s1_point_from_json, 1,
                                        _MAX_TERMS)),
        "limit": (None, jsonio.s1_point_from_json),
        "alpha_max": _like("gen-con-two", "alpha_max", 3)}),
    "distinguish": (_distinguish, {
        "weights": (REQUIRED, jsonio.weights_from_json),
        "mask1": (REQUIRED, jsonio.read_mask),
        "mask2": (REQUIRED, jsonio.read_mask),
        "horizon": (None, 1, MAX_INDEX_BOUND)}),
    "waptest": (_waptest, {
        "function": (REQUIRED, jsonio.bounded_function_from_json),
        "pairs": (None, _array_like(
            "nmax-wap", "pairs", pair_of(jsonio.limit_functional_from_json))),
        "horizon": _like("nmax-wap", "horizon", None),
        "count": _like("nmax-wap", "pairs", None)}),
}

# Built once at import: parse_args keeps no state between calls, and error
# and --help write to the sys.stderr and sys.stdout of the call.
_PARSER = _Parser(prog="semitop", formatter_class=_HelpFormatter,
                  description="verification suites and single queries for "
                              "semigroup convolution algebras")
_PARSER.add_argument("command", nargs="?", choices=sorted(_COMMANDS),
                     help="single-query mode; omit to run a suite")
_PARSER.add_argument("--suite", metavar="NAME",
                     help="suite to run; one of " + ", ".join(sorted(SUITES)))
_PARSER.add_argument("--params", metavar="JSON", default="{}",
                     help="JSON object with suite or query parameters")
_PARSER.add_argument("--seed", type=int,
                     help="seed of waptest's default pairs (default 0); "
                          "waptest only")
_PARSER.add_argument("--out", metavar="PATH",
                     help="write the JSON report here instead of stdout")


def _emit(payload: dict, out_path, code: int) -> int:
    """Write the payload and return ``code``, or the usage exit code when
    ``out_path`` cannot be written."""
    text = json.dumps(payload, indent=2)
    if not out_path:
        print(text)
        return code
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        print(f"semitop: error: cannot write {out_path}: {exc.strerror}",
              file=sys.stderr)
        return _EXIT_USAGE
    return code


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    if (args.command is None) == (args.suite is None):
        _PARSER.error("exactly one of a command or --suite is required")
    if args.seed is not None and args.command != "waptest":
        _PARSER.error(f"{args.command or 'a suite'} takes no --seed; only "
                      "waptest reads one, for its default pairs")
    try:
        params = json.loads(args.params)
    except ValueError as exc:
        print(f"semitop: error: {exc}", file=sys.stderr)
        return _EXIT_USAGE

    if args.command is not None:
        handler, keys = _COMMANDS[args.command]
        seeded = {"seed": args.seed or 0} if args.command == "waptest" else {}
        try:
            result, code = handler(jsonio.read_params(params, keys), **seeded)
        except (TypeError, ValueError) as exc:
            print(f"semitop: error: bad query parameters: {exc}",
                  file=sys.stderr)
            return _EXIT_USAGE
        payload = {"schema_version": jsonio.SCHEMA_VERSION,
                   "command": args.command, **seeded}
        payload.update(result)
        return _emit(payload, args.out, code)

    try:
        report = run_suite(args.suite, params)
    except SuiteError as exc:
        print(f"semitop: error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    return _emit(report, args.out, _STATUS_EXIT[report["overall"]])


if __name__ == "__main__":
    sys.exit(main())

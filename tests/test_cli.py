import argparse
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from semitop import cli, jsonio, suites, topologies, verdicts, wap
from semitop.cli import main
from semitop.jsonio import MAX_INDEX_BOUND, SuiteError, read_params
from semitop.suites import SUITE_PARAMS, SUITES, run_suite

SRC = Path(__file__).resolve().parents[1] / "src"

Z_TOP = {"base": "z", "weights": {"kind": "double_exp", "index_bound": 6}}
ODD_TOP = {"base": "odd_nat", "weights": {"kind": "odd_primes", "index_bound": 6}}


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:       # argparse-level usage errors
        code = exc.code
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_member_true(capsys):
    params = {"topology": Z_TOP, "nbhd": {"a": 2, "s": 0, "alpha": 3},
              "point": {"a": 1, "s": 256}}
    code, doc = run(capsys, "member", "--params", json.dumps(params))
    assert code == 0
    assert doc["status"] is True
    assert doc["indices"] == [3]
    assert doc["schema_version"] == "1"


def test_member_false(capsys):
    params = {"topology": Z_TOP, "nbhd": {"a": 2, "s": 0, "alpha": 3},
              "point": {"a": 1, "s": 4}}   # w_1 sits below the alpha floor
    code, doc = run(capsys, "member", "--params", json.dumps(params))
    assert code == 1
    assert doc["status"] is False


def test_member_undetermined(capsys):
    top = {"base": "odd_nat", "weights": {"kind": "odd_primes", "index_bound": 2}}
    params = {"topology": top, "nbhd": {"a": 1, "s": 1, "alpha": 1},
              "point": {"a": 0, "s": 19}}  # 19 needs primes past the bound
    code, doc = run(capsys, "member", "--params", json.dumps(params))
    assert code == 2
    assert doc["status"] is None


def test_converge_with_limit(capsys):
    seq = [{"a": 1, "s": 2 ** (2 ** j)} for j in range(2, 7)]
    params = {"topology": Z_TOP, "sequence": seq, "limit": {"a": 2, "s": 0},
              "alpha_max": 3}
    code, doc = run(capsys, "converge", "--params", json.dumps(params))
    assert code == 0
    assert doc["status"] == "PASS"
    assert doc["certificate"]["thresholds"]["1"] == 1


def test_converge_find_limit(capsys):
    seq = [{"a": 1, "s": 2 ** (2 ** j)} for j in range(2, 7)]
    params = {"topology": Z_TOP, "sequence": seq}
    code, doc = run(capsys, "converge", "--params", json.dumps(params))
    assert code == 0
    assert doc["limit"] == {"a": 2, "s": 0}


def test_converge_not_found_has_the_verdict_shape(capsys):
    seq = [{"a": 0, "s": 0}] * 5 + [{"a": 0, "s": 1000}]
    params = {"topology": Z_TOP, "sequence": seq}
    code, doc = run(capsys, "converge", "--params", json.dumps(params))
    assert code == 2
    assert doc == {"schema_version": "1", "command": "converge", "seed": 0,
                   "status": "UNDETERMINED", "witness": None,
                   "detail": "no limit found among the unshift candidates"}


def test_converge_divergent(capsys):
    params = {"topology": Z_TOP, "sequence": [{"a": 1, "s": 3}] * 4,
              "limit": {"a": 2, "s": 0}, "alpha_max": 2}
    code, doc = run(capsys, "converge", "--params", json.dumps(params))
    assert code == 1
    assert doc["status"] == "FAIL"


def test_distinguish(capsys):
    params = {"weights": {"kind": "double_exp", "index_bound": 8},
              "mask1": [1, 2, 3, 4], "mask2": [1, 2, 5, 6], "horizon": 8}
    code, doc = run(capsys, "distinguish", "--params", json.dumps(params))
    assert code == 0
    assert doc["status"] == "DISTINCT"


def test_waptest_consistent(capsys):
    params = {"function": {"tag": "c0_plus_const", "const": "2",
                           "mod": [{"elem": 3, "value": "1/2"}]},
              "count": 5, "horizon": 100}
    code, doc = run(capsys, "waptest", "--params", json.dumps(params))
    assert code == 0
    assert doc["status"] == "WAP-consistent"


def test_waptest_not_wap(capsys):
    values = ["1" if n % 2 == 0 else "0" for n in range(1, 201)]
    params = {"function": {"tag": "sampled", "values": values}}
    code, doc = run(capsys, "waptest", "--params", json.dumps(params))
    assert code == 1
    assert doc["status"] == "NOT-WAP"
    assert doc["witness"]["box"] == "0"
    assert doc["witness"]["diamond"] == "1"


def test_waptest_draws_only_the_pairs_it_reads(monkeypatch, capsys):
    # the evens indicator fails on the leading evens/odds pair, so the
    # default family builds that pair alone; a finitely modified constant
    # agrees on every pair and reads all 20
    arithmetic = wap.LimitFunctional.arithmetic
    calls = 0

    def counted(cls, *args):
        nonlocal calls
        calls += 1
        return arithmetic(*args)

    monkeypatch.setattr(wap.LimitFunctional, "arithmetic", classmethod(counted))
    values = [1 - n % 2 for n in range(1, 201)]
    params = {"function": {"tag": "sampled", "values": values}}
    code, doc = run(capsys, "waptest", "--params", json.dumps(params))
    assert (code, doc["status"]) == (1, "NOT-WAP")
    assert calls <= 2
    params = {"function": {"tag": "c0_plus_const", "const": "1/3"}}
    code, doc = run(capsys, "waptest", "--params", json.dumps(params))
    assert (code, doc["status"]) == (0, "WAP-consistent")
    assert doc["witness"] == {"pairs": 20, "determined": 20}


def test_waptest_short_sample_default_horizon(capsys):
    # a 40-point sample against the default 200-point pair family must
    # still produce a JSON verdict rather than an evaluation error
    values = ["1" if n % 2 == 0 else "0" for n in range(1, 41)]
    params = {"function": {"tag": "sampled", "values": values}}
    code, doc = run(capsys, "waptest", "--params", json.dumps(params))
    assert code == 1
    assert doc["status"] == "NOT-WAP"


def test_waptest_pairs_with_different_horizons_are_undetermined(capsys):
    # the iteration reads f up to the shorter horizon only, so it sees the
    # zeros while the plain limit along the longer subsequence sees the ones
    values = ["0"] * 100 + ["1"] * 100
    pair = [{"along": [1, 2, 3, 4], "horizon": 4},
            {"along": list(range(1, 201)), "horizon": 200}]
    params = {"function": {"tag": "sampled", "values": values},
              "pairs": [pair]}
    code, doc = run(capsys, "waptest", "--params", json.dumps(params))
    assert code == 2
    assert doc["status"] == "UNDETERMINED"


# distinguish names PASS "DISTINCT", and waptest names PASS "WAP-consistent"
# and FAIL "NOT-WAP".  One payload per answer, pinned byte for byte with its
# exit code.
_PAIR = [[{"along": [2, 4, 6, 8], "horizon": 8},
          {"along": [1, 3, 5, 7], "horizon": 8}]]
PINNED_ANSWERS = [
    ("distinguish", {"weights": {"kind": "double_exp", "index_bound": 6},
                     "mask1": [1, 2, 3], "mask2": [1, 2, 5], "horizon": 6},
     0, {"status": "DISTINCT",
         "witness": {"symmetric_difference": [3, 5], "strong": True,
                     "witnesses": [
                         {"index": 3, "point": [0, 256], "member_of": "mask1"},
                         {"index": 5, "point": [0, 4294967296],
                          "member_of": "mask2"}]},
         "detail": "2 separating indices within horizon 6"}),
    ("distinguish", {"weights": {"kind": "double_exp", "index_bound": 6},
                     "mask1": [1, 2, 3], "mask2": [1, 2, 3, 6], "horizon": 5},
     2, {"status": "UNDETERMINED", "witness": None,
         "detail": "masks agree within the horizon"}),
    ("waptest", {"function": {"tag": "c0_plus_const", "const": "1/2",
                              "mod": [{"elem": 3, "value": "2"}]},
                 "count": 2, "horizon": 20},
     0, {"status": "WAP-consistent", "witness": {"pairs": 2, "determined": 2},
         "detail": "membership certified: vanishing part plus a constant"}),
    ("waptest", {"function": {"tag": "sampled", "values": ["0", "1"] * 4},
                 "pairs": _PAIR},
     1, {"status": "NOT-WAP",
         "witness": {"omega": {"along": [2, 4, 6, 8], "horizon": 8},
                     "upsilon": {"along": [1, 3, 5, 7], "horizon": 8},
                     "box": "0", "diamond": "1"},
         "detail": "iterated limits disagree exactly"}),
    ("waptest", {"function": {"tag": "sampled",
                              "values": [str(n) for n in range(1, 9)]},
                 "pairs": _PAIR},
     2, {"status": "UNDETERMINED", "witness": None,
         "detail": "no pair stabilized"}),
]


@pytest.mark.parametrize("command,params,code,answer", PINNED_ANSWERS,
                         ids=lambda v: v if isinstance(v, str) else "")
def test_named_answers_are_pinned(command, params, code, answer, capsys):
    assert main([command, "--params", json.dumps(params)]) == code
    head = {"schema_version": "1", "command": command, "seed": 0}
    assert capsys.readouterr().out == json.dumps({**head, **answer},
                                                 indent=2) + "\n"


def test_suite_run_and_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--suite", "star-condition", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["suite"] == "star-condition"
    assert "seed" not in doc
    assert doc["overall"] == "PASS"
    assert {c["id"] for c in doc["checks"]} >= {"star-double-exp",
                                                "star-negative-control"}


@pytest.mark.parametrize("argv", [
    ["--suite", "star-condition"],
    ["waptest", "--params", '{"function": {"tag": "c0_plus_const"}}'],
])
def test_out_path_that_cannot_be_written(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    code = main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and str(out) in captured.err
    assert not out.parent.exists()


def test_associativity_failure_keeps_its_witness(monkeypatch):
    # every instance is associative, so a failing window is faked
    monkeypatch.setattr(suites, "associativity_window", lambda S, rank:
                        verdicts.failed(witness=(1, 2, 3), detail="broke"))
    check = run_suite("structural", {})["checks"][-1]
    assert (check["id"], check["status"], check["detail"]) == (
        "associativity-windows", "FAIL", "broke")
    assert check["witness"] == {"instance": "zplus_2", "inner": [1, 2, 3]}


@pytest.mark.parametrize("fake", [
    verdicts.failed(witness={"box": 1, "diamond": 0}, detail="faked"),
    verdicts.undetermined("faked")])
def test_a_wrong_inner_verdict_is_nested_whole(fake, monkeypatch):
    # each of these checks nests the verdict it rejects under "inner"
    monkeypatch.setattr(suites, "wap_test", lambda f, pairs: fake)
    monkeypatch.setattr(topologies, "good_corr_check",
                        lambda topology, s, seq: fake)
    inner = {"status": fake.status, "witness": fake.witness,
             "detail": "faked"}
    for suite, cids in (("nmax-wap", ("wap-random-family",
                                      "wap-indicator-evens")),
                        ("good-corr", ("one-point-found",
                                       "one-point-constant"))):
        checks = {c["id"]: c for c in run_suite(suite)["checks"]}
        for cid in cids:
            assert checks[cid]["status"] == "FAIL", cid
            assert checks[cid]["witness"]["inner"] == inner, cid


@pytest.mark.parametrize("status,code,overall", [
    (verdicts.NOT_APPLICABLE, 1, "FAIL"),
    ("MADE-UP", 1, "FAIL")])
def test_relayed_status_never_reads_as_pass(status, code, overall,
                                            monkeypatch, capsys):
    # discrete-found expects PASS and relays any other inner verdict
    real = topologies.good_corr_check

    def fake(topology, s, seq):
        if isinstance(topology, topologies.DiscreteTopology) and s == 5:
            return verdicts.Verdict(status, detail="faked")
        return real(topology, s, seq)

    monkeypatch.setattr(topologies, "good_corr_check", fake)
    got, doc = run(capsys, "--suite", "good-corr")
    assert (got, doc["overall"]) == (code, overall)
    check = next(c for c in doc["checks"] if c["id"] == "discrete-found")
    assert (check["status"], check["detail"]) == (
        overall, f"inner verdict is {status}: faked")


@pytest.mark.parametrize("statuses", [
    (verdicts.NOT_APPLICABLE,), ("MADE-UP",),
    (verdicts.NOT_APPLICABLE, "MADE-UP"), (verdicts.UNDETERMINED, "MADE-UP")])
def test_a_status_outside_the_suite_contract_reads_as_fail(statuses,
                                                           monkeypatch, capsys):
    # a check reports PASS, FAIL or UNDETERMINED; anything else that reaches
    # the report is a broken check, never a pass
    checks = [(f"check-{i}", lambda s=s: verdicts.Verdict(s, detail="faked"))
              for i, s in enumerate(statuses)]
    monkeypatch.setitem(suites.SUITES, "star-condition", lambda p, _: checks)
    got, doc = run(capsys, "--suite", "star-condition")
    assert (got, doc["overall"]) == (1, "FAIL")
    assert [c["status"] for c in doc["checks"]] == list(statuses)


def test_suite_with_params(capsys):
    code, doc = run(capsys, "--suite", "remark4-continuum",
                    "--params", '{"masks": 4, "horizon": 10}')
    assert code == 0
    pairwise = next(c for c in doc["checks"]
                    if c["id"] == "mask-family-pairwise-distinct")
    assert pairwise["witness"]["pairs_distinct"] == 6


@pytest.mark.parametrize("argv", [
    ["--suite", "no-such-suite"],
    ["--suite", "star-condition", "--params", "{not json"],
    ["--suite", "star-condition", "--params", "[1,2]"],
    ["--suite", "star-condition", "--params", '{"double_exp_bound": 99}'],
    ["member", "--suite", "star-condition"],     # both modes
    [],                                          # neither mode
    ["member", "--params", '{"topology": {"base": "z"}}'],  # missing keys
    ["--suite", "gen-con-two", "--params", '{"cases": "abc"}'],  # not an int
    ["--suite", "star-condition", "--jobs", "2"],  # the flag is gone
    ["member", "--params", json.dumps({       # 3 = 1 + 2: ambiguous weights
        "topology": {"base": "z",
                     "weights": {"kind": "explicit", "values": [1, 2, 3]}},
        "nbhd": {"a": 2, "s": 0, "alpha": 1}, "point": {"a": 1, "s": 3}})],
    ["waptest", "--params",                   # zero denominator
     '{"function": {"tag": "c0_plus_const", "const": "1/0"}}'],
    ["converge", "--params", json.dumps({     # a float is not truncated
        "topology": Z_TOP, "sequence": [{"a": 1, "s": 16}],
        "limit": {"a": 2, "s": 0}, "alpha_max": 2.9})],
    ["distinguish", "--params", json.dumps({  # a boolean is not 1
        "weights": {"kind": "double_exp", "index_bound": 4},
        "mask1": [1, 2], "mask2": [1], "horizon": True})],
    ["member", "--params", json.dumps({       # a string is not an array
        "topology": {"base": "z",
                     "weights": {"kind": "explicit", "values": "12"}},
        "nbhd": {"a": 1, "s": 0, "alpha": 1}, "point": {"a": 0, "s": 1}})],
    ["--suite", "good-corr", "--params", '{"index_bond": 12}'],  # unknown key
    ["waptest", "--params", json.dumps({      # unknown key
        "function": {"tag": "c0_plus_const", "const": "1"}, "cuont": 5})],
    ["member", "--params", json.dumps({       # index bound past 16
        "topology": {"base": "z",
                     "weights": {"kind": "double_exp", "index_bound": 17}},
        "nbhd": {"a": 1, "s": 0, "alpha": 1}, "point": {"a": 0, "s": 4}})],
    ["waptest", "--params", json.dumps({      # count past nmax-wap's pairs
        "function": {"tag": "c0_plus_const", "const": "1"}, "count": 201})],
    ["member", "--params",                    # number past the digit limit
     '{"topology": ' + "1" * 5000 + "}"],
    ["distinguish", "--params", json.dumps({  # explicit weights past 16
        "weights": {"kind": "explicit", "values": [2 ** i for i in range(17)]},
        "mask1": [1, 2], "mask2": [1, 3]})],
    ["waptest", "--params", json.dumps({      # a misspelt tag is not 0
        "function": {"tag": "sampeld", "values": ["0", "1", "0", "1"]}})],
    *(["waptest", "--params", json.dumps({    # mod elements are positive ints
        "function": {"tag": "c0_plus_const", "const": "0",
                     "mod": [{"elem": elem, "value": "1"}]}})]
      for elem in (1.5, -4, True)),
    *(["waptest", "--params", json.dumps({    # a subsequence is an array
        "function": {"tag": "sampled", "values": ["0", "1"] * 4},
        "pairs": [[{"along": along, "horizon": 8},
                   {"along": [1, 3, 5, 7], "horizon": 8}]]})]
      for along in ("2468", {"2": 0, "4": 0, "6": 0, "8": 0})),
    ["member", "--params", json.dumps({       # 4 is not an odd natural
        "topology": ODD_TOP, "nbhd": {"a": 1, "s": 1, "alpha": 1},
        "point": {"a": 0, "s": 4}})],
    ["member", "--params", json.dumps({       # first coordinate below 0
        "topology": Z_TOP, "nbhd": {"a": 1, "s": 0, "alpha": 1},
        "point": {"a": -1, "s": 4}})],
    *(["converge", "--params", json.dumps({    # a term that is not a point
        "topology": ODD_TOP, **limit,
        "sequence": [{"a": -4, "s": 7}] + [{"a": 0, "s": p}
                                           for p in (3, 5, 7, 11, 13, 17)]})]
      for limit in ({}, {"limit": {"a": 1, "s": 1}})),
    *(["converge", "--params", json.dumps({    # an empty sequence
        "topology": Z_TOP, "sequence": [], **limit})]
      for limit in ({}, {"limit": {"a": 1, "s": 0}})),
    ["member", "--params", json.dumps({       # no base has vector coordinates
        "topology": Z_TOP, "nbhd": {"a": 1, "s": 0, "alpha": 1},
        "point": {"a": 0, "s": [0, 4]}})],
    ["waptest", "--params",                   # "p" or "p/q" only, no exponent
     '{"function": {"tag": "c0_plus_const", "const": "1e3"}}'],
    *(["waptest", "--params", json.dumps({    # pairs come with no family keys
        "function": {"tag": "sampled", "values": ["0", "1"] * 4},
        "pairs": _PAIR, **family})]
      for family in ({"count": 200}, {"horizon": 2000},
                     {"count": 200, "horizon": 2000})),
    ["distinguish", "--params", json.dumps({  # counted before any is read
        "weights": {"kind": "explicit", "values": ["not a weight"] * 17},
        "mask1": [1, 2], "mask2": [1, 3]})],
])
def test_usage_errors(argv, capsys):
    code, _ = run(capsys, *argv)
    assert code == 3


# One valid payload per query command; each bounded key is then set one
# past a bound, which alone must turn the answer into a usage error.
VALID_QUERIES = {
    "member": {"topology": Z_TOP, "nbhd": {"a": 2, "s": 0, "alpha": 3},
               "point": {"a": 1, "s": 256}},
    "converge": {"topology": Z_TOP, "limit": {"a": 2, "s": 0},
                 "sequence": [{"a": 1, "s": 2 ** (2 ** j)} for j in range(2, 7)]},
    "distinguish": {"weights": {"kind": "double_exp", "index_bound": 8},
                    "mask1": [1, 2, 3, 4], "mask2": [1, 2, 5, 6]},
    "waptest": {"function": {"tag": "c0_plus_const", "const": "2"},
                "count": 5, "horizon": 100},
}


def _past_bounds(keys):
    # a (default, reader) spec reads a nested value, whose own bounds the
    # usage-error rows cover, except that a mask's entries are set here
    for key, spec in keys.items():
        if len(spec) == 3:
            yield from ((key, bad) for bad in (spec[1] - 1, spec[2] + 1))
        elif spec[1] is jsonio.read_mask:
            yield from ((key, [bad]) for bad in (0, MAX_INDEX_BOUND + 1))


@pytest.mark.parametrize("command,key,bad", [
    (command, key, bad) for command, (_, keys) in sorted(cli._COMMANDS.items())
    for key, bad in _past_bounds(keys)])
def test_query_keys_rejected_past_bounds(command, key, bad, capsys):
    assert run(capsys, command, "--params",
               json.dumps(VALID_QUERIES[command]))[0] in (0, 1, 2)
    params = dict(VALID_QUERIES[command], **{key: bad})
    assert run(capsys, command, "--params", json.dumps(params))[0] == 3


@pytest.mark.parametrize("bound", [0, 17])
def test_weights_index_bound_rejected_past_bounds(bound, capsys):
    params = dict(VALID_QUERIES["distinguish"],
                  weights={"kind": "double_exp", "index_bound": bound})
    assert run(capsys, "distinguish", "--params", json.dumps(params))[0] == 3


@pytest.mark.parametrize("suite,key,bad", [
    (suite, key, bad) for suite, keys in sorted(SUITE_PARAMS.items())
    for key, bad in _past_bounds(keys)])
def test_suite_keys_rejected_past_bounds(suite, key, bad, capsys):
    default, lo, hi = SUITE_PARAMS[suite][key]
    assert lo <= default <= hi
    for edge in (lo, hi):
        assert read_params({key: edge}, SUITE_PARAMS[suite])[key] == edge
    with pytest.raises(SuiteError):
        run_suite(suite, {key: bad})
    assert run(capsys, "--suite", suite, "--params",
               json.dumps({key: bad}))[0] == 3



# The full mask answers this query true and the mask [2] false, so a
# misspelt "mask" that was ignored would change the answer, not refuse it.
MAKS = {"topology": {"base": "z", "weights": {"kind": "double_exp",
                                              "index_bound": 5}, "maks": [2]},
        "nbhd": {"a": 1, "s": 0, "alpha": 1}, "point": {"a": 0, "s": 4}}
_FUNCTION = {"tag": "c0_plus_const", "const": "1",
             "mod": [{"elem": 3, "value": "1/2"}]}


def _with(doc, path: tuple, key: str, value=0):
    """``doc`` with ``key`` set to ``value`` in the object at ``path``."""
    if not path:
        return dict(doc, **{key: value})
    out = list(doc) if isinstance(doc, list) else dict(doc)
    out[path[0]] = _with(doc[path[0]], path[1:], key, value)
    return out


def _without(doc: dict, path: tuple, key: str) -> dict:
    """``doc`` without ``key`` in the object at ``path``."""
    if not path:
        return {k: v for k, v in doc.items() if k != key}
    return dict(doc, **{path[0]: _without(doc[path[0]], path[1:], key)})


# one undeclared key at each depth of a query: the object at the path
UNDECLARED = [
    ("topology", "member", VALID_QUERIES["member"], ("topology",)),
    ("weights", "member", VALID_QUERIES["member"], ("topology", "weights")),
    ("nbhd", "member", VALID_QUERIES["member"], ("nbhd",)),
    ("point", "member", VALID_QUERIES["member"], ("point",)),
    ("limit", "converge", VALID_QUERIES["converge"], ("limit",)),
    ("sequence-term", "converge", VALID_QUERIES["converge"], ("sequence", 2)),
    ("distinguish-weights", "distinguish", VALID_QUERIES["distinguish"],
     ("weights",)),
    ("function", "waptest", {"function": _FUNCTION}, ("function",)),
    ("mod-entry", "waptest", {"function": _FUNCTION}, ("function", "mod", 0)),
    ("pair-functional", "waptest",
     {"function": {"tag": "sampled", "values": ["0", "1"] * 4},
      "pairs": _PAIR}, ("pairs", 0, 1)),
]


@pytest.mark.parametrize("command,params,path",
                         [row[1:] for row in UNDECLARED],
                         ids=[row[0] for row in UNDECLARED])
def test_an_undeclared_key_at_any_depth_is_a_usage_error(command, params,
                                                          path, capsys):
    assert run(capsys, command, "--params", json.dumps(params))[0] in (0, 1, 2)
    bad = _with(params, path, "extra")
    assert main([command, "--params", json.dumps(bad)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown parameter 'extra'" in captured.err


# A key that the weights' kind or the function's tag does not use, with a
# value that would be valid where the key is used: the query answers
# without it and is a usage error with it.
EXPLICIT_TOP = {"base": "z",
                "weights": {"kind": "explicit", "values": [2, 8, 32, 128]}}
SAMPLED = {"function": {"tag": "sampled", "values": ["0", "1"] * 4}}
UNUSED_KEYS = [
    ("values-on-double_exp", "distinguish", VALID_QUERIES["distinguish"],
     ("weights",), "values", ["4", "16"]),
    ("values-on-odd_primes", "member",
     {"topology": ODD_TOP, "nbhd": {"a": 1, "s": 1, "alpha": 1},
      "point": {"a": 0, "s": 3}}, ("topology", "weights"), "values", [3, 5]),
    ("index_bound-on-explicit", "member",
     {"topology": EXPLICIT_TOP, "nbhd": {"a": 1, "s": 0, "alpha": 1},
      "point": {"a": 0, "s": 8}}, ("topology", "weights"), "index_bound", 4),
    ("const-on-sampled", "waptest", SAMPLED, ("function",), "const", "1"),
    ("mod-on-sampled", "waptest", SAMPLED, ("function",), "mod",
     [{"elem": 3, "value": "1"}]),
]


@pytest.mark.parametrize("command,params,path,key,value",
                         [row[1:] for row in UNUSED_KEYS],
                         ids=[row[0] for row in UNUSED_KEYS])
def test_a_key_the_kind_or_tag_does_not_use_is_a_usage_error(
        command, params, path, key, value, capsys):
    assert run(capsys, command, "--params", json.dumps(params))[0] in (0, 1, 2)
    bad = _with(params, path, key, value)
    assert main([command, "--params", json.dumps(bad)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown parameter {key!r}" in captured.err


@pytest.mark.parametrize("command,params,message", [
    ("distinguish", dict(VALID_QUERIES["distinguish"], mask2=[1, 17]),
     "mask2: parameter 'mask entry' outside the safe range [1, 16]"),
    ("waptest", {"function": {"tag": "sampled", "values": "0101"}},
     "function.values: expected a JSON array"),
    ("member", dict(VALID_QUERIES["member"], topology={
        "base": "z", "weights": {"kind": "explicit", "values": "12"}}),
     "topology.weights.values: expected a JSON array"),
    # a ValueError from a number reader or a constructor names its key too
    ("waptest", {"function": {"tag": "c0_plus_const", "const": "1e3"}},
     'function.const: not a rational "p" or "p/q" of at most '
     f"{topologies.MAX_DECIMAL_DIGITS} digits each"),
    ("member", dict(VALID_QUERIES["member"], topology={
        "base": "z", "weights": {"kind": "explicit", "values": [3, 2]}}),
     "topology.weights: weights must be strictly increasing"),
    # explicit weights are counted before any is read
    ("member", dict(VALID_QUERIES["member"], topology={
        "base": "z", "weights": {"kind": "explicit",
                                 "values": ["not a weight"] * 17}}),
     "topology.weights.values: expected 1 to 16 entries, got 17"),
], ids=["depth-1", "depth-2", "depth-3", "rational-const",
        "decreasing-weights", "explicit-count"])
def test_a_nested_error_names_where_it_failed(command, params, message,
                                              capsys):
    assert main([command, "--params", json.dumps(params)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"semitop: error: bad query parameters: {message}\n"


@pytest.mark.parametrize("size", [0, 1, 3])
def test_a_pair_of_other_than_two_functionals_names_pairs(size, capsys):
    # a pair is read whole before any limit is computed
    params = dict(SAMPLED, pairs=[_PAIR[0][:1] * size])
    assert main(["waptest", "--params", json.dumps(params)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("semitop: error: bad query parameters: pairs: "
                            "expected a JSON array of two entries\n")


# A converge sequence takes 1..16 terms and explicit waptest pairs the
# 1..200 of nmax-wap's count; the entries here are not points or pairs,
# so only a length counted before any entry is read names the length.
@pytest.mark.parametrize("command,params,key,lo,hi", [
    ("converge", VALID_QUERIES["converge"], "sequence", 1, 16),
    ("waptest", SAMPLED, "pairs", 1, 200)])
def test_query_arrays_are_counted_before_they_are_read(command, params, key,
                                                       lo, hi, capsys):
    for size in (lo - 1, hi + 1):
        bad = dict(params, **{key: ["not an entry"] * size})
        assert main([command, "--params", json.dumps(bad)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("semitop: error: bad query parameters: "
                                f"{key}: expected {lo} to {hi} entries, "
                                f"got {size}\n")
    entry = params[key][0] if key in params else _PAIR[0]
    for size in (lo, hi):
        ok = dict(params, **{key: [entry] * size})
        assert run(capsys, command, "--params", json.dumps(ok))[0] in (0, 1, 2)


def test_a_misspelt_mask_is_a_usage_error(capsys):
    topology = {k: v for k, v in MAKS["topology"].items() if k != "maks"}
    for mask, code in ((None, 0), ([2], 1)):
        top = topology if mask is None else dict(topology, mask=mask)
        assert run(capsys, "member", "--params",
                   json.dumps(dict(MAKS, topology=top)))[0] == code
    assert main(["member", "--params", json.dumps(MAKS)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown parameter 'maks'" in captured.err


@pytest.mark.parametrize("path,key", [
    ((), "nbhd"), (("nbhd",), "alpha"), (("topology", "weights"), "kind")],
    ids=["nbhd", "alpha", "kind"])
def test_a_missing_key_at_any_depth_is_named(path, key, capsys):
    params = _without(VALID_QUERIES["member"], path, key)
    assert main(["member", "--params", json.dumps(params)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"missing parameter '{key}'" in captured.err


def test_past_int_str_digit_limit(capsys):
    # w_14 = 2^16384 has 4933 decimal digits, past Python's default limit
    # on int <-> str conversion; the witness must still be written
    params = {"weights": {"kind": "double_exp", "index_bound": 14},
              "mask1": [1, 2, 3], "mask2": [1, 2, 3, 14], "horizon": 14}
    code, doc = run(capsys, "distinguish", "--params", json.dumps(params))
    assert code == 0
    assert doc["status"] == "DISTINCT"
    assert doc["witness"]["witnesses"][0]["point"] == [0, jsonio.int_to_str(
        2 ** 16384)]


# Terms (0, w_14 + w_j), j = 2..7, converge to (1, w_14) under the double
# exponential weights of index bound 8; w_14 = 2^16384 has 4933 digits.
W14 = 2 ** 16384
BIG_SEQUENCE = {"topology": {"base": "z", "weights": {"kind": "double_exp",
                                                      "index_bound": 8}},
                "sequence": [{"a": 0, "s": jsonio.int_to_str(W14 + 2 ** 2 ** j)}
                             for j in range(2, 8)]}


def test_converge_finds_a_limit_past_the_digit_limit(capsys):
    code, doc = run(capsys, "converge", "--params", json.dumps(BIG_SEQUENCE))
    assert code == 0
    assert doc["limit"] == {"a": 1, "s": jsonio.int_to_str(W14)}


def test_converge_writes_a_limit_past_the_digit_limit(capsys):
    params = dict(BIG_SEQUENCE, limit={"a": 1, "s": jsonio.int_to_str(W14)})
    code, doc = run(capsys, "converge", "--params", json.dumps(params))
    assert code == 0
    assert doc["certificate"]["limit"] == {"a": 1,
                                           "s": jsonio.int_to_str(W14)}


def test_waptest_reads_a_rational_past_the_digit_limit(capsys):
    big = "1" + "0" * 5000
    params = {"function": {"tag": "c0_plus_const", "const": f"{big}/{big}"}}
    code, doc = run(capsys, "waptest", "--params", json.dumps(params))
    assert code == 0
    assert doc["status"] == "WAP-consistent"
    # the witness values of a NOT-WAP verdict are written exactly
    values = [f"{big}/3" if n % 2 == 0 else "0" for n in range(1, 201)]
    params = {"function": {"tag": "sampled", "values": values}}
    code, doc = run(capsys, "waptest", "--params", json.dumps(params))
    assert code == 1
    assert doc["witness"]["box"] == "0"
    assert doc["witness"]["diamond"] == f"{big}/3"


def _explicit_member(values, s, a):
    """A member query of the point (0, s) in U(a, 0, 1) under explicit
    weights, each written as a decimal string."""
    return ["member", "--params", json.dumps({
        "topology": {"base": "z", "weights": {
            "kind": "explicit", "values": [jsonio.int_to_str(v) for v in values]}},
        "nbhd": {"a": a, "s": 0, "alpha": 1},
        "point": {"a": 0, "s": jsonio.int_to_str(s)}})]


def test_an_ambiguous_weight_list_past_the_digit_limit_is_named(capsys):
    # w_1 + w_2 = w_3 has 5,001 digits, too many to print as an int
    w = [(i + 1) * 10 ** 5000 for i in range(4)]
    code, out, err = _call(capsys, _explicit_member(w, w[0] + w[1], 2))
    assert (code, out) == (3, "")
    assert "ambiguous representation" in err


_HUGE = "1" + "0" * 5000        # past the 4,300 digits str(int) converts


@pytest.mark.parametrize("edit,message", [
    ({"point": {"a": -1, "s": _HUGE}}, "is not a point of Z+ x S"),
    ({"nbhd": {"a": "-" + _HUGE, "s": 0, "alpha": 1}},
     "a must be a nonnegative integer"),
    ({"nbhd": {"a": 1, "s": 0, "alpha": "-" + _HUGE}},
     "alpha must be a positive integer"),
    ({"topology": {"base": "z", "weights": {"kind": "explicit",
                                            "values": [1, "-" + _HUGE]}}},
     "a weight must be a positive integer"),
], ids=["point", "nbhd-a", "nbhd-alpha", "explicit-weight"])
def test_a_rejected_value_past_the_digit_limit_is_named(edit, message, capsys):
    # the rejection message must not itself fail to print the value
    params = dict(VALID_QUERIES["member"], **edit)
    code, out, err = _call(capsys, ["member", "--params", json.dumps(params)])
    assert (code, out) == (3, "")
    assert message in err and "Exceeds the limit" not in err


def test_an_explicit_member_query_searches_in_small_memory(capsys):
    # 16 weights of 500 digits: a table of all 2^16 subset sums holds
    # about 26 MB, the meet in the middle's table of 2^8 sums about 0.1 MB
    w = [10 ** 499 + 2 ** k for k in range(16)]
    argv = _explicit_member(w, w[0] + w[2] + w[15], 3)
    tracemalloc.start()
    try:
        code, out, _ = _call(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["indices"] == [1, 3, 16]
    assert peak < 2 * 2 ** 20


def test_a_converge_at_the_top_of_its_range_stays_in_bounded_memory(capsys):
    # 16 terms near w_16 = 2^65536 at index_bound 16, no limit given: the
    # limit search builds up to 697 candidates per term, each about 8 KB;
    # tracemalloc measured a 72.6 MiB peak (Python 3.11, about 1 s)
    top = {"base": "z", "weights": {"kind": "double_exp", "index_bound": 16}}
    seq = [{"a": 0, "s": jsonio.int_to_str(2 ** 65536 + 4 * j)}
           for j in range(16)]
    argv = ["converge", "--params", json.dumps({"topology": top,
                                                "sequence": seq})]
    tracemalloc.start()
    try:
        code, out, _ = _call(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and json.loads(out)["status"] == "UNDETERMINED"
    assert peak < 96 * 2 ** 20


@pytest.mark.parametrize("head,params", [
    (["member"], dict(VALID_QUERIES["member"],
                      point={"a": 1, "s": "9" * 400_000})),
    (["member"], dict(VALID_QUERIES["member"],
                      point={"a": 1, "s": "x" * 400_000})),
    (["waptest"], {"function": {"tag": "c0_plus_const",
                                "const": "9" * 200_000 + "/" + "7" * 200_000}}),
    (["--suite", "good-corr"], {"index_bound": "9" * 400_000}),
], ids=["member-digits", "member-letters", "waptest-rational", "good-corr"])
def test_decimal_strings_past_the_length_limit(head, params, capsys):
    # converting a decimal string takes time quadratic in its length, so an
    # over-long one is a usage error before it is converted or echoed
    t0 = time.perf_counter()
    assert main(head + ["--params", json.dumps(params)]) == 3
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err) < 300


def test_every_status_has_an_exit_code():
    statuses = {v for k, v in vars(verdicts).items()
                if k.isupper() and isinstance(v, str)}
    assert all(isinstance(k, str) for k in cli._STATUS_EXIT)
    assert set(cli._STATUS_EXIT) == statuses


def _untimed(report):
    """A suite report as sorted JSON text, its "timing" block dropped."""
    report.pop("timing")
    return json.dumps(report, sort_keys=True)


def test_reports_are_deterministic(capsys):
    # gen-con-one runs declared families of separate-continuity triples,
    # the same in this process and in a fresh one
    argv = ["--suite", "gen-con-one"]
    code1, first = run(capsys, *argv)
    code2, second = run(capsys, *argv)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "semitop.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert code1 == code2 == proc.returncode == 0
    report = _untimed(first)
    assert report == _untimed(second)
    assert report == _untimed(json.loads(proc.stdout))


@pytest.mark.parametrize("seed", ["0", "1"])
def test_a_suite_takes_no_seed(seed, capsys):
    # a suite report depends on --params alone; --seed with --suite is a
    # usage error, and no report is written
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "gen-con-one", "--seed", seed])
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a suite takes no --seed" in captured.err


def test_distinguish_refuses_a_mask_entry_past_the_index_bound(capsys):
    # as a member query refuses such a mask in its topology; an entry
    # past the horizon but within the index bound is still ignored
    weights = {"kind": "double_exp", "index_bound": 4}
    past = {"weights": weights, "mask1": [1, 9], "mask2": [1]}
    assert main(["distinguish", "--params", json.dumps(past)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "mask indices must lie within the index bound" in captured.err
    within = {"weights": weights, "mask1": [1, 4], "mask2": [1],
              "horizon": 3}
    code, doc = run(capsys, "distinguish", "--params", json.dumps(within))
    assert (code, doc["status"]) == (2, "UNDETERMINED")


def test_unknown_flag_exits_3():
    with pytest.raises(SystemExit) as exc:
        main(["--frobnicate"])
    assert exc.value.code == 3


def _call(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:       # argparse-level usage errors
        code = exc.code
    return (code, *capsys.readouterr())


def test_one_parser_serves_every_call(monkeypatch, capsys):
    wap = ["waptest", "--params", json.dumps(VALID_QUERIES["waptest"])]
    seeded = [*wap, "--seed", "7"]
    usage = (["--frobnicate"], [], ["member", "--seed", "x"])
    suite = ["--suite", "star-condition"]
    before = {tuple(argv): _call(capsys, argv)
              for argv in (wap, seeded, suite, *usage)}
    assert before[tuple(seeded)][0] == before[tuple(wap)][0] == 0
    assert json.loads(before[tuple(seeded)][1])["seed"] == 7
    assert json.loads(before[tuple(wap)][1])["seed"] == 0
    assert all(before[tuple(argv)][:2] == (3, "") for argv in usage)

    def refuse(*args, **kwargs):
        raise AssertionError("cli.main built a parser")
    monkeypatch.setattr(cli._Parser, "__init__", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", refuse)

    # a seeded query, a usage error, then the same query without --seed
    for bad in usage:
        for argv in (seeded, bad, wap):
            assert _call(capsys, argv) == before[tuple(argv)]
    assert _call(capsys, wap)[1] == _call(capsys, wap)[1]
    code, out, err = _call(capsys, suite)
    code_before, out_before, err_before = before[tuple(suite)]
    assert (code, err) == (code_before, err_before) == (0, "")
    assert _untimed(json.loads(out)) == _untimed(json.loads(out_before))


def test_help_names_every_command_and_suite(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")    # no suite name wrapped at a hyphen
    code, out, err = _call(capsys, ["--help"])
    assert (code, err) == (0, "")
    assert all(name in out for name in (*cli._COMMANDS, *SUITES))


def test_console_script_smoke():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "semitop.cli", "--suite", "good-corr"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["overall"] == "PASS"
    assert doc["schema_version"] == "1"

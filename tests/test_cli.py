import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from semitop import cli, verdicts
from semitop.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

Z_TOP = {"base": "z", "weights": {"kind": "double_exp", "index_bound": 6}}


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


def test_waptest_short_sample_default_horizon(capsys):
    # a 40-point sample against the default 200-point pair family must
    # still produce a JSON verdict rather than an evaluation error
    values = ["1" if n % 2 == 0 else "0" for n in range(1, 41)]
    params = {"function": {"tag": "sampled", "values": values}}
    code, doc = run(capsys, "waptest", "--params", json.dumps(params))
    assert code == 1
    assert doc["status"] == "NOT-WAP"


def test_suite_run_and_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--suite", "star-condition", "--seed", "7",
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["suite"] == "star-condition"
    assert doc["seed"] == 7
    assert doc["overall"] == "PASS"
    assert {c["id"] for c in doc["checks"]} >= {"star-double-exp",
                                                "star-negative-control"}


def test_suite_with_params(capsys):
    code, doc = run(capsys, "--suite", "remark4-continuum",
                    "--params", '{"masks": 4, "horizon": 6}')
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
])
def test_usage_errors(argv, capsys):
    code, _ = run(capsys, *argv)
    assert code == 3


def test_every_status_has_an_exit_code():
    statuses = {v for k, v in vars(verdicts).items()
                if k.isupper() and isinstance(v, str)}
    assert all(isinstance(k, str) for k in cli._STATUS_EXIT)
    assert set(cli._STATUS_EXIT) == statuses


def _strip_timing(doc):
    if isinstance(doc, dict):
        return {k: _strip_timing(v) for k, v in doc.items()
                if k != "elapsed_ms"}
    if isinstance(doc, list):
        return [_strip_timing(v) for v in doc]
    return doc


def test_reports_are_deterministic(capsys):
    # remark4-continuum draws its mask family from the seed, so equal
    # reports are not equal merely because the suite ignores the seed
    argv = ["--suite", "remark4-continuum", "--seed", "5"]
    code1, first = run(capsys, *argv)
    code2, second = run(capsys, *argv)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "semitop.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert code1 == code2 == proc.returncode == 0
    report = _strip_timing(first)
    assert report == _strip_timing(second)
    assert report == _strip_timing(json.loads(proc.stdout))
    _, other_seed = run(capsys, "--suite", "remark4-continuum", "--seed", "6")
    assert _strip_timing(other_seed) != report


def test_unknown_flag_exits_3():
    with pytest.raises(SystemExit) as exc:
        main(["--frobnicate"])
    assert exc.value.code == 3


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "semitop.cli", "--suite", "good-corr"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["overall"] == "PASS"
    assert doc["schema_version"] == "1"

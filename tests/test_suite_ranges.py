"""Every in-range suite parameter gives a true verdict.

`read_params` accepts each key anywhere in its declared (lo, hi) range,
so a range's lower corner, params drawn inside the ranges from a seeded
generator, and each point where a suite once gave a false FAIL or a
traceback, must report overall PASS.
"""

import gc
import json
import random

import pytest

from semitop import obstructions, topologies
from semitop.suites import SUITE_PARAMS, run_suite


def _run_without_collector(suite, params):
    """run_suite with the cyclic collector off; it must leave no cyclic
    garbage, since run_suite pauses the collector around every check."""
    gc.collect()
    gc.disable()
    try:
        report = run_suite(suite, params)
        assert not gc.isenabled()
        assert gc.collect() == 0
    finally:
        gc.enable()
    return report


@pytest.mark.parametrize("suite", sorted(SUITE_PARAMS))
def test_every_suite_passes_at_its_lower_bounds(suite):
    params = {key: lo for key, (_, lo, _) in SUITE_PARAMS[suite].items()}
    report = _run_without_collector(suite, params)
    assert report["overall"] == "PASS", [
        (c["id"], c["status"], c["detail"]) for c in report["checks"]
        if c["status"] != "PASS"]
    # every check is written as its verdict; all timing sits in one block
    timing = report["timing"]
    assert list(timing["checks_ms"]) == [c["id"] for c in report["checks"]]
    assert timing["total_ms"] >= sum(timing["checks_ms"].values())
    assert '"elapsed_ms":' not in json.dumps(report)   # at any depth


@pytest.mark.parametrize("params", [
    {"max_domain": 2, "max_value": 2, "fnp_trials": 10, "n_max": 5},
    {"max_domain": 4, "max_value": 6, "fnp_trials": 50}])
def test_section4_leaves_no_cyclic_garbage(params):
    report = _run_without_collector("section4-no-predual", params)
    assert report["overall"] == "PASS"


def test_section4_checks_run_with_the_collector_paused(monkeypatch):
    # a section-4 check and a check of another suite alike
    seen = []

    def probe(module, name):
        real = getattr(module, name)

        def probed(*args):
            seen.append((name, gc.isenabled()))
            return real(*args)
        monkeypatch.setattr(module, name, probed)
    probe(obstructions, "open_set_identity_sweep")
    probe(topologies, "verify_star")
    assert gc.isenabled()
    for suite, params in (("section4-no-predual", {"max_domain": 2,
                                                   "max_value": 2}),
                          ("star-condition", {"double_exp_bound": 2,
                                              "odd_primes_bound": 2})):
        assert run_suite(suite, params)["overall"] == "PASS"
        assert gc.isenabled()
    # the suite's sweep, then proof_skeleton's step 1; then star-condition's
    # two weight sequences and its negative control
    assert seen == [("open_set_identity_sweep", False)] * 2 + [
        ("verify_star", False)] * 3


# Keys whose top corner alone takes about half a second or more; the
# drawn params hold them at their lower bound so that the draws stay
# cheap.  Their top corners are run by hand.
COSTLY = {
    "gen-con-one": ("index_bound",),
    "gen-con-two": ("index_bound",),
    "nmax-wap": ("horizon",),
    "rees-cancellativity": ("rees_rank", "infty_rank", "nat_max_rank"),
    "section4-no-predual": ("max_domain", "max_value"),
    "star-condition": ("double_exp_bound",),
    "unique-l1s": ("trials",),
}


def _drawn(suite: str, draw: int) -> dict:
    """Params of one seeded draw: each key uniform in its declared range,
    the costly keys at their lower bound."""
    rng = random.Random(f"{suite}:{draw}")
    return {key: lo if key in COSTLY.get(suite, ()) else rng.randint(lo, hi)
            for key, (_, lo, hi) in SUITE_PARAMS[suite].items()}


@pytest.mark.parametrize("suite", sorted(SUITE_PARAMS))
@pytest.mark.parametrize("draw", range(3))
def test_seeded_in_range_points_pass(suite, draw):
    params = _drawn(suite, draw)
    report = run_suite(suite, params)
    assert report["overall"] == "PASS", (params, [
        (c["id"], c["status"], c["detail"]) for c in report["checks"]
        if c["status"] != "PASS"])


@pytest.mark.parametrize("suite,params", [
    # more domain points than values: the random partial maps once drew
    # more images than the value range holds
    ("section4-no-predual", {"max_domain": 4, "max_value": 2}),
    # ranks where a 100-row Rees example had only the zero as witness, or
    # fewer preimages than a fixed threshold
    ("rees-cancellativity", {"rees_rank": 10}),
    ("rees-cancellativity", {"rees_rank": 202}),
    ("rees-cancellativity", {"rees_rank": 406}),
    # max_exp below alpha_max once raised from XSpace; the lowest max_exp
    # now meets the highest alpha_max
    ("lemma-technical", {"max_exp": 4, "alpha_max": 4}),
    # below horizon 10 the 30-mask family with pairwise symmetric
    # difference at least horizon // 3 was not found for every seed
    ("remark4-continuum", {"horizon": 10, "masks": 30}),
    # the top corners of index_bound and s_max
    ("gen-con-one", {"index_bound": 8}),
    ("unique-l1s", {"s_max": 200}),
    # alpha_max above index_bound gave a false FAIL, since no prefix term
    # reaches such a level; the lowest index_bound now meets the highest
    # alpha_max
    ("gen-con-two", {"index_bound": 6, "alpha_max": 6}),
])
def test_regression_points_pass(suite, params):
    report = run_suite(suite, params)
    assert report["overall"] == "PASS", [
        (c["id"], c["status"], c["detail"]) for c in report["checks"]
        if c["status"] != "PASS"]

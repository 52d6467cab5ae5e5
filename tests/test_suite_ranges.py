"""Every in-range suite parameter gives a true verdict.

`read_params` accepts each key anywhere in its declared (lo, hi) range,
so a range's lower corner, and each point where a suite once gave a false
FAIL or a traceback, must report overall PASS.
"""

import pytest

from semitop.suites import SUITE_PARAMS, run_suite


@pytest.mark.parametrize("suite", sorted(SUITE_PARAMS))
def test_every_suite_passes_at_its_lower_bounds(suite):
    params = {key: lo for key, (_, lo, _) in SUITE_PARAMS[suite].items()}
    report = run_suite(suite, params)
    assert report["overall"] == "PASS", [
        (c["id"], c["status"], c["detail"]) for c in report["checks"]
        if c["status"] != "PASS"]


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
])
def test_regression_points_pass(suite, params):
    report = run_suite(suite, params)
    assert report["overall"] == "PASS", [
        (c["id"], c["status"], c["detail"]) for c in report["checks"]
        if c["status"] != "PASS"]

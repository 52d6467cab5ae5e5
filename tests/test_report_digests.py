"""The untimed reports of the suite battery, pinned by sha256.

A refactor that must not change what any suite reports is checked
against these digests rather than stated.  A change that alters a report
on purpose updates its digest here and says why.
"""

import hashlib
import json

import pytest

from semitop.suites import run_suite

# sha256 of json.dumps(report, sort_keys=True) once its "timing" block is
# dropped: the digest covers everything else, the schema version, suite,
# params, seed, every check's id, status, witness and detail, and overall.
# Each suite at its default params and seed 0.
DIGESTS = {
    "lemma-technical":
        "b4234b859ce59febb3759aeffa59c47a8f1de83abd79d492fe70bd18d031eb2a",
    "gen-con-one":
        "48b0c80db4533148d754ccc4eb178e6b442a02a9d2e410b8f49e2657627980e5",
    "gen-con-two":
        "5d9a83e92ca59afdcd868357f2bad0c8d0672e8dc43218ab4d6522ab4ef93661",
    "star-condition":
        "8d207f273c95e16a0cdcb5be0827deea9b61df8865d35633d7eb96df0d5b2e02",
    "remark4-continuum":
        "281bf01e5ba6e5081d03c65c81fd12f4ae8e290aa1f899d139de4b23f02d9820",
    "good-corr":
        "c5a9a823cba328e6e0d4211b75baff59e2728d67c97f51e75576d444d9aadbc4",
    "nmax-wap":
        "96aca06cd0c6d67a59eabe1647844fa0c8c51b324122725b5dd5065d6a174726",
    "unique-l1s":
        "0baf98942851af0825567410c0eebfce7c11d5275704b8896a5eb817964f5fb4",
    "rees-cancellativity":
        "c886ffdc5c9705516312a91ba73b4d9273cdef3bedbca833700f6979382189f9",
    "structural":
        "a0de9a5f15fb274e9b884e3b0880c3681b3d7581885e6500a005b6707cdb1064",
}

# suites pinned at non-default params, keyed (suite, params JSON)
PARAM_DIGESTS = {
    ("section4-no-predual", '{"max_domain": 4, "max_value": 6}'):
        "cf4ad1938a33f27273683d1ca81271fdc493c3a245a9389c00aab28e75b3f196",
}


def _digest(report):
    del report["timing"]
    canon = json.dumps(report, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


@pytest.mark.parametrize("suite", sorted(DIGESTS))
def test_report_digest(suite):
    assert _digest(run_suite(suite)) == DIGESTS[suite]


@pytest.mark.parametrize("suite,params", sorted(PARAM_DIGESTS))
def test_report_digest_at_params(suite, params):
    report = run_suite(suite, json.loads(params))
    assert _digest(report) == PARAM_DIGESTS[(suite, params)]

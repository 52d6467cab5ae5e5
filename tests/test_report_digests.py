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
# params, every check's id, status, witness and detail, and overall.  A
# report depends on its params alone; each suite is pinned at its
# default params.
DIGESTS = {
    "lemma-technical":
        "275c54cf027fa6b08d2e8085fc29ae5f88c9ce38aa809b5f63a4e61081a56db3",
    "gen-con-one":
        "35f521d8b48c2e14dff9619233fc5e5003ce69da3a7d2b963ff3b57332f72881",
    "gen-con-two":
        "ade8c2c150fbc7c39bd9cf3d2e79e5af616921a4688e3abd8ac50cf2992c6d77",
    "star-condition":
        "2cffd92eb35dd2e40d53af9ff4e1113ec1d12d7aa87cadd629ee1258a9c4b5fd",
    "remark4-continuum":
        "f735f3dacec27f4be908b93498db3e47bd1723be1b3b3128eaf078808d28dd0b",
    "good-corr":
        "9dbcdc20c2e0b23769bfb70cb4c5fd02a2ef2f972ba628cf8eb77b15e98fdc7e",
    "nmax-wap":
        "37e09f92b0f77e4c926d76919e9d5a7f78cd6ad6c9ce7a1e4acbc9acfcbdb992",
    "unique-l1s":
        "32625ea8725232981dcbb1d39406a4f90566c35201e1118f686f05706660fda8",
    "rees-cancellativity":
        "6762d2be74e77ab9d2c499d75453d3176c5e71580e74181f9cb2a34350dbe5d8",
    "structural":
        "3c0aa0049545d8c467b6c2ae12572de8e379a1f76f7bdcaad3b6e15e14c39d35",
}

# suites pinned at non-default params, keyed (suite, params JSON)
PARAM_DIGESTS = {
    ("section4-no-predual", '{"max_domain": 4, "max_value": 6}'):
        "262929c61b55df53afa298059ea0f427307247c39abe54d151a3a8747f13cf0b",
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

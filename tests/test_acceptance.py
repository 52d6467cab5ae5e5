"""Acceptance gate: the twelve checks this package promises.

Each criterion prints one visible pass/fail line (bypassing pytest's
capture) and asserts its stated exactness and time budget.  Suites that
back several criteria run once per module and are shared via fixtures;
per-criterion timings come from the per-check measurements in the
reports' timing block.
"""

import time
from fractions import Fraction
from itertools import combinations

import pytest

from semitop.suites import run_suite
from semitop.topologies import (BasicNbhd, TopologyInstance, WeightSequence,
                                verify_star)
from semitop.wap import (LimitFunctional, arens_box, arens_diamond,
                         indicator_of_evens, subsequence_pair_family,
                         wap_test)

from oracles import member_bruteforce


def _check(report, cid):
    return next(c for c in report["checks"] if c["id"] == cid)


def _seconds(report, *cids):
    """The time the report's timing block gives the checks ``cids``."""
    return sum(report["timing"]["checks_ms"][cid] for cid in cids) / 1000


def _line(capfd, num, label, ok, seconds):
    with capfd.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"acceptance criterion {num:02d} [{label}]: {verdict} "
              f"({seconds:.2f}s)", flush=True)


@pytest.fixture(scope="module")
def lemma_report():
    return run_suite("lemma-technical")


@pytest.fixture(scope="module")
def gco_report():
    return run_suite("gen-con-one")


@pytest.fixture(scope="module")
def wap_report():
    return run_suite("nmax-wap")


@pytest.fixture(scope="module")
def l1s_report():
    return run_suite("unique-l1s")


def test_criterion_01_star_condition(capfd):
    t0 = time.monotonic()
    pos = verify_star(WeightSequence.double_exp(6))
    neg = verify_star(WeightSequence.explicit([1, 2, 3]))
    elapsed = time.monotonic() - t0
    ok = (pos.status == "PASS" and pos.witness["multisets"] == 3 ** 6
          and neg.status == "FAIL" and neg.witness["value"] == 3
          and {1: 1, 2: 1} in (neg.witness["first"], neg.witness["second"])
          and {3: 1} in (neg.witness["first"], neg.witness["second"]))
    _line(capfd, 1, "star condition, brute force", ok, elapsed)
    assert ok
    assert elapsed < 60


def test_criterion_02_interval_identity(capfd, lemma_report):
    c = _check(lemma_report, "interval-identity-sweep")
    elapsed = _seconds(lemma_report, c["id"])
    ok = c["status"] == "PASS" and c["witness"]["checked"] == 996
    _line(capfd, 2, "interval identity, exhaustive", ok, elapsed)
    assert ok
    assert elapsed < 120


def test_criterion_03_base_property(capfd, gco_report):
    c = _check(gco_report, "base-property-family")
    elapsed = _seconds(gco_report, c["id"])
    ok = (c["status"] == "PASS" and c["witness"]["family"] == 312
          and c["witness"]["pairs"] == 48516)
    _line(capfd, 3, "base property, pairwise enclosures", ok, elapsed)
    assert ok
    assert elapsed < 120


def test_criterion_04_separate_continuity(capfd, gco_report):
    cz = _check(gco_report, "separate-continuity-z")
    co = _check(gco_report, "separate-continuity-odd")
    elapsed = _seconds(gco_report, cz["id"], co["id"])
    ok = all(c["status"] == "PASS" and c["witness"]["triples"] >= 100
             for c in (cz, co))
    _line(capfd, 4, "separate continuity, both weight kinds", ok, elapsed)
    assert ok
    assert elapsed < 120


def test_criterion_05_hausdorff(capfd, gco_report):
    c = _check(gco_report, "hausdorff-exhaustive")
    elapsed = _seconds(gco_report, c["id"])
    ok = (c["status"] == "PASS" and c["witness"]["pairs"] == 23871
          and c["witness"]["points"] == 219)
    _line(capfd, 5, "Hausdorff separation, exhaustive", ok, elapsed)
    assert ok


def test_criterion_06_convergence_transfer(capfd):
    t0 = time.monotonic()
    rep = run_suite("gen-con-two", {"cases": 50})
    elapsed = time.monotonic() - t0
    tz = _check(rep, "transfer-z")
    to = _check(rep, "transfer-odd")
    ok = (rep["overall"] == "PASS"
          and all(c["witness"]["cases"] == 50
                  and c["witness"]["revalidated"] == 50 for c in (tz, to)))
    _line(capfd, 6, "convergence transfer with certificates", ok, elapsed)
    assert ok


def test_criterion_07_mask_family(capfd):
    t0 = time.monotonic()
    rep = run_suite("remark4-continuum")
    elapsed = time.monotonic() - t0
    c = _check(rep, "mask-family-pairwise-distinct")
    point = c["witness"]["sample_witness"]["point"]
    ok = (c["status"] == "PASS"
          and c["witness"]["pairs_distinct"] == 190
          and c["witness"]["expected"] == 190
          and len(point) == 2 and point[0] == 0)
    _line(capfd, 7, "20 masks pairwise distinguished", ok, elapsed)
    assert ok
    assert elapsed < 60


def test_criterion_08_member_vs_bruteforce(capfd):
    t0 = time.monotonic()
    T = TopologyInstance("z", WeightSequence.double_exp(6))
    w = T.weights
    centers = [0, w.value(1), -w.value(2)]
    points = []
    for x in range(0, 4):
        for k in range(0, 4):
            for combo in combinations(range(1, 7), k):
                for base in centers:
                    points.append((x, base + T.weight_total(combo)))
    checked = agreed = 0
    for a in range(0, 4):
        for s in centers:
            for alpha in range(1, 7):
                U = BasicNbhd(a, s, alpha)
                for p in points:
                    fast = T.member(U, p)
                    slow = member_bruteforce(T, U, p)
                    same = fast.status == slow.status and (
                        not fast
                        or tuple(fast.witness) == tuple(slow.witness))
                    checked += 1
                    agreed += same
    elapsed = time.monotonic() - t0
    ok = checked == agreed and checked == 4 * 3 * 6 * len(points)
    _line(capfd, 8, f"representation vs brute force, {checked} checks",
          ok, elapsed)
    assert ok


def test_criterion_09_wap_double_limits(capfd, wap_report):
    t0 = time.monotonic()
    rnd = _check(wap_report, "wap-random-family")
    ind = indicator_of_evens(200)
    omega = LimitFunctional.evens(200)
    upsilon = LimitFunctional.odds(200)
    direct = wap_test(ind, subsequence_pair_family(50, 200, seed=0))
    ok = (rnd["status"] == "PASS"
          and rnd["witness"]["functions"] == 50
          and rnd["witness"]["pairs"] == 50
          and arens_box(omega, upsilon, ind) == Fraction(0)
          and arens_diamond(omega, upsilon, ind) == Fraction(1)
          and direct.status == "FAIL"
          and direct.witness["box"] == 0
          and direct.witness["diamond"] == 1)
    elapsed = _seconds(wap_report, rnd["id"]) + (time.monotonic() - t0)
    _line(capfd, 9, "random WAP family and exact non-WAP witness",
          ok, elapsed)
    assert ok


def test_criterion_10_module_action(capfd, l1s_report):
    act = _check(l1s_report, "max-action-closed-form")
    tel = _check(l1s_report, "telescoping-trials")
    shp = _check(l1s_report, "sharpness-witness-trials")
    elapsed = _seconds(l1s_report, *(c["id"] for c in (act, tel, shp)))
    ok = (act["status"] == "PASS" and act["witness"]["identities"] == 150
          and tel["status"] == "PASS" and tel["witness"]["trials"] == 1000
          and shp["status"] == "PASS" and shp["witness"]["trials"] == 1000)
    _line(capfd, 10, "module action formula, telescoping, sharpness",
          ok, elapsed)
    assert ok
    assert elapsed < 60


def test_criterion_11_no_predual_obstruction(capfd):
    t0 = time.monotonic()
    rep = run_suite("section4-no-predual")
    elapsed = time.monotonic() - t0
    sweep = _check(rep, "open-set-identity-sweep")
    fnp = _check(rep, "fnp-random")
    ann = _check(rep, "annihilation-cases")
    ok = (rep["overall"] == "PASS"
          and sweep["witness"]["universe"] == 4051
          and sweep["witness"]["specs_checked"] == 12032
          and fnp["witness"]["trials"] == 1000
          and ann["witness"]["random_cases"] == 200
          and _check(rep, "fnp-negative-control")["status"] == "PASS"
          and _check(rep, "annihilation-negative-control")["status"] == "PASS"
          and _check(rep, "proof-skeleton")["status"] == "PASS")
    _line(capfd, 11, "no-predual obstruction, exhaustive + random",
          ok, elapsed)
    assert ok


def test_criterion_12_structural_dichotomy(capfd):
    t0 = time.monotonic()
    structural = run_suite("structural")
    rees = run_suite("rees-cancellativity")
    elapsed = time.monotonic() - t0
    infty = _check(rees, "growth-witness-nat-infty")
    rmat = _check(rees, "growth-witness-rees")
    ok = (structural["overall"] == "PASS"
          and rees["overall"] == "PASS"
          and _check(rees, "weakly-cancellative-nat-max")["status"] == "PASS"
          and infty["witness"]["counts"][-1] >= 100
          and rmat["witness"]["counts"][-1] >= 100)
    _line(capfd, 12, "cancellativity dichotomy with growth witnesses",
          ok, elapsed)
    assert ok

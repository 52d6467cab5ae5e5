import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semitop.l1 import BoundedFunction, L1Vector, convolve, pairing_vectors
from semitop.semigroups import NatMax
from semitop.verdicts import (NOT_APPLICABLE, NOT_WAP, PASS, UNDETERMINED,
                              WAP_CONSISTENT, Verdict)
from semitop.wap import (LimitFunctional, SharpnessWitness, arens_box,
                         arens_diamond, counterexample_x, eval_limit,
                         indicator_of_evens, random_c0_plus_const,
                         subsequence_pair_family, telescoping_check, wap_test)

F = Fraction
S = NatMax()


def _d(e, c=1):
    return L1Vector.delta(S, e, F(c))


def test_limit_functional_validation():
    LimitFunctional((1, 3, 5), 10)
    with pytest.raises(ValueError):
        LimitFunctional((3, 3), 10)
    with pytest.raises(ValueError):
        LimitFunctional((2, 11), 10)


def test_eval_limit_constant_plus_c0_is_exact():
    f = BoundedFunction.c0_plus_const({5: F(100)}, F(2, 3))
    phi = LimitFunctional.evens(50)
    assert eval_limit(phi, f) == F(2, 3)


def test_eval_limit_sampled_needs_stabilization():
    tail = [F(0)] * 10 + [F(1)] * 30
    f = BoundedFunction.sampled(tail)
    assert eval_limit(LimitFunctional.arithmetic(1, 1, 40), f) == 1
    wob = BoundedFunction.sampled([F(n % 2) for n in range(40)])
    assert eval_limit(LimitFunctional.arithmetic(1, 1, 40), wob) is None


def test_arens_values_for_indicator_of_evens():
    omega = LimitFunctional.evens(200)
    upsilon = LimitFunctional.odds(200)
    f = indicator_of_evens(200)
    assert arens_box(omega, upsilon, f) == 0
    assert arens_diamond(omega, upsilon, f) == 1


def test_arens_collapse_for_certified_members():
    omega = LimitFunctional.evens(100)
    upsilon = LimitFunctional.odds(100)
    one = BoundedFunction.c0_plus_const({}, F(1))
    bump = BoundedFunction.c0_plus_const({7: F(3)}, F(0))
    for f, want in ((one, F(1)), (bump, F(0))):
        assert arens_box(omega, upsilon, f) == want
        assert arens_diamond(omega, upsilon, f) == want


def test_arens_box_diamond_swap_symmetry():
    # max is commutative, so iterating in the other order along swapped
    # subsequences gives the same value
    omega = LimitFunctional.evens(120)
    upsilon = LimitFunctional.odds(120)
    vals = [F(1) if n % 3 == 0 else F(0) for n in range(1, 61)]
    vals += [F(1)] * 60
    f = BoundedFunction.sampled(vals)
    b = arens_box(omega, upsilon, f)
    d = arens_diamond(upsilon, omega, f)
    assert b is not None and b == d


def test_wap_test_certifies_c0_plus_const():
    pairs = subsequence_pair_family(10, 200, seed=1)
    f = BoundedFunction.c0_plus_const({2: F(1, 2)}, F(-3))
    v = wap_test(f, pairs)
    assert v.status == WAP_CONSISTENT
    assert "certified" in v.detail


def test_wap_test_flags_indicator():
    pairs = subsequence_pair_family(10, 200, seed=1)
    v = wap_test(indicator_of_evens(200), pairs)
    assert v.status == NOT_WAP
    assert v.witness["box"] == 0
    assert v.witness["diamond"] == 1


def test_wap_test_sample_shorter_than_pair_horizon():
    # subsequences reaching past the sampled prefix must clamp, not raise
    pairs = subsequence_pair_family(10, 200, seed=1)
    v = wap_test(indicator_of_evens(40), pairs)
    assert v.status == NOT_WAP
    assert eval_limit(LimitFunctional.arithmetic(50, 1, 200),
                      indicator_of_evens(40)) is None


def test_wap_test_returns_verdict_for_every_status():
    pairs = subsequence_pair_family(10, 200, seed=1)
    never_stable = BoundedFunction.sampled([F(n) for n in range(1, 201)])
    for f, status in ((BoundedFunction.c0_plus_const({}, F(1)), WAP_CONSISTENT),
                      (indicator_of_evens(200), NOT_WAP),
                      (never_stable, UNDETERMINED)):
        v = wap_test(f, pairs)
        assert isinstance(v, Verdict) and v.status == status


@st.composite
def _limit_functionals(draw):
    horizon = draw(st.integers(1, 80))
    along = draw(st.sets(st.integers(1, horizon), min_size=1))
    return LimitFunctional(tuple(sorted(along)), horizon)


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(-1, 1), st.integers(1, 40)),
                min_size=1, max_size=4),
       st.lists(st.tuples(_limit_functionals(), _limit_functionals()),
                min_size=1, max_size=4))
def test_wap_test_never_raises_on_explicit_pairs(runs, pairs):
    # step functions stabilize often, so pairs with different horizons
    # reach determined but disagreeing iterated limits and collapses
    f = BoundedFunction.sampled([F(v) for v, n in runs for _ in range(n)])
    v = wap_test(f, pairs)
    assert v.status in (WAP_CONSISTENT, NOT_WAP, UNDETERMINED)


def test_subsequence_pair_family_deterministic():
    a = subsequence_pair_family(5, 100, seed=3)
    b = subsequence_pair_family(5, 100, seed=3)
    assert a == b
    assert a[0][0].along[:3] == (2, 4, 6)


# -- telescoping --------------------------------------------------------


def test_telescoping_constant_function_passes():
    a = _d(1) - _d(2)
    x = BoundedFunction.c0_plus_const({1: F(1), 2: F(1)}, F(0))
    v = telescoping_check(a, x, 6)
    assert v.status == PASS
    assert v.witness["vanishing_part_pairing"] == 0


def test_telescoping_hypothesis_can_fail():
    a = _d(1)
    x = BoundedFunction.c0_plus_const({1: F(1)}, F(0))
    v = telescoping_check(a, x, 5)
    assert v.status == "FAIL"
    assert "hypothesis" in v.detail


def test_telescoping_identity_form():
    # the hypothesis is equivalent to sum_{n<=s} a_n x_n = x_s sum_{n<=s} a_n
    rng = random.Random(11)
    for _ in range(50):
        k = rng.randint(2, 6)
        c = F(rng.randint(1, 5))
        a = _d(1, 1) - _d(k, 1) + _d(k + 2, rng.randint(-3, 3))
        x = BoundedFunction.c0_plus_const({n: c for n in range(1, k + 1)},
                                          F(rng.randint(-2, 2)))
        v = telescoping_check(a, x, k + 4)
        assert v.status == PASS, v


# -- sharpness witness ---------------------------------------------------


def test_counterexample_two_term_pinned():
    a = _d(1) + _d(2)
    v = counterexample_x(a)
    assert isinstance(v, Verdict) and v.status == PASS
    w = v.witness
    assert isinstance(w, SharpnessWitness)
    assert w.s == 3
    assert w.x == _d(2) - _d(1) + _d(3)
    assert w.pairing_a == 0
    assert w.pairing_translated == 2


def test_counterexample_single_term():
    a = _d(5, 2)
    w = counterexample_x(a).witness
    assert w.s == 6
    assert pairing_vectors(w.x, a) == 0
    assert pairing_vectors(w.x, convolve(_d(6), a)) == 2


def test_counterexample_zero_mass_not_applicable():
    v = counterexample_x(_d(1) - _d(2))
    assert isinstance(v, Verdict)
    assert v.status == NOT_APPLICABLE


def test_counterexample_unsorted_support():
    # support points whose string order differs from numeric order
    a = _d(10, 3) + _d(2, 4)
    w = counterexample_x(a).witness
    assert pairing_vectors(w.x, a) == 0
    moved = convolve(_d(w.s), a)
    assert pairing_vectors(w.x, moved) == w.pairing_translated != 0


@settings(max_examples=150)
@given(st.lists(st.tuples(st.integers(1, 40), st.integers(-6, 6)),
                min_size=1, max_size=5))
def test_counterexample_property(terms):
    a = L1Vector(S, [(e, F(c)) for e, c in terms])
    total = sum((F(c) for _, c in a.terms()), F(0))
    out = counterexample_x(a)
    if a.is_zero or total == 0:
        assert out.status == NOT_APPLICABLE
    else:
        assert out.status == PASS
        w = out.witness
        assert pairing_vectors(w.x, a) == 0
        moved = convolve(_d(w.s), a)
        expected = sum((c for t, c in a.terms() if t <= w.s), F(0))
        assert pairing_vectors(w.x, moved) == expected != 0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_telescoping_random_never_contradicts(seed):
    rng = random.Random(seed)
    a = L1Vector(S, [(rng.randint(1, 15), F(rng.randint(-4, 4)))
                     for _ in range(rng.randint(1, 4))])
    x = random_c0_plus_const(rng, support_max=15)
    top = max(a.support() + list(x.mod) + [1])
    v = telescoping_check(a, x, top + 2)
    # either the hypothesis fails at some s, or the conclusion holds; the
    # "should be unreachable" branch must never fire
    if a.is_zero:
        assert v.status == PASS and "vacuous" in v.detail
    elif v.status == "FAIL":
        assert "hypothesis" in v.detail
    else:
        assert v.witness["vanishing_part_pairing"] == 0

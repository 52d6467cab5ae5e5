from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semitop.l1 import (BoundedFunction, L1Vector, _frac, convolve,
                        max_action_formula, pairing, pairing_vectors)
from semitop import suites
from semitop.jsonio import read_params
from semitop.semigroups import FreeWords, NatMax, NatMul

from oracles import coeff_sum

F = Fraction


def _d(S, e, c=1):
    return L1Vector.delta(S, e, F(c))


def _norm(a):
    """The l1 norm, summed over the terms."""
    return sum((abs(c) for _, c in a.terms()), F(0))


def test_vector_arithmetic_and_norm():
    S = NatMax()
    a = _d(S, 1, 2) + _d(S, 3, F(-1, 2))
    assert a.coeff(1) == 2
    assert a.coeff(2) == 0
    assert _norm(a) == F(5, 2)
    assert (a - a).is_zero


def test_zero_coefficients_are_dropped():
    S = NatMax()
    a = _d(S, 4) - _d(S, 4)
    assert a.is_zero
    assert a.support() == []


def test_convolution_nat_mul():
    S = NatMul()
    a = _d(S, 2) + _d(S, 3)
    b = _d(S, 5)
    c = convolve(a, b)
    assert c.coeff(10) == 1 and c.coeff(15) == 1 and _norm(c) == 2


def test_convolution_nat_max_collapses():
    # delta_2 * delta_2 = delta_max(2,2) = delta_2
    S = NatMax()
    assert convolve(_d(S, 2), _d(S, 2)) == _d(S, 2)
    out = convolve(_d(S, 1) + _d(S, 3), _d(S, 2))
    assert out == _d(S, 2) + _d(S, 3)


def test_convolution_drops_cancelled_coefficients():
    S = NatMax()
    assert convolve(_d(S, 1) - _d(S, 2), _d(S, 2)).is_zero
    W = FreeWords("ab")
    # a.ab and aa.b are both aab, with opposite signs
    out = convolve(_d(W, "a") - _d(W, "aa"), _d(W, "ab") + _d(W, "b"))
    assert out.support() == ["aaab", "ab"]


def test_convolution_is_bilinear():
    S = NatMul()
    a, b, c = _d(S, 2), _d(S, 3), _d(S, 5)
    assert convolve(a + b, c) == convolve(a, c) + convolve(b, c)


def test_bounded_function_modes():
    # a finitely modified constant pairs with every vector; a sampled
    # function is read only by the limits along subsequences
    S = NatMax()
    f = BoundedFunction.c0_plus_const({2: F(1, 3)}, F(5))
    assert pairing(_d(S, 2), f) == F(5) + F(1, 3)
    assert pairing(_d(S, 99), f) == 5
    g = BoundedFunction.sampled([F(1), F(0), F(1)])
    assert g._ints == ((1, 1), (0, 1), (1, 1))
    with pytest.raises(TypeError):
        pairing(_d(S, 2), g)


def test_bounded_functions_are_built_only_by_their_kind():
    # the tagged constructor kept what its tag did not use and dropped it
    with pytest.raises(TypeError):
        BoundedFunction("sampled", mod={1: 5}, const=7, values=[1, 0])
    with pytest.raises(TypeError):
        BoundedFunction()


def test_equal_samples_are_equal_and_hash_alike():
    # each sample is kept once, as its pair in lowest terms
    f = BoundedFunction.sampled([F(2, 4), 1])
    g = BoundedFunction.sampled([F(1, 2), 1])
    assert f == g and hash(f) == hash(g)
    assert f != BoundedFunction.sampled([F(1, 2), 1, 1])
    assert f != BoundedFunction.c0_plus_const({1: F(1, 2)}, 1)
    c = BoundedFunction.c0_plus_const({3: F(2, 4), 4: 0}, 1)
    assert c == BoundedFunction.c0_plus_const({3: F(1, 2)}, 1)
    assert hash(c) == hash(BoundedFunction.c0_plus_const({3: F(1, 2)}, 1))


def test_pairing_is_the_coefficient_sum():
    S = NatMax()
    a = _d(S, 1, 2) + _d(S, 4, -1)
    f = BoundedFunction.c0_plus_const({1: F(1, 2)}, F(1))
    # <a, f> = 2 * (1 + 1/2) + (-1) * 1
    assert pairing(a, f) == F(2)


def test_pairing_vectors():
    S = NatMax()
    x = _d(S, 2) - _d(S, 1)
    a = _d(S, 1, 5) + _d(S, 2, 5)
    assert pairing_vectors(x, a) == 0


def test_max_action_formula_examples():
    S = NatMax()
    a = _d(S, 1, 1) + _d(S, 2, 1) + _d(S, 5, -2)
    out = max_action_formula(3, a)
    # mass at or below s rides on delta_s, the tail stays put
    assert out.coeff(3) == 2
    assert out.coeff(5) == -2
    assert out == convolve(_d(S, 3), a)


@given(st.integers(1, 50),
       st.lists(st.tuples(st.integers(1, 60), st.integers(-5, 5)),
                min_size=1, max_size=5))
def test_max_action_formula_agrees_with_convolution(s, terms):
    S = NatMax()
    a = L1Vector(S, [(e, F(c)) for e, c in terms])
    assert max_action_formula(s, a) == convolve(_d(S, s), a)


def test_max_action_check_fails_on_a_wrong_formula(monkeypatch):
    # the closed form with delta_s left off: the check, not the formula,
    # must catch it
    monkeypatch.setattr(suites, "max_action_formula", lambda s, a: a)
    name = "unique-l1s"
    checks = suites.SUITES[name](read_params({}, suites.SUITE_PARAMS[name]), 0)
    v = dict(checks)["max-action-closed-form"]()
    assert v.status == "FAIL"
    w = v.witness
    assert set(w) == {"s", "a", "formula", "convolution"}
    assert w["formula"] == w["a"] != w["convolution"]
    assert w["convolution"] == convolve(_d(NatMax(), w["s"]), w["a"])


@given(st.lists(st.tuples(st.integers(1, 9), st.integers(-4, 4)),
                min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(1, 9), st.integers(-4, 4)),
                min_size=1, max_size=4))
def test_convolution_norm_submultiplicative(t1, t2):
    S = NatMul()
    a = L1Vector(S, [(e, F(c)) for e, c in t1])
    b = L1Vector(S, [(e, F(c)) for e, c in t2])
    assert _norm(convolve(a, b)) <= _norm(a) * _norm(b)


def _convolve_validating(a, b):
    """The convolution as it was built before: sums onto Fraction(0), then
    the validating constructor."""
    S = a.instance
    out = {}
    for s, cs in a.terms():
        for t, ct in b.terms():
            st_ = S.product(s, t)
            out[st_] = out.get(st_, F(0)) + cs * ct
    return L1Vector(S, out)


# few distinct values, so that products cancel to zero often
_coeffs = st.sampled_from([F(-1), F(1), F(-1, 2), F(1, 2), F(2)])


@given(st.sampled_from(["nat_max", "free_ab"]), st.data())
def test_convolution_matches_validating_constructor(kind, data):
    if kind == "nat_max":
        S, elems = NatMax(), st.integers(1, 6)
    else:
        S, elems = FreeWords("ab"), st.text(alphabet="ab", min_size=1, max_size=2)
    terms = st.lists(st.tuples(elems, _coeffs), max_size=5)
    a = L1Vector(S, data.draw(terms))
    b = L1Vector(S, data.draw(terms))
    got = convolve(a, b)
    want = _convolve_validating(a, b)
    assert got == want and got.terms() == want.terms()
    assert all(isinstance(c, F) and c != 0 for _, c in got.terms())


def test_mixed_instances_rejected():
    a = _d(NatMax(), 1)
    b = _d(NatMul(), 1)
    with pytest.raises(TypeError):
        convolve(a, b)


@pytest.mark.parametrize("bad", ["1e3", "1/2", "1e100000000", 0.5, True, None])
def test_only_ints_and_fractions_are_coefficients(bad):
    with pytest.raises(TypeError):
        _frac(bad)
    with pytest.raises(TypeError):
        L1Vector.delta(NatMax(), 1, bad)
    with pytest.raises(TypeError):
        BoundedFunction.c0_plus_const({}, bad)


# -- the integer-numerator form against a dict-of-Fractions reference ---


def _canonical(v):
    """The stored form: nonzero int numerators over a positive int
    denominator, in lowest terms."""
    nums = list(v._num.values())
    return (type(v._den) is int and v._den > 0
            and all(type(n) is int and n for n in nums)
            and gcd(v._den, *nums) == 1)


def _ref(terms):
    out = {}
    for e, c in terms:
        out[e] = out.get(e, F(0)) + c
    return {e: c for e, c in out.items() if c}


def _ref_terms(ref):
    return sorted(ref.items(), key=lambda kv: repr(kv[0]))


def _agrees(v, ref):
    return (_canonical(v) and v.terms() == _ref_terms(ref)
            and all(isinstance(c, F) for _, c in v.terms()))


_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def _instance(kind):
    if kind == "nat_max":
        return NatMax(), st.integers(1, 6)
    return FreeWords("ab"), st.text(alphabet="ab", min_size=1, max_size=2)


@given(st.sampled_from(["nat_max", "free_ab"]), st.data())
def test_integer_form_matches_fraction_reference(kind, data):
    S, elems = _instance(kind)
    terms = st.lists(st.tuples(elems, _fracs), max_size=5)
    ta, tb = data.draw(terms), data.draw(terms)
    a, b = L1Vector(S, ta), L1Vector(S, tb)
    ra, rb = _ref(ta), _ref(tb)
    assert _agrees(a, ra) and _agrees(b, rb)
    assert _agrees(a + b, _ref(list(ra.items()) + list(rb.items())))
    assert _agrees(a - b, _ref(list(ra.items()) + [(e, -c) for e, c in rb.items()]))
    assert _agrees(-a, {e: -c for e, c in ra.items()})
    assert _agrees(convolve(a, b), _ref([(S.op(s, t), cs * ct)
                                         for s, cs in ra.items()
                                         for t, ct in rb.items()]))
    assert coeff_sum(a) == sum(ra.values(), F(0))
    for e in data.draw(st.lists(elems, max_size=4)):
        assert a.coeff(e) == ra.get(e, F(0)) and isinstance(a.coeff(e), F)
    assert pairing_vectors(a, b) == sum(
        (c * ra.get(e, F(0)) for e, c in rb.items()), F(0))
    assert (a == b) == (ra == rb)
    # the same vector built another way: equal, and hashes equal
    again = L1Vector(S, list(reversed(ta))) + b - b
    assert again == a and hash(again) == hash(a)
    # delta with an int coefficient skips the Fraction but stays canonical;
    # a zero coefficient leaves no key
    for e, n in data.draw(st.lists(st.tuples(elems, st.integers(-4, 4)),
                                   min_size=1, max_size=3)):
        d = L1Vector.delta(S, e, n)
        assert _agrees(d, _ref([(e, F(n))])) and d == L1Vector.delta(S, e, F(n))
        assert d.is_zero == (n == 0)
    # a product whose terms cancel drops the cancelled key
    p, q, gone = {"nat_max": ([(1, 1), (3, 1)], [(1, 1), (2, -1)], 3),
                  "free_ab": ([("a", 1), ("aa", 1)], [("ab", 1), ("b", -1)],
                              "aab")}[kind]
    prod = convolve(L1Vector(S, p), L1Vector(S, q))
    assert gone not in prod._num and _canonical(prod) and not prod.is_zero
    # a bool, a float or a string is not an exact rational coefficient
    for bad in (True, 1.0, "1"):
        with pytest.raises(TypeError):
            L1Vector.delta(S, data.draw(elems), bad)


@given(st.sampled_from(["nat_max", "free_ab"]), st.data())
def test_pairing_matches_fraction_reference(kind, data):
    S, elems = _instance(kind)
    terms = data.draw(st.lists(st.tuples(elems, _fracs), max_size=5))
    a, ra = L1Vector(S, terms), _ref(terms)
    mod = data.draw(st.dictionaries(elems, _fracs, max_size=4))
    const = data.draw(_fracs)
    f = BoundedFunction.c0_plus_const(mod, const)
    want = sum((c * (const + mod.get(e, F(0))) for e, c in ra.items()), F(0))
    got = pairing(a, f)
    assert got == want and isinstance(got, F)
    if kind != "nat_max":
        return
    g = BoundedFunction.sampled(data.draw(st.lists(_fracs, min_size=1,
                                                  max_size=8)))
    with pytest.raises(TypeError):      # only a finitely modified constant
        pairing(a, g)


def test_integer_form_is_canonical():
    S = NatMax()
    half = _d(S, 1, F(1, 2)) + _d(S, 1, F(1, 2))
    assert half == _d(S, 1) and hash(half) == hash(_d(S, 1))
    assert (half._num, half._den) == ({1: 1}, 1)
    gone = _d(S, 2, F(1, 3)) + _d(S, 2, F(-1, 3))
    assert gone.is_zero and gone._den == 1 and gone == L1Vector(S)
    assert L1Vector(S, [(1, F(2, 6)), (2, F(4, 6))])._den == 3

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semitop import wap
from semitop.l1 import (BoundedFunction, L1Vector, convolve,
                        pairing, pairing_vectors)
from semitop.semigroups import NatMax, positive_int
from semitop.verdicts import (FAIL, NOT_APPLICABLE, PASS, UNDETERMINED,
                              Verdict, passed)
from semitop.wap import (LimitFunctional, SharpnessWitness, arens_box,
                         arens_diamond, counterexample_x, eval_limit,
                         indicator_of_evens, subsequence_pair_family,
                         telescoping_check, wap_test)
from semitop.wap import _iterated_max_limit

from oracles import (coeff_sum, counterexample_x_rescanning, eval_limit_oracle,
                     stabilized)

F = Fraction
S = NatMax()


def _d(e, c=1):
    return L1Vector.delta(S, e, F(c))


def random_c0_plus_const(rng, support_max=30):
    """Up to six modifications of 1..support_max and the constant, each
    -9..9 over 1..9, drawn from ``rng``."""
    mod = {}
    for _ in range(rng.randint(0, 6)):
        mod[rng.randint(1, support_max)] = F(rng.randint(-9, 9),
                                             rng.randint(1, 9))
    return BoundedFunction.c0_plus_const(
        mod, F(rng.randint(-9, 9), rng.randint(1, 9)))


def test_limit_functional_validation():
    LimitFunctional((1, 3, 5), 10)
    with pytest.raises(ValueError):
        LimitFunctional((3, 3), 10)
    with pytest.raises(ValueError):
        LimitFunctional((2, 11), 10)


@pytest.mark.parametrize("along,horizon", [
    ((1.9, 3.2), 5),        # once truncated to (1, 3)
    ((True, 3), 5),         # once read as (1, 3)
    (("1", 3), 5),
    ((1, 3), 5.5),
])
def test_limit_functional_takes_only_exact_ints(along, horizon):
    with pytest.raises(ValueError):
        LimitFunctional(along, horizon)


@given(st.integers(1, 300), st.integers(1, 300), st.integers(1, 300))
def test_arithmetic_functional_equals_the_checked_constructor(start, step,
                                                              horizon):
    if start > horizon:
        with pytest.raises(ValueError, match="must be nonempty"):
            LimitFunctional.arithmetic(start, step, horizon)
        return
    phi = LimitFunctional.arithmetic(start, step, horizon)
    checked = LimitFunctional(tuple(range(start, horizon + 1, step)), horizon)
    assert phi == checked and hash(phi) == hash(checked)


def test_arithmetic_functionals_check_their_parameters_only(monkeypatch):
    # per-index validation of a 200-index family would call positive_int
    # once per index, i.e. dozens of times per functional
    calls = 0

    def counted(x, what="a domain point or value"):
        nonlocal calls
        calls += 1
        return positive_int(x, what)

    monkeypatch.setattr(wap, "positive_int", counted)
    for seed in range(5):
        calls = 0
        pairs = list(subsequence_pair_family(20, 200, seed))
        assert 0 < calls <= 3 * 2 * len(pairs)


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
    assert v.status == PASS
    assert "certified" in v.detail


def test_wap_test_flags_indicator():
    pairs = subsequence_pair_family(10, 200, seed=1)
    v = wap_test(indicator_of_evens(200), pairs)
    assert v.status == FAIL
    assert v.witness["box"] == 0
    assert v.witness["diamond"] == 1


def test_wap_test_sample_shorter_than_pair_horizon():
    # subsequences reaching past the sampled prefix must clamp, not raise
    pairs = subsequence_pair_family(10, 200, seed=1)
    v = wap_test(indicator_of_evens(40), pairs)
    assert v.status == FAIL
    assert eval_limit(LimitFunctional.arithmetic(50, 1, 200),
                      indicator_of_evens(40)) is None


def test_wap_test_returns_verdict_for_every_status():
    pairs = list(subsequence_pair_family(10, 200, seed=1))
    never_stable = BoundedFunction.sampled([F(n) for n in range(1, 201)])
    for f, status in ((BoundedFunction.c0_plus_const({}, F(1)), PASS),
                      (indicator_of_evens(200), FAIL),
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
    assert v.status in (PASS, FAIL, UNDETERMINED)


# The double loop that `_iterated_max_limit` replaced: every f(max(s, t))
# is read off the samples and each row is stabilized in full.  Kept as the
# oracle.
def _iterated_max_limit_oracle(outer, inner, f):
    if f.tag == "c0_plus_const":
        return f.const
    horizon = min(outer.horizon, inner.horizon, len(f._ints))
    outer_pts = [s for s in outer.along if s <= horizon // 2]
    inner_pts = [t for t in inner.along if t <= horizon]
    if not outer_pts or not inner_pts:
        return None
    rows = []
    for s in outer_pts:
        v = stabilized([F(*f._ints[max(s, t) - 1]) for t in inner_pts])
        if v is None:
            return None
        rows.append(v)
    return stabilized(rows)


def _arens_box_oracle(omega, upsilon, f):
    value = _iterated_max_limit_oracle(omega, upsilon, f)
    collapse = eval_limit_oracle(upsilon, f)
    if value is not None and collapse is not None and value != collapse:
        return None
    return value


# values with unlike denominators, so that a limit must come back over
# its own denominator, not 1 or another sample's
_step_functions = st.lists(
    st.tuples(st.sampled_from([F(-1, 3), F(5, 6), F(2)]), st.integers(1, 40)),
    min_size=1, max_size=6).map(
    lambda runs: BoundedFunction.sampled([v for v, n in runs for _ in range(n)]))


@st.composite
def _arithmetic_functionals(draw):
    horizon = draw(st.integers(1, 160))
    start = draw(st.integers(1, min(horizon, 8)))
    return LimitFunctional.arithmetic(start, draw(st.integers(1, 6)), horizon)


_functionals = st.one_of(_arithmetic_functionals(), _limit_functionals())


@settings(max_examples=400, deadline=None)
@given(_step_functions, _functionals, _functionals)
def test_arens_limits_match_double_loop(f, omega, upsilon):
    # horizons are drawn independently, so pairs mix horizons shorter and
    # longer than the sample and than each other
    assert (_iterated_max_limit(omega, upsilon, f)
            == _iterated_max_limit_oracle(omega, upsilon, f))
    assert arens_box(omega, upsilon, f) == _arens_box_oracle(omega, upsilon, f)
    assert (arens_diamond(omega, upsilon, f)
            == _arens_box_oracle(upsilon, omega, f))
    assert eval_limit(omega, f) == eval_limit_oracle(omega, f)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 3))
def test_arens_limits_match_double_loop_on_periodic_tails(period, shift, tail):
    # a periodic prefix followed by a constant tail: rows stabilize only
    # where the tail reaches, which exercises every branch of the row rule
    vals = [F((n // period + shift) % 2) for n in range(1, 81)]
    vals += [F(1)] * (20 * tail)
    f = BoundedFunction.sampled(vals)
    for omega, upsilon in subsequence_pair_family(6, len(vals), seed=period):
        assert arens_box(omega, upsilon, f) == _arens_box_oracle(omega, upsilon, f)
        assert (arens_diamond(omega, upsilon, f)
                == _arens_box_oracle(upsilon, omega, f))


def test_iterated_limit_matches_double_loop_exhaustively():
    # every 0/1 function on [1, 6] against every pair of subsequences
    # there: each branch of the row rule, including inner points at or
    # below the outer point and tails whose final run is a single term
    horizon = 6

    def subsequences(top):
        return [LimitFunctional(c, horizon) for r in range(1, top + 1)
                for c in combinations(range(1, top + 1), r)]

    inners = subsequences(horizon)
    outers = subsequences(horizon // 2)
    for bits in range(2 ** horizon):
        f = BoundedFunction.sampled([F((bits >> i) & 1) for i in range(horizon)])
        for outer in outers:
            for inner in inners:
                assert (_iterated_max_limit(outer, inner, f)
                        == _iterated_max_limit_oracle(outer, inner, f))


class _CountingSamples:
    """A read-only sequence that counts the items read from it."""

    def __init__(self, items):
        self.items, self.reads = tuple(items), 0

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        self.reads += 1
        return self.items[i]


def test_arens_limits_evaluate_linearly_often():
    # one explicit 4000-point pair: the double loop reads f about
    # 8 million times here, the row rule once per point and per tail entry
    omega = LimitFunctional(tuple(range(2, 8001, 2)), 8000)
    upsilon = LimitFunctional(tuple(range(1, 8001, 2)), 8000)
    f = indicator_of_evens(8000)
    samples = _CountingSamples(f._ints)
    f._ints = samples
    budget = 2 * (len(omega.along) + len(upsilon.along))
    assert arens_box(omega, upsilon, f) == 0
    assert 0 < samples.reads <= budget
    samples.reads = 0
    assert arens_diamond(omega, upsilon, f) == 1
    assert 0 < samples.reads <= budget


def test_samples_with_coprime_denominators_stay_small():
    # 2000 values 1/q over distinct odd q near 10^9 have an lcm of about
    # 18,000 digits: brought over one common denominator they would take
    # about 12 MB, held as their own (numerator, denominator) pairs 0.15 MB
    tail = F(5, 10 ** 9 + 4001)
    vals = [F(1, 10 ** 9 + 2 * k + 1) for k in range(2000)] + [tail] * 1000
    tracemalloc.start()
    try:
        f = BoundedFunction.sampled(vals)
        limit = eval_limit(LimitFunctional.evens(len(vals)), f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert limit == tail
    assert eval_limit(LimitFunctional.evens(2000), f) is None
    assert peak < 2 * 10 ** 6


@pytest.mark.parametrize("seed", range(5))
def test_wap_test_reads_the_lazy_family_as_the_list(seed):
    # drawn finitely modified constants, and a sampled function that
    # agrees on every pair, so the generator is read to its end
    rng = random.Random(f"{seed}:wapfam")
    functions = [indicator_of_evens(200), BoundedFunction.sampled([F(1)] * 200),
                 *(random_c0_plus_const(rng) for _ in range(50))]
    for f in functions:
        assert (wap_test(f, subsequence_pair_family(50, 200, seed))
                == wap_test(f, list(subsequence_pair_family(50, 200, seed))))


def test_subsequence_pair_family_deterministic():
    a = list(subsequence_pair_family(5, 100, seed=3))
    b = list(subsequence_pair_family(5, 100, seed=3))
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
    assert v.status == NOT_APPLICABLE
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


# The function `telescoping_check` replaced: the identity loop re-sums the
# support below s for every s.  Kept as the oracle.
def _telescoping_check_oracle(a, x, s_max):
    S = a.instance
    if a.is_zero:
        return passed(detail="vacuous: a = 0")
    base = pairing(a, x)
    for s in range(1, s_max + 1):
        moved = pairing(convolve(L1Vector.delta(S, s), a), x)
        if moved != base:
            return Verdict(NOT_APPLICABLE, {"s": s, "lhs": base, "rhs": moved},
                           f"hypothesis fails at s = {s}")
    supp = a.support()
    at = {t: x.const + x.mod.get(t, 0) for t in range(1, s_max + 1)}
    for s in range(1, s_max + 1):
        head = sum((c * at[t] for t, c in a.terms() if t <= s), F(0))
        mass = sum((c for t, c in a.terms() if t <= s), F(0))
        if head != at[s] * mass:
            raise ArithmeticError("internal inconsistency")
    clear = max(supp + list(x.mod) + [0])
    if s_max <= clear:
        return passed(witness={"s_max": s_max},
                      detail="hypothesis and identity verified; s_max does not "
                             "clear the supports, conclusion not evaluated")
    return passed(witness={"s_max": s_max, "pairing": base,
                           "vanishing_part_pairing": F(0)},
                  detail="hypothesis, identity and vanishing conclusion all hold")


@st.composite
def _telescoping_inputs(draw):
    if draw(st.booleans()):
        # the shape that satisfies the hypothesis: x constant on [1, k]
        k = draw(st.integers(2, 8))
        c = F(draw(st.integers(-5, 5)))
        a = (_d(1, draw(st.integers(-3, 3))) - _d(k, draw(st.integers(-3, 3)))
             + _d(k + draw(st.integers(1, 4)), draw(st.integers(-3, 3))))
        x = BoundedFunction.c0_plus_const({n: c for n in range(1, k + 1)},
                                          F(draw(st.integers(-2, 2))))
    else:
        a = L1Vector(S, draw(st.lists(
            st.tuples(st.integers(1, 15), st.integers(-4, 4).map(F)),
            max_size=5)))
        x = BoundedFunction.c0_plus_const(
            draw(st.dictionaries(st.integers(1, 15),
                                 st.fractions(-3, 3, max_denominator=4),
                                 max_size=4)),
            draw(st.fractions(-3, 3, max_denominator=4)))
    return a, x, draw(st.integers(1, 24))


@settings(max_examples=300, deadline=None)
@given(_telescoping_inputs())
def test_telescoping_matches_resumming_oracle(inputs):
    a, x, s_max = inputs
    got = telescoping_check(a, x, s_max)
    want = _telescoping_check_oracle(a, x, s_max)
    assert (got.status, got.witness, got.detail) == (want.status, want.witness,
                                                     want.detail)


def test_telescoping_hypothesis_is_decided_by_the_convolution(monkeypatch):
    # a convolution that moves the top coefficient one step up breaks the
    # hypothesis of an input that passes: the literal product decides it
    a = _d(1) - _d(2)
    x = BoundedFunction.c0_plus_const({1: F(1), 2: F(1)}, F(0))
    assert telescoping_check(a, x, 6).status == PASS

    def moving(p, q):
        out = convolve(p, q)
        top = max(out.support())
        c = out.coeff(top)
        return out - L1Vector.delta(S, top, c) + L1Vector.delta(S, top + 1, c)

    monkeypatch.setattr(wap, "convolve", moving)
    v = telescoping_check(a, x, 6)
    assert v.status == NOT_APPLICABLE
    assert "hypothesis" in v.detail


@pytest.mark.parametrize("s_max", [0, -5, True, 2.0, "3"])
@pytest.mark.parametrize("a", [_d(1), _d(1) - _d(1)])
def test_telescoping_refuses_an_s_max_that_checks_nothing(a, s_max):
    # below 1 there is no s to check, so no verdict may read as verified;
    # a bool, float or string is no count of s at all
    x = BoundedFunction.c0_plus_const({1: F(1)}, F(0))
    with pytest.raises(ValueError, match="s_max"):
        telescoping_check(a, x, s_max)


def test_telescoping_convolves_once_for_every_s(monkeypatch):
    # the hypothesis is decided by delta_s * a for s = 1, 2, ... in turn,
    # up to s_max or the first s where it fails, with no s skipped
    calls = []

    def counted(p, q):
        calls.append((p, q))
        return convolve(p, q)

    monkeypatch.setattr(wap, "convolve", counted)
    a = _d(1) - _d(2)
    x = BoundedFunction.c0_plus_const({1: F(1), 2: F(1)}, F(0))
    assert telescoping_check(a, x, 6).status == PASS
    assert calls == [(_d(s), a) for s in range(1, 7)]
    calls.clear()
    a = _d(2)
    v = telescoping_check(a, BoundedFunction.c0_plus_const({2: F(1)}, F(0)), 6)
    assert v.status == NOT_APPLICABLE and v.witness["s"] == 3
    assert calls == [(_d(s), a) for s in range(1, 4)]


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


def test_counterexample_self_check_is_a_fail_verdict(monkeypatch):
    # a translate that loses all its mass: the built x no longer verifies
    monkeypatch.setattr(wap, "convolve", lambda u, v: v - v)
    v = counterexample_x(_d(1) + _d(2))
    assert v.status == FAIL
    assert v.witness == {"pairing_a": 0, "pairing_translated": 0,
                         "expected": 2}


def test_telescoping_self_check_is_a_fail_verdict(monkeypatch):
    # with every translate stubbed to a itself the hypothesis holds, so
    # the telescoped identity is the check that must catch it
    monkeypatch.setattr(wap, "convolve", lambda u, v: v)
    x = BoundedFunction.c0_plus_const({1: Fraction(1)}, 0)
    v = telescoping_check(_d(1), x, 4)
    assert v.status == FAIL
    assert v.witness == {"s": 2, "lhs": 1, "rhs": 0}
    assert v.detail == ("convolve and pairing disagree with the running "
                        "integer sums at s = 2")


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
    # either the hypothesis fails at some s, or the identity holds up to
    # s_max, which clears the supports, and with it the conclusion
    if a.is_zero:
        assert v.status == PASS and "vacuous" in v.detail
    elif v.status == NOT_APPLICABLE:
        assert "hypothesis" in v.detail
    else:
        assert v.status == PASS
        assert v.witness["vanishing_part_pairing"] == 0


# supports whose string order differs from their numeric order (2 < 10 but
# "10" < "2"), with runs of consecutive points between gaps
_sharp_points = st.one_of(st.sampled_from([1, 2, 3, 9, 10, 11, 20]),
                          st.integers(1, 25))
_sharp_coeffs = st.fractions(-3, 3, max_denominator=4)


@st.composite
def _sharpness_inputs(draw):
    kind = draw(st.sampled_from(["single", "any", "zero_mass"]))
    if kind == "single":
        return L1Vector.delta(S, draw(_sharp_points),
                              draw(_sharp_coeffs.filter(bool)))
    a = L1Vector(S, draw(st.lists(st.tuples(_sharp_points, _sharp_coeffs),
                                  max_size=6)))
    if kind == "zero_mass":
        a = a - L1Vector.delta(S, draw(_sharp_points), coeff_sum(a))
    return a


@settings(max_examples=300, deadline=None)
@given(_sharpness_inputs())
def test_counterexample_matches_rescanning_oracle(a):
    got = counterexample_x(a)
    want = counterexample_x_rescanning(a)
    assert (got.status, got.witness, got.detail) == (want.status, want.witness,
                                                     want.detail)

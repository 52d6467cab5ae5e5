from enum import IntEnum
from itertools import combinations, count, islice, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semitop import jsonio, topologies
from semitop.dyadic import DyadicPoint, XSpace, interval_identity_sweep
from semitop.l1 import L1Vector
from semitop.semigroups import (INF, CyclicGroup, FreeWords, IntegerGroup,
                                NatInfinity, NatMax, NatMul, PartialMap,
                                PartialMaps, ReesElement, ReesMatrix, ZPlusK,
                                ZPlusTimesZ, associativity_window,
                                is_cancellative_window,
                                is_finitely_left_divisible_window,
                                is_weakly_cancellative_window, length)
from semitop.topologies import (TopologyInstance, WeightSequence,
                                check_convergence, distinguish_topologies,
                                mask_family, verify_star_star)
from semitop.verdicts import FAIL, PASS, UNDETERMINED, passed
from semitop.wap import LimitFunctional


def test_zplus_k_product_and_identity():
    S = ZPlusK(3)
    assert S.product((1, 0, 2), (0, 4, 1)) == (1, 4, 3)
    assert S.product((0, 0, 0), (5, 6, 7)) == (5, 6, 7)


def test_free_words_concatenate():
    S = FreeWords("ab")
    assert S.product("ab", "ba") == "abba"
    with pytest.raises(TypeError):
        S.product("", "a")          # the empty word is not an element


def test_nat_mul_nat_max():
    assert NatMul().product(6, 7) == 42
    assert NatMax().product(3, 11) == 11
    assert NatMax().product(11, 3) == 11


def test_nat_infinity_absorbs():
    S = NatInfinity()
    assert S.product(2, 3) == 5
    assert S.product(INF, 3) is INF
    assert S.product(3, INF) is INF
    assert S.product(INF, INF) is INF


def test_zplus_times_z():
    S = ZPlusTimesZ()
    assert S.product((1, -4), (2, 9)) == (3, 5)


def test_partial_map_composition_convention():
    # composition acts like function application: (h*g)(n) = h(g(n))
    g = PartialMap([(1, 2), (4, 7)])
    h = PartialMap([(2, 5)])
    hg = h.compose(g)
    assert hg(1) == 5
    assert hg(4) == 0
    assert hg.pairs == ((1, 5),)


def test_partial_map_zero():
    z = PartialMap()
    assert z.is_zero


def test_partial_maps_semigroup_zero():
    S = PartialMaps()
    f = PartialMap([(1, 3)])
    assert S.product(f, PartialMap()) == PartialMap()


def test_rees_sandwich_product():
    # entries multiply through P: (g,i,j)(h,k,l) = (g + P[j][k] + h, i, l)
    G = CyclicGroup(3)
    S = ReesMatrix(G, 2, 2, [[1, 2], [0, 1]])
    x = ReesElement(1, 1, 2)
    y = ReesElement(1, 2, 1)
    out = S.product(x, y)
    assert (out.entry, out.row, out.col) == ((1 + 1 + 1) % 3, 1, 1)


def test_rees_zero_absorbs():
    S = ReesMatrix(CyclicGroup(2), 2, 2, [[0, 0], [0, 0]])
    z = S.has_zero
    assert S.product(z, ReesElement(1, 1, 1)) == z


@pytest.mark.parametrize("S", [ZPlusK(2), ZPlusK(3), FreeWords("ab"),
                               NatMul(), NatMax(), NatInfinity(),
                               ZPlusTimesZ(), PartialMaps(),
                               ReesMatrix(CyclicGroup(3), 2, 2, [[1, 2], [0, 1]])])
def test_associativity_windows(S):
    assert associativity_window(S, 6).status == PASS


def test_cancellative_instances():
    for S in (ZPlusK(2), FreeWords("ab")):
        assert is_cancellative_window(S, 12).status == PASS


def test_nat_max_not_cancellative_but_weakly():
    S = NatMax()
    assert is_cancellative_window(S, 12).status == FAIL
    assert is_weakly_cancellative_window(S, 200).status == PASS


def test_nat_infinity_weak_cancellativity_fails_with_growth():
    v = is_weakly_cancellative_window(NatInfinity(), 200)
    assert v.status == FAIL
    rec = max(v.witness, key=lambda w: len(w["preimages"]))
    assert rec["target"] is INF
    assert len(rec["preimages"]) >= 100
    small, big = rec["counts"]
    assert big > small


def test_infinite_index_rees_collapses_rows():
    S = ReesMatrix(IntegerGroup(), 100, 1, [[0] * 100])
    v = is_weakly_cancellative_window(S, 201)
    assert v.status == FAIL
    structural = [w for w in v.witness if w["translate_by"] != S.has_zero]
    assert structural
    assert max(len(w["preimages"]) for w in structural) >= 100


def test_divisibility_windows():
    S = ZPlusK(2)
    for s in S.window(12):
        assert is_finitely_left_divisible_window(S, s, 12).status == PASS


def test_length_closed_forms():
    free = FreeWords("ab")
    assert length(free, "abba") == passed(4)
    zp = ZPlusK(2)
    assert length(zp, (2, 3)) == passed(5)
    # (0, 0) is never a sum of generators, but the search never closes
    assert length(zp, (0, 0)).status == UNDETERMINED
    # under max, products of 1 and 2 close at {1, 2} and never reach 3
    nm = NatMax()
    nm.generators = (1, 2)
    assert length(nm, 2) == passed(1)
    assert length(nm, 3).status == FAIL


@given(st.text(alphabet="ab", min_size=1, max_size=6),
       st.text(alphabet="ab", min_size=1, max_size=6),
       st.text(alphabet="ab", min_size=1, max_size=6))
def test_free_words_cancellation_property(u, v, w):
    S = FreeWords("ab")
    if S.product(u, v) == S.product(u, w):
        assert v == w


@given(st.integers(1, 50), st.integers(1, 50), st.integers(1, 50))
def test_nat_max_weak_cancellation_property(t, x, y):
    # translation by t is finite-to-one: the fibre over any value v > t
    # is the singleton {v}
    S = NatMax()
    if S.product(t, x) == S.product(t, y) and S.product(t, x) > t:
        assert x == y


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 8)), max_size=4))
def test_partial_map_rejects_non_injective(pairs):
    dom = [a for a, _ in pairs]
    img = [b for _, b in pairs]
    if len(set(dom)) == len(dom) and len(set(img)) == len(img):
        PartialMap(pairs)
    else:
        with pytest.raises(ValueError):
            PartialMap(pairs)


injective_maps = st.lists(st.integers(1, 10), unique=True, max_size=6).flatmap(
    lambda dom: st.lists(st.integers(1, 10), unique=True, min_size=len(dom),
                         max_size=len(dom)).map(
        lambda img: PartialMap(zip(dom, img))))


@given(injective_maps, injective_maps)
def test_compose_matches_validated_construction(a, b):
    # compose builds its result without re-validation; the validating
    # constructor on the same pointwise values is the oracle
    ab = a.compose(b)
    oracle = PartialMap({n: a(b(n)) for n in b.domain if a(b(n))})
    assert ab.pairs == oracle.pairs
    assert hash(ab) == hash(oracle)
    assert ab == oracle
    assert all(ab(n) == a(b(n)) for n in range(12))


points = st.integers(-1, 12) | st.sampled_from([True, False, 2.0, 2.5, "3",
                                                None])


@given(injective_maps, points, points)
def test_extend_matches_validated_construction(f, n, v):
    # extend builds its result without re-validating f; the validating
    # constructor on f's pairs plus (n, v) is the oracle
    try:
        oracle = PartialMap(f.pairs + ((n, v),))
    except ValueError:
        with pytest.raises(ValueError):
            f.extend(n, v)
        return
    fv = f.extend(n, v)
    assert fv.pairs == oracle.pairs
    assert hash(fv) == hash(oracle)
    assert fv == oracle
    assert all(fv(k) == oracle(k) for k in range(14))


# -- the validation boundary: product checks, op is the bare law ----------

# every instance a suite builds, with one malformed operand for each
SUITE_INSTANCES = [
    (ZPlusK(2), (1,)),
    (ZPlusK(3), (0, -1, 0)),
    (FreeWords("ab"), ""),
    (NatMul(), 0),
    (NatMax(), True),
    (NatInfinity(), 0),
    (ZPlusTimesZ(), (-1, 0)),
    (PartialMaps(), {1: 2}),
    (ReesMatrix(CyclicGroup(3), 2, 2, [[1, 2], [0, 1]]), ReesElement(3, 1, 1)),
    (ReesMatrix(IntegerGroup(), 100, 1, [[0] * 100]), ReesElement(0, 1, 2)),
]


@pytest.mark.parametrize("S", [S for S, _ in SUITE_INSTANCES], ids=repr)
def test_window_elements_validate(S):
    # the premise that lets the window checks call op: a window holds
    # elements only (500 is the largest rank a suite parameter allows)
    for x in S.window(500):
        S.validate(x)


@pytest.mark.parametrize("S,bad", SUITE_INSTANCES,
                         ids=[repr(S) for S, _ in SUITE_INSTANCES])
def test_product_rejects_a_malformed_operand(S, bad):
    good = S.window(2)[-1]
    with pytest.raises(TypeError):
        S.product(bad, good)
    with pytest.raises(TypeError):
        S.product(good, bad)


def _weakly_cancellative_two_maps(S, window_rank):
    """The former implementation: separate preimage maps of the half and
    the full window, kept as the oracle of the one-map version."""
    def preimage_map(win, side):
        pre = {}
        for s in win:
            for t in win:
                v = S.product(s, t) if side == "left" else S.product(t, s)
                pre.setdefault((s, v), []).append(t)
        return pre

    r2 = window_rank
    r1 = max(1, window_rank // 2)
    growth_threshold = max(4, r2 // 4)
    win1 = S.window(r1)
    win2 = S.window(r2)
    witnesses = []
    for side in ("left", "right"):
        pre1 = preimage_map(win1, side)
        pre2 = preimage_map(win2, side)
        for key, small in pre1.items():
            big = pre2.get(key, [])
            if len(big) > len(small) and len(big) >= growth_threshold:
                s, target = key
                witnesses.append({"side": side, "translate_by": s, "target": target,
                                  "preimages": big, "counts": (len(small), len(big)),
                                  "window_ranks": (r1, r2)})
                if len(witnesses) >= 10:
                    break
        if len(witnesses) >= 10:
            break
    return (FAIL, witnesses) if witnesses else (PASS, None)


# the suite's default sizes, past the drawn ranks, and a window shorter
# than half its rank (13 elements at rank 28)
@example(NatMax(), 200)
@example(NatInfinity(), 200)
@example(ReesMatrix(IntegerGroup(), 201, 1, [[0] * 201]), 201)
@example(ReesMatrix(CyclicGroup(3), 2, 2, [[1, 2], [0, 1]]), 28)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from([NatMax(), NatInfinity(), ZPlusTimesZ(), PartialMaps(),
                        ReesMatrix(CyclicGroup(3), 2, 2, [[1, 2], [0, 1]])]),
       st.integers(2, 60))
def test_weak_cancellativity_matches_two_map_oracle(S, rank):
    v = is_weakly_cancellative_window(S, rank)
    assert (v.status, v.witness) == _weakly_cancellative_two_maps(S, rank)


def _counted_calls(S, rank):
    calls = {"op": 0, "validate": 0}
    op, validate = S.op, S.validate

    def counted_op(x, y):
        calls["op"] += 1
        return op(x, y)

    def counted_validate(x):
        calls["validate"] += 1
        return validate(x)

    S.op, S.validate = counted_op, counted_validate
    return is_weakly_cancellative_window(S, rank).status, calls


def test_weak_cancellativity_calls_op_only():
    # only the 100 translators below half the rank get a row of 200 calls,
    # once per side
    assert _counted_calls(NatMax(), 200) == (
        PASS, {"op": 2 * 100 * 200, "validate": 0})
    assert _counted_calls(NatInfinity(), 200) == (
        FAIL, {"op": 40_000, "validate": 0})
    # the scan stops at the tenth witness, here by the left side's tenth row
    assert _counted_calls(ReesMatrix(IntegerGroup(), 201, 1, [[0] * 201]),
                          201) == (FAIL, {"op": 2_010, "validate": 0})


def _graded_partial_maps():
    # the graded loop PartialMaps.elements replaced: for each bound, every
    # (domain, image) pair on 1..bound whose largest point is the bound
    yield PartialMap()
    for bound in count(1):
        batch = []
        pts = range(1, bound + 1)
        for size in range(1, bound + 1):
            for dom in combinations(pts, size):
                for img in permutations(pts, size):
                    if max(max(dom), max(img)) == bound:
                        batch.append(PartialMap(zip(dom, img)))
        batch.sort(key=lambda f: (len(f.pairs), f.pairs))
        yield from batch


def test_partial_maps_enumeration_order_is_pinned():
    # associativity-windows reads a prefix of this order
    assert PartialMaps().window(400) == list(islice(_graded_partial_maps(), 400))


# one row per entry point outside the partial maps that takes a positive
# integer: each must raise rather than truncate a float, read a bool as 0
# or 1, or parse a string
_Z4 = TopologyInstance("z", WeightSequence.double_exp(4))
_ODD8 = TopologyInstance("odd_nat", WeightSequence.odd_primes(8))
# the sizes of a library check, each of which at 0 or below checks nothing
CHECK_SIZES = [
    ("verify_star_star-s_window",
     lambda x: verify_star_star(_ODD8, 9, s_window=x)),
    ("interval_identity_sweep-a_max",
     lambda x: interval_identity_sweep(x, 3, 8, 12)),
    ("interval_identity_sweep-alpha_max",
     lambda x: interval_identity_sweep(1, x, 8, 12)),
    ("interval_identity_sweep-beta_max",
     lambda x: interval_identity_sweep(1, 3, x, 12)),
    ("interval_identity_sweep-max_exp",
     lambda x: interval_identity_sweep(1, 3, 8, x)),
]
NOT_INTS = [
    ("WeightSequence-index_bound", lambda x: WeightSequence.double_exp(x)),
    ("WeightSequence-values", lambda x: WeightSequence.explicit([1, x])),
    ("BasicNbhd-alpha", lambda x: topologies.BasicNbhd(1, 0, x)),
    ("TopologyInstance-mask", lambda x: TopologyInstance(
        "z", WeightSequence.double_exp(4), [1, x])),
    ("check_convergence-alpha_max",
     lambda x: check_convergence(_Z4, [(1, 0)], (1, 0), x)),
    ("mask_family-count", lambda x: mask_family(x, 12)),
    ("mask_family-horizon", lambda x: mask_family(3, x)),
    ("distinguish_topologies-horizon", lambda x: distinguish_topologies(
        WeightSequence.double_exp(4), [1], [2], x)),
    ("distinguish_topologies-mask", lambda x: distinguish_topologies(
        WeightSequence.double_exp(6), [x, 1, 2], [1, 2], 6)),
    ("_prime_factors", lambda x: topologies._prime_factors(x)),
    ("DyadicPoint", lambda x: DyadicPoint([x, 5])),
    ("XSpace-a", lambda x: XSpace(x, 1, 3)),
    ("XSpace-alpha", lambda x: XSpace(1, x, 3)),
    ("XSpace-max_exp", lambda x: XSpace(1, 1, x)),
    ("window", lambda x: NatMax().window(x)),
    ("CyclicGroup", CyclicGroup),
    ("ZPlusK", ZPlusK),
    ("ReesMatrix-rows", lambda x: ReesMatrix(IntegerGroup(), x, 1, [[0] * 3])),
    ("ReesMatrix-cols", lambda x: ReesMatrix(IntegerGroup(), 1, x, [[0]] * 3)),
    ("LimitFunctional.arithmetic-start",
     lambda x: LimitFunctional.arithmetic(x, 1, 5)),
    ("LimitFunctional.arithmetic-step",
     lambda x: LimitFunctional.arithmetic(1, x, 5)),
    ("LimitFunctional.arithmetic-horizon",
     lambda x: LimitFunctional.arithmetic(1, 1, x)),
    *CHECK_SIZES,
]


@pytest.mark.parametrize("value", [True, False, 1.0])
def test_cyclic_group_elements_are_exact_ints(value):
    with pytest.raises(TypeError):
        CyclicGroup(3).validate(value)


@pytest.mark.parametrize("value", [True, False, 1.9, 3.0, "3", None])
@pytest.mark.parametrize("entry", [thunk for _, thunk in NOT_INTS],
                         ids=[name for name, _ in NOT_INTS])
def test_entry_points_take_exact_integers_only(entry, value):
    with pytest.raises(ValueError):
        entry(value)


@pytest.mark.parametrize("value", [0, -4])
@pytest.mark.parametrize("entry", [thunk for _, thunk in CHECK_SIZES],
                         ids=[name for name, _ in CHECK_SIZES])
def test_a_check_size_below_one_is_refused(entry, value):
    # not a PASS over an empty window or grid
    with pytest.raises(ValueError, match="must be a positive integer"):
        entry(value)


class _Two(IntEnum):
    TWO = 2


# An exact int is `type(x) is int` everywhere: an int subclass such as an
# IntEnum member is refused like a bool, by every element check alike.
INT_SUBCLASS_USES = [
    ("IntegerGroup", lambda x: IntegerGroup().validate(x)),
    ("NatMul", lambda x: NatMul().validate(x)),
    ("NatMax", lambda x: NatMax().validate(x)),
    ("NatInfinity", lambda x: NatInfinity().validate(x)),
    ("ZPlusK", lambda x: ZPlusK(2).validate((x, 0))),
    ("ZPlusTimesZ", lambda x: ZPlusTimesZ().validate((0, x))),
    ("L1Vector-coeff", lambda x: L1Vector(NatMax(), [(1, x)])),
    ("int_from", jsonio.int_from),
    ("BasicNbhd-alpha", lambda x: topologies.BasicNbhd(1, 0, x)),
    ("require_point", lambda x: _Z4.require_point((x, 0))),
]


@pytest.mark.parametrize("use", [use for _, use in INT_SUBCLASS_USES],
                         ids=[name for name, _ in INT_SUBCLASS_USES])
def test_an_int_subclass_is_not_an_exact_int(use):
    use(2)                              # the plain int 2 is accepted
    with pytest.raises((TypeError, ValueError)):
        use(_Two.TWO)

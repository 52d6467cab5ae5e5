import dataclasses
import re
import timeit
from collections import Counter
from fractions import Fraction
from itertools import combinations, product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semitop import suites, topologies
from semitop.jsonio import read_params
from semitop.semigroups import INF, NatInfinity, NatMul
from semitop.suites import SUITE_PARAMS, SUITES
from semitop.topologies import (MAX_INDEX_BOUND, BasicNbhd,
                                ConvergenceCertificate, DiscreteTopology,
                                OnePointTopology,
                                TopologyInstance, WeightSequence,
                                base_property_check, check_convergence,
                                convergence_transfer, distinguish_topologies,
                                find_limit, good_corr_check,
                                hausdorff_exhaustive, mask_family,
                                natural_to_odd_pair, odd_pair_to_natural,
                                separate_continuity_identity, verify_star,
                                verify_star_star)
from semitop.topologies import _limit_candidates
from semitop.verdicts import (FAIL, NOT_APPLICABLE, PASS, UNDETERMINED,
                              Verdict)

from oracles import hausdorff_pairwise, hausdorff_witness, member_bruteforce


def Tz(bound=6, mask=None):
    return TopologyInstance("z", WeightSequence.double_exp(bound), mask=mask)


def Todd(bound=6):
    return TopologyInstance("odd_nat", WeightSequence.odd_primes(bound))


# -- weight sequences -------------------------------------------------


def test_double_exp_values():
    w = WeightSequence.double_exp(5)
    assert [w.value(i) for i in range(1, 6)] == [4, 16, 256, 65536, 2 ** 32]


def test_odd_prime_values():
    w = WeightSequence.odd_primes(16)
    assert [w.value(i) for i in range(1, 17)] == [
        3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_explicit_weights_must_increase():
    with pytest.raises(ValueError):
        WeightSequence.explicit([3, 2])


@pytest.mark.parametrize("kind", ["double_exp", "odd_primes", "explicit"])
def test_weights_past_the_bound_are_refused_before_any_weight(kind,
                                                              monkeypatch):
    # no prime is searched for and no explicit value is read
    monkeypatch.setattr(topologies, "_odd_primes", None)
    size = ["not a weight"] * 17 if kind == "explicit" else 17
    with pytest.raises(ValueError, match="take 1 to 16 indices, not 17"):
        getattr(WeightSequence, kind)(size)


def test_weights_are_built_only_by_their_kind():
    # the tagged constructor took an index bound that explicit values ignore
    with pytest.raises(TypeError):
        WeightSequence("explicit", 9, [1, 2, 4])
    with pytest.raises(TypeError):
        WeightSequence()


# -- representations ---------------------------------------------------


def test_rep_double_exp_found():
    T = Tz(6)
    rep = T.find_representation(16 + 256, 1)
    assert rep.status == PASS and rep.witness == (2, 3)


def test_rep_double_exp_none_cases():
    T = Tz(6)
    assert T.find_representation(5, 1).status == FAIL        # 4 + 1
    assert T.find_representation(8, 1).status == FAIL        # 2^3 alone
    assert T.find_representation(4, min_index=2).status == FAIL


def test_rep_double_exp_undetermined_beyond_bound():
    T = Tz(3)
    huge = 2 ** (2 ** 9)
    assert T.find_representation(huge, 1).status == UNDETERMINED


def test_rep_respects_mask():
    T = Tz(6, mask=[1, 3, 5])
    assert T.find_representation(16, 1).status == FAIL
    assert T.find_representation(4 + 256, 1).witness == (1, 3)


def test_rep_odd_primes():
    T = Todd(6)
    assert T.find_representation(15, 1).witness == (1, 2)
    assert T.find_representation(9, 1).status == FAIL    # 3 twice
    assert T.find_representation(6, 1).status == FAIL    # even part
    assert T.find_representation(19, 1).status == UNDETERMINED


def test_rep_explicit_always_settled():
    T = TopologyInstance("z", WeightSequence.explicit([10, 20, 40]))
    assert T.find_representation(30, 1).witness == (1, 2)
    assert T.find_representation(31, 1).status == FAIL
    assert T.find_representation(10 ** 9, 1).status == FAIL
    assert T.find_representation(30, 2).status == FAIL   # w_1 is below the level


def _rep_explicit_loop(T, diff, min_index):
    # oracle: every subset of the masked indices at or above min_index,
    # its weight total recomputed for each
    idxs = [i for i in T.mask if i >= min_index]
    return [combo for k in range(len(idxs) + 1)
            for combo in combinations(idxs, k) if T.weight_total(combo) == diff]


@settings(max_examples=80)
@given(st.sets(st.integers(1, 300), min_size=1, max_size=8), st.data())
def test_rep_explicit_matches_subset_loop(values, data):
    # small weights make some values ambiguous, which must raise naming
    # the same first two subsets as the loop finds
    w = WeightSequence.explicit(sorted(values))
    T = TopologyInstance("z", w, data.draw(
        st.sets(st.integers(1, w.index_bound), min_size=1)))
    min_index = data.draw(st.integers(1, w.index_bound + 1))
    diff = T.weight_total(data.draw(st.sets(st.sampled_from(T.mask)))) \
        + data.draw(st.integers(-1, 1))
    found = _rep_explicit_loop(T, diff, min_index)
    if len(found) > 1:
        with pytest.raises(ValueError, match=re.escape(str(found[:2]))):
            T.find_representation(diff, min_index)
        return
    got = T.find_representation(diff, min_index)
    assert (got.status, got.witness) == ((PASS, found[0]) if found
                                         else (FAIL, None))


def test_ambiguity_is_named_by_index_sets_past_the_digit_limit():
    # w_1 + w_2 = w_3 has 5,001 digits, past the int-to-str limit, so the
    # message names the two index sets and never the value
    w = [(i + 1) * 10 ** 5000 for i in range(4)]
    T = TopologyInstance("z", WeightSequence.explicit(w))
    with pytest.raises(ValueError, match=re.escape(
            "ambiguous representation: [(3,), (1, 2)]")):
        T.find_representation(w[0] + w[1], 1)


def test_primitives_return_verdicts():
    # every status of the representation and membership primitives
    # arrives as a Verdict; PASS carries the index tuple as witness
    T, odd = Tz(3), Todd(6)
    cases = [
        (T.find_representation(4 + 16, 1), PASS, (1, 2)),
        (T.find_representation(5, 1), FAIL, None),
        (T.find_representation(2 ** (2 ** 9), 1), UNDETERMINED, None),
        (T.member(BasicNbhd(2, 0, 1), (0, 20)), PASS, (1, 2)),
        (T.member(BasicNbhd(2, 0, 1), (3, 0)), FAIL, None),
        (odd.member(BasicNbhd(1, 1, 1), (0, 19)), UNDETERMINED, None),
        (member_bruteforce(T, BasicNbhd(2, 0, 1), (0, 20)), PASS, (1, 2)),
        (member_bruteforce(T, BasicNbhd(2, 0, 1), (0, 16)), FAIL, None),
        (T.two_sided_representation(16 - 4), PASS, ((2,), (1,))),
        (T.two_sided_representation(3), FAIL, None),
        (T.two_sided_representation(2 ** 16), UNDETERMINED, None),
        (odd.two_sided_representation(Fraction(3, 5)), PASS, ((1,), (2,))),
        (odd.two_sided_representation(Fraction(9, 5)), FAIL, None),
        (odd.two_sided_representation(Fraction(19, 3)), UNDETERMINED, None),
    ]
    for v, status, witness in cases:
        assert isinstance(v, Verdict)
        assert v.status == status and v.witness == witness, v
    assert T.member(BasicNbhd(2, 0, 1), (3, 0)).detail == \
        "first coordinate out of range"
    seq = seq_to_limit(Tz(6), 2, 0)
    for limit, status in (((2, 0), PASS), ((1, 4), FAIL)):
        v = check_convergence(Tz(6), seq, limit, 3)
        assert isinstance(v, Verdict) and v.status == status
    v = check_convergence(odd, [(0, 19)], (1, 1), 1)
    assert isinstance(v, Verdict) and v.status == UNDETERMINED


# -- membership and its brute-force oracle ------------------------------


def test_member_basic():
    T = Tz(6)
    U = BasicNbhd(2, 0, 1)
    assert T.member(U, (2, 0)).status == PASS
    assert T.member(U, (1, 16)).status == PASS
    assert T.member(U, (0, 20)).status == PASS          # 4 + 16
    assert T.member(U, (0, 16)).status == FAIL          # needs k = 2
    assert T.member(U, (3, 0)).status == FAIL


@pytest.mark.parametrize("T,center", [(Todd(4), 2), (Tz(4), 0.5)],
                         ids=["even-center-on-odd-naturals", "float-center-on-z"])
def test_a_center_outside_S_is_a_type_error(T, center):
    # (0, 6) and (0, 10) would read as points of U(1, 2, alpha) otherwise
    u1, u2 = BasicNbhd(1, center, 1), BasicNbhd(1, center, 2)
    for call in (lambda: T.basic_points(u1),
                 lambda: base_property_check(T, u1, u2),
                 lambda: T.member(u1, (0, 3))):
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("a", [1.0, True, "1", -1])
def test_basic_nbhd_first_coordinate_is_an_exact_int(a):
    # alpha goes through positive_int, pinned in test_semigroups' NOT_INTS
    with pytest.raises(ValueError):
        BasicNbhd(a, 0, 1)


@pytest.mark.parametrize("T,diff", [(Todd(6), Fraction(15)), (Tz(6), Fraction(20)),
                                    (Tz(6), 20.0), (Tz(6), True)])
def test_find_representation_takes_exact_ints_only(T, diff):
    with pytest.raises(TypeError):
        T.find_representation(diff, 1)


@pytest.mark.parametrize("T,diff", [
    (Tz(6), 0.5), (Tz(6), Fraction(1, 2)), (Tz(6), True), (Tz(6), Fraction(4)),
    (Todd(6), 0.5), (Todd(6), True)], ids=[
    "z-float", "z-half", "z-bool", "z-integral-fraction", "odd-float",
    "odd-bool"])
def test_two_sided_representation_takes_exact_differences_only(T, diff):
    # both bases raise, whether or not the ints 1 and 4 were asked first:
    # True and Fraction(4) compare equal to them, and must not be read as them
    for warm in (False, True):
        if warm:
            T.two_sided_representation(1)
            T.two_sided_representation(4)
        with pytest.raises(TypeError):
            T.two_sided_representation(diff)


def test_member_alpha_floor():
    T = Tz(6)
    assert T.member(BasicNbhd(2, 0, 3), (1, 16)).status == FAIL
    assert T.member(BasicNbhd(2, 0, 2), (1, 16)).status == PASS


def test_member_matches_bruteforce_everywhere():
    # fast arithmetic vs subset enumeration across a full truncated universe
    T = Tz(6)
    w = T.weights
    centers = [0, w.value(1), -w.value(2)]
    points = []
    for x in range(0, 4):
        for combo_len in range(0, 3):
            for combo in combinations(range(1, 7), combo_len):
                for base in centers:
                    points.append((x, base + T.weight_total(combo)))
    checked = 0
    for a in range(0, 4):
        for s in centers:
            for alpha in (1, 2, 4):
                U = BasicNbhd(a, s, alpha)
                for p in points:
                    fast = T.member(U, p)
                    slow = member_bruteforce(T, U, p)
                    assert fast.status == slow.status, (U, p)
                    if fast:
                        assert tuple(fast.witness) == tuple(slow.witness)
                    checked += 1
    assert checked > 9000


def test_member_memo_answers_as_a_fresh_instance():
    # each question asked twice, the second time in reverse order, of one
    # instance, and once of a fresh one
    nbhds = [BasicNbhd(a, s, alpha) for a in range(3) for s in (0, 4, -16)
             for alpha in (1, 2, 3)]
    asked = [(u, (x, v)) for u in nbhds for x in range(3)
             for v in (0, 4, 16, 20, -12, 272, 2 ** 64)]
    warm = Tz(4)
    first = [warm.member(u, p) for u, p in asked]
    assert [warm.member(u, p) for u, p in reversed(asked)] == first[::-1]
    assert [Tz(4).member(u, p) for u, p in asked] == first
    assert {v.status for v in first} == {PASS, FAIL, UNDETERMINED}


def test_member_memo_checks_its_arguments_first():
    # True == 1 and hash(True) == hash(1), so only the checks before the
    # memo tell (True, 0) from a cached (1, 0)
    T = Tz(4)
    assert T.member(BasicNbhd(1, 0, 1), (1, 0)).status == PASS
    assert T.member(BasicNbhd(1, 1, 1), (0, 5)).status == PASS
    with pytest.raises(TypeError, match="True, 0"):
        T.member(BasicNbhd(1, 0, 1), (True, 0))
    with pytest.raises(TypeError, match="1, True"):
        T.member(BasicNbhd(1, True, 1), (0, 5))


def test_member_raises_on_every_ambiguous_call():
    # 1 + 2 = 3: a raise leaves no memo entry to answer the next call
    T = TopologyInstance("z", WeightSequence.explicit([1, 2, 3, 4, 5, 6]))
    for _ in range(2):
        with pytest.raises(ValueError, match="ambiguous representation"):
            T.member(BasicNbhd(1, 0, 1), (0, 3))


@settings(max_examples=80)
@given(st.sampled_from(["double_exp", "explicit"]),
       st.integers(0, 3), st.integers(0, 3), st.integers(1, 5),
       st.sets(st.integers(1, 6), max_size=3), st.booleans())
def test_member_bruteforce_agreement_property(kind, a, x, alpha, idxs, negate):
    # each explicit weight exceeds the sum of those below it, so every
    # value has at most one representation
    T = Tz(6) if kind == "double_exp" else TopologyInstance(
        "z", WeightSequence.explicit([3, 5, 11, 23, 47, 97]))
    target = T.weight_total(sorted(idxs))
    if negate:
        target = -target + 3
    U = BasicNbhd(a, 0, alpha)
    p = (x, target)
    assert T.member(U, p).status == member_bruteforce(T, U, p).status


def _basic_points_rebuild(T, nbhd):
    # oracle: every subset of at most a masked indices at or above alpha,
    # its weight total recomputed for each
    idxs = [i for i in T.mask if i >= nbhd.alpha]
    return [((nbhd.a - k, T.s_op(nbhd.s, T.weight_total(combo))), combo)
            for k in range(nbhd.a + 1) for combo in combinations(idxs, k)]


@settings(max_examples=80)
@given(st.sampled_from(["zplus", "z", "odd_nat", "explicit"]),
       st.integers(1, 7), st.data())
def test_basic_points_match_subset_rebuild(kind, bound, data):
    if kind == "odd_nat":
        T = Todd(bound)
    elif kind == "explicit":
        T = TopologyInstance("z", WeightSequence.explicit(
            sorted(data.draw(st.sets(st.integers(1, 60), min_size=bound,
                                     max_size=bound)))))
    else:
        T = TopologyInstance(kind, WeightSequence.double_exp(bound))
    mask = data.draw(st.sets(st.integers(1, bound), min_size=1))
    T = TopologyInstance(T.base, T.weights, mask)
    for _ in range(3):
        a = data.draw(st.integers(0, 3))
        alpha = data.draw(st.integers(1, bound + 1))
        s = T.s_op(T.s_identity, T.weight_total(
            data.draw(st.sets(st.sampled_from(T.mask), max_size=2))))
        nbhd = BasicNbhd(a, s, alpha)
        got = T.basic_points(nbhd)
        assert isinstance(got, dict)
        assert list(got.items()) == list(
            dict(_basic_points_rebuild(T, nbhd)).items())
        assert T.basic_points(nbhd) is got


def test_basic_points_keep_the_last_representation():
    # 1 + 4 = 2 + 3: one point, two representations, and the map keeps the
    # one `combinations` order lists last, as the filter-base check reads it
    T = TopologyInstance("z", WeightSequence.explicit([1, 2, 3, 4]))
    nbhd = BasicNbhd(2, 0, 1)
    reps = [rep for p, rep in _basic_points_rebuild(T, nbhd) if p == (0, 5)]
    assert reps == [(1, 4), (2, 3)]
    assert T.basic_points(nbhd)[(0, 5)] == (2, 3)


# -- two-sided representations and their enumeration oracle ---------------


def _two_sided_enumeration(T, diff):
    # oracle: the first of all 3^|mask| sign vectors, in product order,
    # whose signed weight sum is diff
    for signs in iproduct((-1, 0, 1), repeat=len(T.mask)):
        total = sum(sign * T.weights.value(i)
                    for sign, i in zip(signs, T.mask) if sign)
        if total == diff:
            plus = tuple(i for sign, i in zip(signs, T.mask) if sign > 0)
            minus = tuple(i for sign, i in zip(signs, T.mask) if sign < 0)
            return Verdict(PASS, (plus, minus))
    if T.weights.kind == "explicit":
        return Verdict(FAIL)
    bound = T.weights.index_bound
    min_new = 2 ** (2 ** (bound + 1)) - sum(T.weights.values)
    return Verdict(FAIL if abs(diff) < min_new else UNDETERMINED)


def _assert_two_sided_agree(T, diff):
    got = T.two_sided_representation(diff)
    want = _two_sided_enumeration(T, diff)
    assert (got.status, got.witness) == (want.status, want.witness), diff


def _signed_sum(T, signs):
    return sum(sign * T.weights.value(i) for sign, i in zip(signs, T.mask))


@settings(max_examples=60)
@given(st.integers(1, 7), st.data())
def test_two_sided_greedy_matches_enumeration(bound, data):
    mask = data.draw(st.sets(st.integers(1, bound), min_size=1))
    T = Tz(bound, mask=mask)
    signs = data.draw(st.lists(st.sampled_from((-1, 0, 1)),
                               min_size=len(T.mask), max_size=len(T.mask)))
    diff = _signed_sum(T, signs)
    for d in (diff, diff + 1, diff - 1, 2 ** (2 ** (bound + 1)) + diff):
        _assert_two_sided_agree(T, d)


@settings(max_examples=60)
@given(st.sets(st.integers(1, 40), min_size=1, max_size=8), st.data())
def test_two_sided_meet_in_the_middle_matches_enumeration(values, data):
    # small weights give many signed representations of one value, so the
    # first in product order is what is compared
    w = WeightSequence.explicit(sorted(values))
    mask = data.draw(st.sets(st.integers(1, w.index_bound), min_size=1))
    T = TopologyInstance("z", w, mask)
    signs = data.draw(st.lists(st.sampled_from((-1, 0, 1)),
                               min_size=len(T.mask), max_size=len(T.mask)))
    diff = _signed_sum(T, signs)
    for d in (diff, diff + 1, diff - 1, sum(values) + 1):
        _assert_two_sided_agree(T, d)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3 ** 9 - 1))
def test_two_sided_sixteen_explicit_values_match_enumeration(position):
    # the sign vector at this position of the product order is within the
    # first 3^9 vectors, so the enumeration stops after at most that many
    T = TopologyInstance("z", WeightSequence.explicit(
        [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597]))
    signs = [(position // 3 ** (15 - k)) % 3 - 1 for k in range(16)]
    _assert_two_sided_agree(T, _signed_sum(T, signs))


def test_two_sided_search_takes_every_index_up_to_the_bound():
    T = Tz(16)
    w = T.weights.value
    v = T.two_sided_representation(w(16) - w(9) + w(1))
    assert (v.status, v.witness) == (PASS, ((1, 16), (9,)))
    with pytest.raises(ValueError, match="take 1 to 16 indices, not 17"):
        Tz(17).two_sided_representation(3)


# -- base property, Hausdorff, separate continuity -----------


def test_base_property_check_produces_enclosures():
    T = Tz(6)
    u1 = BasicNbhd(2, 0, 1)
    u2 = BasicNbhd(2, 0, 2)
    v = base_property_check(T, u1, u2)
    assert v.status == PASS
    assert v.witness["common_points"] > 0


def test_base_property_check_disjoint_pair_is_trivially_fine():
    # different a over the same center leaves no common point: the
    # representation would need two different lengths at once
    T = Tz(6)
    v = base_property_check(T, BasicNbhd(2, 0, 1), BasicNbhd(3, 0, 2))
    assert v.status == PASS
    assert v.witness["common_points"] == 0


def _gen_con_one_family(T, a_max):
    """The basic sets `gen-con-one`'s base-property check pairs up."""
    w = T.weights
    centers = [0] + [sign * w.value(i) for i in T.mask for sign in (1, -1)]
    return [BasicNbhd(a, s, alpha) for a in range(a_max + 1) for s in centers
            for alpha in range(1, w.index_bound + 1)]


def test_basic_point_tables_agree_with_member_at_enclosed_points():
    # the tables that propose each enclosed point say it is in a set
    # exactly when `member` does: the two computations agree
    T = Tz(4)
    seen = 0
    for u1, u2 in combinations(_gen_con_one_family(T, 3), 2):
        pts1, pts2 = T.basic_points(u1), T.basic_points(u2)
        for p in sorted(pts1.keys() & pts2.keys()):
            g1 = max(pts1[p]) + 1 if pts1[p] else u1.alpha
            g2 = max(pts2[p]) + 1 if pts2[p] else u2.alpha
            for q in T.basic_points(BasicNbhd(p[0], p[1], max(g1, g2))):
                for u, pts in ((u1, pts1), (u2, pts2)):
                    assert (q in pts) == (T.member(u, q).status == PASS)
                    seen += 1
    assert seen > 1000


def test_base_property_check_fails_on_a_table_point_outside_the_set(monkeypatch):
    T = Tz(6)
    # the stray point sits in every table but u1's, so it is in no
    # table pair that vouches for it and only `member` can reject it
    u1, u2 = BasicNbhd(2, 0, 1), BasicNbhd(2, 0, 2)
    stray = (0, 1)          # 1 is no sum of two weights
    assert T.member(u1, stray).status == FAIL
    table = TopologyInstance.basic_points

    def padded(self, nbhd):
        out = table(self, nbhd)
        return out if nbhd == u1 else {**out, stray: ()}

    monkeypatch.setattr(TopologyInstance, "basic_points", padded)
    v = base_property_check(T, u1, u2)
    assert v.status == FAIL
    assert v.witness["escaping"] == stray


def test_base_property_check_fails_when_member_rejects_a_common_point(
        monkeypatch):
    # (2, 0) lies in both tables; only `member` can reject it, and a
    # class-level `member` answers ahead of the instance's warm memo
    T = Tz(6)
    u1, u2 = BasicNbhd(2, 0, 1), BasicNbhd(2, 0, 2)
    assert base_property_check(T, u1, u2).status == PASS
    member = TopologyInstance.member

    def sabotaged(self, nbhd, point):
        if (nbhd, point) == (u1, (2, 0)):
            return Verdict(FAIL)
        return member(self, nbhd, point)

    monkeypatch.setattr(TopologyInstance, "member", sabotaged)
    v = base_property_check(T, u1, u2)
    assert v.status == FAIL
    assert v.witness["escaping"] == (2, 0)


def test_base_property_check_refuses_colliding_explicit_weights():
    # 1 + 2 = 3: the enclosed point (0, 3) of U(1, 0, 2) has two
    # representations in U(1, 0, 1), so `member` refuses it as bad input
    T = TopologyInstance("z", WeightSequence.explicit([1, 2, 3, 4, 5, 6]))
    with pytest.raises(ValueError, match="ambiguous representation"):
        base_property_check(T, BasicNbhd(1, 0, 1), BasicNbhd(1, 0, 2))


def _base_property_family(**params):
    """gen-con-one's base-property check at params, not yet run."""
    checks = SUITES["gen-con-one"](
        read_params(params, SUITE_PARAMS["gen-con-one"]), 0)
    return dict(checks)["base-property-family"]


def test_base_property_family_skips_only_pairs_without_common_points():
    T = Tz(4)
    family = _gen_con_one_family(T, 3)
    intersecting = points = 0
    for u1, u2 in combinations(family, 2):
        v = base_property_check(T, u1, u2)
        assert v.status == PASS
        if T.basic_points(u1).keys().isdisjoint(T.basic_points(u2).keys()):
            assert v.witness["common_points"] == 0
        else:
            intersecting += 1
            points += v.witness["common_points"]
    n = len(family)
    v = _base_property_family(index_bound=4, a_max=3)()
    assert v.status == PASS
    assert v.witness == {"family": n, "pairs": n * (n - 1) // 2,
                         "intersecting_pairs": intersecting,
                         "common_points_checked": points}


def test_base_property_family_fails_under_a_sabotaged_member(monkeypatch):
    # every U(1, s, alpha) with alpha <= 3 holds (0, s + w_3), a point of
    # the tables that this `member` denies
    member = TopologyInstance.member

    def sabotaged(self, nbhd, point):
        if nbhd.a == 1 and point == (0, nbhd.s + self.weights.value(3)):
            return Verdict(FAIL)
        return member(self, nbhd, point)

    check = _base_property_family(index_bound=4, a_max=3)
    monkeypatch.setattr(TopologyInstance, "member", sabotaged)
    assert check().status == FAIL


def test_hausdorff_witness_same_s():
    T = Tz(6)
    v = hausdorff_witness(T, (0, 0), (2, 0))
    assert v.status == PASS
    assert v.witness["x_nbhd"].alpha == 1
    assert v.witness["y_nbhd"].alpha == 1


def test_hausdorff_witness_representable_difference():
    T = Tz(6)
    v = hausdorff_witness(T, (0, 0), (0, 16))
    assert v.status == PASS
    # difference w_2 has top index 2, so both sets live just above it
    assert v.witness["two_sided"] == ((2,), ())
    assert v.witness["x_nbhd"].alpha == 3
    assert v.witness["y_nbhd"].alpha == 3


def test_hausdorff_exhaustive_small():
    T = Tz(4)
    w = T.weights
    vals = [0, w.value(1), -w.value(1), w.value(2), w.value(1) + w.value(3)]
    pts = [(x, u) for x in (0, 1) for u in vals]
    for p, q in combinations(pts, 2):
        assert hausdorff_witness(T, p, q).status == PASS
    assert hausdorff_exhaustive(T, pts) == hausdorff_pairwise(T, pts)


def _gen_con_one_points(T, h_a_max):
    """The points `gen-con-one`'s Hausdorff check separates pairwise."""
    w = T.weights
    uvals = {0} | {sign * w.value(i) for i in T.mask for sign in (1, -1)}
    uvals |= {si * w.value(i) + sj * w.value(j)
              for i, j in combinations(T.mask, 2)
              for si in (1, -1) for sj in (1, -1)}
    return [(x, u) for x in range(h_a_max + 1) for u in sorted(uvals)]


@pytest.mark.parametrize("bound", [4, 6])
def test_hausdorff_exhaustive_matches_pairwise_witnesses(bound):
    T = Tz(bound)
    points = _gen_con_one_points(T, 2)
    v = hausdorff_exhaustive(T, points)
    assert v == hausdorff_pairwise(Tz(bound), points)
    n = len(points)
    assert v.witness == {"points": n, "pairs": n * (n - 1) // 2}


# Small point sets over each base, the explicit weights 1, 2, 3, 5 among
# them: 1 + 2 = 3 makes some pairs share a point, and Tz(3)'s bound leaves
# large differences unsettled, so every status shows up.
_SMALL = {"z": lambda: Tz(3), "odd_nat": lambda: Todd(4),
          "explicit": lambda: TopologyInstance(
              "z", WeightSequence.explicit([1, 2, 3, 5]))}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(_SMALL)), data=st.data())
def test_hausdorff_exhaustive_matches_pairwise_on_drawn_points(kind, data):
    T = _SMALL[kind]()
    w = list(T.weights.values)
    if T.multiplicative:
        coords = st.sampled_from([1, 3, 9, 15, 35, 77, 105, 1001, 13 * 17])
    else:
        coords = st.one_of(st.sampled_from(
            [0] + w + [-v for v in w] + [w[0] + w[-1], w[1] - w[2]]),
            st.integers(-300, 300), st.just(2 ** 40))
    points = data.draw(st.lists(st.tuples(st.integers(0, 2), coords),
                                min_size=2, max_size=8, unique=True))
    assert hausdorff_exhaustive(T, points) == hausdorff_pairwise(_SMALL[kind](),
                                                                 points)


def test_hausdorff_exhaustive_fails_on_a_sabotaged_pair(monkeypatch):
    # one stray point in every basic set around p and around q makes that
    # pair, and only it, share a point; the sweep must name it with the
    # witness hausdorff_witness gives it
    T = Tz(4)
    points = _gen_con_one_points(T, 2)
    p, q = (1, 4), (2, -16)
    assert hausdorff_witness(T, p, q).status == PASS
    stray = (9, 9)
    table = TopologyInstance.basic_points

    def padded(self, nbhd):
        out = table(self, nbhd)
        return {**out, stray: ()} if (nbhd.a, nbhd.s) in (p, q) else out

    monkeypatch.setattr(TopologyInstance, "basic_points", padded)
    v = hausdorff_exhaustive(T, points)
    inner = hausdorff_witness(T, p, q)
    assert inner.status == FAIL and inner.witness["common_point"] == stray
    assert v == Verdict(FAIL, {"x": p, "y": q, "inner": inner.witness},
                        inner.detail)
    check = dict(SUITES["gen-con-one"](
        read_params({"index_bound": 4}, SUITE_PARAMS["gen-con-one"]), 0))
    assert check["hausdorff-exhaustive"]() == v


def test_hausdorff_exhaustive_validates_before_it_sweeps():
    # every point is checked before the first pair, and a repeated point
    # is refused before any pair is tested
    T = Tz(4)
    with pytest.raises(TypeError, match="True, 0"):
        hausdorff_exhaustive(T, [(0, 0), (0, 0), (True, 0)])
    with pytest.raises(ValueError, match="points must be distinct"):
        hausdorff_exhaustive(T, [(0, 0), (1, 0), (0, 0)])
    # a first pair unsettled at Tz(3)'s bound, or sharing the point (0, 3)
    # since 1 + 2 = 3, would end the sweep before the repeated point
    explicit = TopologyInstance("z", WeightSequence.explicit([1, 2, 3]))
    for T, points in ((Tz(3), [(0, 0), (0, 2 ** 40), (0, 0)]),
                      (explicit, [(2, 0), (1, 0), (2, 0)])):
        with pytest.raises(ValueError, match="points must be distinct"):
            hausdorff_exhaustive(T, points)


def test_gen_con_one_decides_each_question_once(monkeypatch):
    # work counts at default params: base-property-family asks `member`
    # 34,348 times for 2,358 distinct answers (each answer unshifts its
    # point once), and hausdorff-exhaustive asks each S-difference's
    # two-sided representation once and reads each (point, level) set once
    made = []
    tz = suites._tz
    monkeypatch.setattr(suites, "_tz", lambda b: made.append(tz(b)) or made[-1])
    checks = dict(SUITES["gen-con-one"](
        read_params({}, SUITE_PARAMS["gen-con-one"]), 0))
    counts = Counter()
    reads = Counter()

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def reading(self, nbhd):
        reads[nbhd] += 1
        return table(self, nbhd)

    for name in ("member", "unshift"):
        monkeypatch.setattr(TopologyInstance, name,
                            counting(name, getattr(TopologyInstance, name)))
    assert checks["base-property-family"]().status == PASS
    assert counts == {"member": 34_348, "unshift": 2_358}
    assert len(made[0]._member_cache) == 2_358

    counts.clear()
    table = TopologyInstance.basic_points
    monkeypatch.setattr(TopologyInstance, "basic_points", reading)
    monkeypatch.setattr(TopologyInstance, "two_sided_representation",
                        counting("two_sided_representation",
                                 TopologyInstance.two_sided_representation))
    v = checks["hausdorff-exhaustive"]()
    assert v.witness == {"points": 219, "pairs": 23_871}
    assert counts == {"two_sided_representation": 1_124}
    assert len(reads) == 1_293 and set(reads.values()) == {1}


def test_hausdorff_witness_past_thirteen_masked_indices():
    v = hausdorff_exhaustive(Tz(14), [(0, 0), (1, 5)])
    assert v.status == PASS


def test_base_property_check_past_the_digit_limit():
    # w_13 and w_14 have more than 4300 decimal digits
    v = base_property_check(Tz(14), BasicNbhd(1, 0, 14), BasicNbhd(1, 0, 13))
    assert v.status == PASS
    assert v.witness["common_points"] == 2


def test_hausdorff_overlap_past_the_digit_limit():
    # w_1 + w_2 = w_3 breaks unique representability, so the sets around
    # (2, 0) and (1, 0) share the point (0, w_3)
    big = 10 ** 5000
    T = TopologyInstance("z", WeightSequence.explicit([big, 2 * big, 3 * big]))
    v = hausdorff_exhaustive(T, [(2, 0), (1, 0)])
    assert v.status == FAIL
    assert v.witness["inner"]["common_point"] == (0, 3 * big)


def test_separate_continuity_past_the_digit_limit():
    T = Tz(14)
    v = separate_continuity_identity(T, (0, 0), (1, T.weights.value(14)), 14)
    assert v.status == PASS


def test_separate_continuity_identity_cases():
    T = Tz(6)
    for shift in ((0, 0), (1, 4), (2, -16)):
        v = separate_continuity_identity(T, shift, (1, 0), 2)
        assert v.status == PASS
        assert v.witness["points_checked"] > 0


def test_separate_continuity_odd_base():
    T = Todd(6)
    v = separate_continuity_identity(T, (1, 3), (1, 5), 2)
    assert v.status == PASS


def test_separate_continuity_fails_where_member_flips_an_outer_point(
        monkeypatch):
    # negative control: (0, w_3) lies in U(1, 0, 2), and its translate by
    # (1, 4) is reported outside U(2, 4, 2)
    T = Tz(6)
    outer, p = BasicNbhd(2, 4, 2), (0, T.weights.value(3))
    moved = (1, 4 + T.weights.value(3))
    assert T.member(outer, moved).status == PASS
    member = TopologyInstance.member

    def flipped(self, nbhd, point):
        if (nbhd, point) == (outer, moved):
            return Verdict(FAIL)
        return member(self, nbhd, point)

    monkeypatch.setattr(TopologyInstance, "member", flipped)
    v = separate_continuity_identity(T, (1, 4), (1, 0), 2)
    assert v.status == FAIL
    assert v.witness == {"point": p, "translated": moved,
                         "in_preimage": False, "in_inner": True}


# -- convergence certificates and transfer ------------------------------


def seq_to_limit(T, c, v, start=1):
    w = T.weights
    return [(c - 1, T.s_op(v, w.value(j)))
            for j in range(start, w.index_bound + 1)]


def test_check_convergence_produces_certificate():
    T = Tz(6)
    seq = seq_to_limit(T, 2, 0)
    res = check_convergence(T, seq, (2, 0), 3)
    assert res.status == PASS
    cert = res.witness
    assert isinstance(cert, ConvergenceCertificate)
    assert cert.thresholds[1] == 1
    assert cert.thresholds[3] == 3     # first term with index >= 3
    assert cert.revalidate(T, seq).status == PASS


def _certificate_to_2_0():
    T = Tz(6)
    seq = seq_to_limit(T, 2, 0)
    return T, seq, check_convergence(T, seq, (2, 0), 3).witness


def test_revalidate_fails_on_a_shorter_prefix():
    T, seq, cert = _certificate_to_2_0()
    v = cert.revalidate(T, seq[:-1])
    assert v.status == FAIL
    assert v.witness == {"prefix_len": 6, "terms": 5}


def test_revalidate_names_the_level_and_term_a_lowered_threshold_admits():
    # at level 3 the tail starts at term 3; from term 1 it takes in w_1,
    # whose index lies below the level
    T, seq, cert = _certificate_to_2_0()
    lowered = dataclasses.replace(cert, thresholds={**cert.thresholds, 3: 1})
    v = lowered.revalidate(T, seq)
    assert v.status == FAIL
    assert v.witness == {"alpha": 3, "term": 1}


def test_revalidate_fails_on_a_missing_level():
    T, seq, cert = _certificate_to_2_0()
    thresholds = {k: n for k, n in cert.thresholds.items() if k != 2}
    v = dataclasses.replace(cert, thresholds=thresholds).revalidate(T, seq)
    assert v.status == FAIL
    assert v.witness == {"alpha": 2}


def test_check_convergence_detects_divergence():
    T = Tz(6)
    seq = [(1, 3)] * 4                  # 3 is never representable
    out = check_convergence(T, seq, (2, 0), 2)
    assert out.status == FAIL


def test_find_limit_recovers_construction():
    T = Todd(8)
    seq = seq_to_limit(T, 1, 5, start=2)
    got = find_limit(T, seq, 3)
    assert got.status == PASS
    assert got.witness.limit == (1, 5)
    assert got.witness.revalidate(T, seq)


def test_find_limit_not_found_at_horizon():
    # no unshift candidate holds the last term, and a constant prefix
    # would always certify to its own last term
    v = find_limit(Tz(6), [(0, 0)] * 5 + [(0, 1000)], 3)
    assert v.status == UNDETERMINED
    assert v.witness is None and v.detail


def test_subset_sum_table_matches_weight_total(monkeypatch):
    # every (alpha, a) the suites ask for at their defaults, and limit
    # recovery's (1, 3), tabled on each base and on explicit weights
    used = {(1, 3)}
    table = TopologyInstance._subset_sum_table

    def recorded(self, alpha, a):
        used.add((alpha, a))
        return table(self, alpha, a)

    monkeypatch.setattr(TopologyInstance, "_subset_sum_table", recorded)
    for name in SUITES:
        if name != "section4-no-predual":      # partial maps, no topology
            suites.run_suite(name, {})
    monkeypatch.undo()
    assert {(1, 0), (4, 5), (7, 2)} <= used
    top = max(alpha for alpha, _ in used)
    for T in (Tz(top), TopologyInstance("zplus", WeightSequence.double_exp(top)),
              Todd(top), TopologyInstance("z", WeightSequence.explicit(
                  [3 * i + i * i for i in range(1, top + 1)]), (1, 2, 4, 5))):
        for alpha, a in sorted(used):
            idxs = [i for i in T.mask if i >= alpha]
            assert T._subset_sum_table(alpha, a) == tuple(
                (combo, T.weight_total(combo))
                for k in range(a + 1) for combo in combinations(idxs, k))


def _limit_candidates_loop(T, sequence):
    # oracle: each term unshifted by every set of at most three masked
    # weights, the weight total recomputed for each
    counts = {}
    for x, u in sequence:
        for k in range(4):
            for combo in combinations(T.mask, k):
                if T.multiplicative:
                    v, r = divmod(u, T.weight_total(combo))
                    if r:
                        continue
                else:
                    v = u - T.weight_total(combo)
                if T.in_S(v):
                    counts[(x + k, v)] = counts.get((x + k, v), 0) + 1
    return sorted(counts, key=lambda cand: (-counts[cand], cand))[:10]


@settings(max_examples=60)
@given(st.sampled_from(["zplus", "z", "odd_nat", "explicit"]),
       st.integers(1, 9), st.data())
def test_limit_candidates_match_unshift_loop(kind, bound, data):
    # up to 16 terms drawn from a pool of at most six, so terms repeat and
    # the counts of their candidates tie
    if kind == "odd_nat":
        T = Todd(bound)
    elif kind == "explicit":
        T = TopologyInstance("z", WeightSequence.explicit(
            sorted(data.draw(st.sets(st.integers(1, 60), min_size=bound,
                                     max_size=bound)))))
    else:
        T = TopologyInstance(kind, WeightSequence.double_exp(bound))
    T = TopologyInstance(T.base, T.weights, data.draw(
        st.sets(st.integers(1, bound), min_size=1)))
    pool = []
    for _ in range(data.draw(st.integers(0, 6))):
        s = T.s_op(T.s_identity, T.weight_total(
            data.draw(st.sets(st.sampled_from(T.mask), max_size=3))))
        u = s + data.draw(st.sampled_from([0, 0, 1, -2]))
        if T.in_S(u):
            pool.append((data.draw(st.integers(0, 3)), u))
    seq = data.draw(st.lists(st.sampled_from(pool), max_size=16)) if pool else []
    assert _limit_candidates(T, seq) == _limit_candidates_loop(T, seq)


def test_limit_candidates_lead_with_the_constructed_limit():
    # the shape of a limit-recovery query: terms (c - 1, v + w_j) for
    # j = 1..8 all unshift by one weight to (c, v), and nothing else is
    # reached by every term
    T = Tz(8)
    seq = [(1, -123 + T.weights.value(j)) for j in range(1, 9)]
    got = _limit_candidates(T, seq)
    assert got[0] == (2, -123)
    assert got == _limit_candidates_loop(T, seq)


@pytest.mark.parametrize("term", [(-4, 7), (0, 4), (1, Fraction(1, 3)),
                                  (True, 3), [0, 3], (0, 3, 1), (0, "3")])
def test_a_term_that_is_not_a_point_is_a_type_error(term):
    T = Todd(4)
    U = BasicNbhd(1, 3, 1)
    for call in (lambda: T.member(U, term),
                 lambda: member_bruteforce(T, U, term),
                 lambda: check_convergence(T, [(1, 3), term], (1, 3), 2),
                 lambda: _limit_candidates(T, [(1, 3), term]),
                 lambda: find_limit(T, [(1, 3), term], 2)):
        with pytest.raises(TypeError):
            call()


def test_convergence_transfer_z():
    T = Tz(8)
    seq = seq_to_limit(T, 2, 4, start=2)
    shift = (1, 16)
    res = convergence_transfer(T, seq, shift, 3, (3, 20))
    assert res.status == PASS
    assert res.witness["predicted_limit"] == (2, 4)
    assert res.witness["certificate"].revalidate(T, seq)
    shifted = [(p[0] + 1, p[1] + 16) for p in seq]
    assert res.witness["shifted_certificate"].revalidate(T, shifted)
    assert "division" not in res.witness


@pytest.mark.parametrize("shifted_limit", [(3, 21), (2, 20), (4, 20)])
def test_convergence_transfer_fails_on_a_wrong_shifted_limit(shifted_limit):
    # the limit is given, not searched for, so a wrong one must not pass
    T = Tz(8)
    seq = seq_to_limit(T, 2, 4, start=2)
    res = convergence_transfer(T, seq, (1, 16), 3, shifted_limit)
    assert res.status == FAIL
    assert res.detail.startswith("shifted sequence failed to certify")
    assert "predicted_limit" not in res.witness


def test_convergence_transfer_odd_instance():
    T = Todd(8)
    seq = seq_to_limit(T, 1, 1, start=1)
    res = convergence_transfer(T, seq, (0, 3), 3, (1, 3))
    assert res.status == PASS
    assert res.witness["predicted_limit"] == (1, 1)


def test_convergence_transfer_zplus_not_applicable():
    T = TopologyInstance("zplus", WeightSequence.double_exp(4))
    res = convergence_transfer(T, [(0, 4)], (0, 0), 2, (0, 4))
    assert res.status == NOT_APPLICABLE


def _gen_con_two_checks(**params):
    """gen-con-two's checks at params, not yet run."""
    return dict(SUITES["gen-con-two"](
        read_params(params, SUITE_PARAMS["gen-con-two"]), 0))


def test_gen_con_two_shifts_by_the_identity_and_every_weight(monkeypatch):
    # at the default index bound of 12, each base's transfer check shifts
    # by the identity of S and by each of the 12 masked weights
    shifts = {}
    transfer = topologies.convergence_transfer

    def recording(T, sequence, shift, *rest):
        shifts.setdefault(T, set()).add(shift[1])
        return transfer(T, sequence, shift, *rest)

    monkeypatch.setattr(topologies, "convergence_transfer", recording)
    checks = _gen_con_two_checks()
    for cid in ("transfer-z", "transfer-odd"):
        assert checks[cid]().status == PASS
    assert sorted(T.base for T in shifts) == ["odd_nat", "z"]
    for T, seen in shifts.items():
        assert T.weights.index_bound == 12
        assert seen == {T.s_identity, *T.weights.values}


def test_transfer_checks_refuse_certificates_that_claim_every_term(
        monkeypatch):
    # a PASS certificate that puts threshold 1 at every level claims each
    # term of the prefix inside every U(limit, alpha); the terms with a
    # weight below alpha are not, and revalidation must say so
    check = topologies.check_convergence

    def overclaiming(T, sequence, limit, alpha_max):
        res = check(T, sequence, limit, alpha_max)
        if not res:
            return res
        thresholds = dict.fromkeys(range(1, alpha_max + 1), 1)
        return Verdict(PASS, dataclasses.replace(res.witness,
                                                 thresholds=thresholds))

    monkeypatch.setattr(topologies, "check_convergence", overclaiming)
    checks = _gen_con_two_checks()
    for cid in ("transfer-z", "transfer-odd"):
        res = checks[cid]()
        assert res.status == FAIL
        assert res.detail == "term outside U(limit, alpha)"


# -- the two conditions on the weights ----------------------------------


def test_verify_star_double_exp():
    v = verify_star(WeightSequence.double_exp(6))
    assert v.status == PASS
    assert v.witness["multisets"] == 3 ** 6


def test_verify_star_negative_control():
    v = verify_star(WeightSequence.explicit([1, 2, 3]))
    assert v.status == FAIL
    assert v.witness["value"] == 3      # 1 + 2 = 3 collides


def test_verify_star_star_bases():
    assert verify_star_star(Tz(4), 5).witness["alpha_t"] == 1
    odd = verify_star_star(Todd(6), 9, s_window=1000)
    assert odd.status == PASS
    assert odd.witness["alpha_t"] == 2  # first weight above 3 is 5
    zp = TopologyInstance("zplus", WeightSequence.double_exp(4))
    assert verify_star_star(zp, 5).status == NOT_APPLICABLE


def test_verify_star_star_undetermined_when_bound_too_low():
    T = Todd(2)                          # weights 3, 5 only
    assert verify_star_star(T, 35).status == UNDETERMINED


# -- distinguishing masked topologies -----------------------------------


def test_distinguish_two_masks():
    w = WeightSequence.double_exp(8)
    v = distinguish_topologies(w, [1, 2, 3, 4], [1, 2, 7, 8], 8)
    assert v.status == PASS
    sym = v.witness["symmetric_difference"]
    assert sorted(sym) == [3, 4, 7, 8]
    for rec in v.witness["witnesses"]:
        assert rec["point"] == (0, w.value(rec["index"]))


def test_distinguish_fails_where_member_refuses_an_owner_entry(monkeypatch):
    # negative control: (0, w_7) is refused from the level-1 set around
    # (1, 0) of its owning mask2, so index 7 no longer separates the masks
    w = WeightSequence.double_exp(8)
    member = TopologyInstance.member

    def refusing(self, nbhd, point):
        if (self.mask, nbhd.alpha, point) == ((1, 2, 7, 8), 1, (0, w.value(7))):
            return Verdict(FAIL)
        return member(self, nbhd, point)

    monkeypatch.setattr(TopologyInstance, "member", refusing)
    v = distinguish_topologies(w, [1, 2, 3, 4], [1, 2, 7, 8], 8)
    assert v.status == FAIL
    assert v.witness == {"index": 7, "point": (0, w.value(7))}


def test_mask_family_pairwise_symmetric_difference():
    family = mask_family(8, 12)
    assert family.status == PASS
    masks = family.witness
    assert len(masks) == 8
    floor = max(2, 12 // 3)
    for m1, m2 in combinations(masks, 2):
        assert len(set(m1) ^ set(m2)) >= floor


def test_mask_family_deterministic():
    # the scan runs by size, then in combinations order, and keeps the
    # first subset of 1..10 that differs from (1, 2, 3) in 3 indices
    family = mask_family(6, 10)
    assert family == mask_family(6, 10)
    assert family.witness == sorted(family.witness, key=lambda m: (len(m), m))
    assert family.witness[:2] == [(1, 2, 3), (1, 4, 5)]


def test_mask_family_completes_over_the_suite_range():
    _, lo_masks, hi_masks = SUITE_PARAMS["remark4-continuum"]["masks"]
    _, lo_horizon, hi_horizon = SUITE_PARAMS["remark4-continuum"]["horizon"]
    for horizon in range(lo_horizon, hi_horizon + 1):
        floor = topologies._strong_symdiff(horizon)
        for count in range(lo_masks, hi_masks + 1):
            family = mask_family(count, horizon)
            assert family.status == PASS and len(family.witness) == count
            for m1, m2 in combinations(family.witness, 2):
                assert len(set(m1) ^ set(m2)) >= floor


@pytest.mark.parametrize("horizon", [0, MAX_INDEX_BOUND + 1])
def test_mask_family_horizon_is_a_weight_index(horizon):
    with pytest.raises(ValueError):
        mask_family(3, horizon)


@pytest.mark.parametrize("count,horizon", [(30, 4), (4, 3), (1, 2), (10, 4)])
def test_mask_family_that_cannot_be_completed_is_undetermined(count, horizon):
    # at horizon 4 the 6 masks of size 2 pairwise differ in 2 indices and
    # no mask of size 3 differs that much from all of them; at horizon 3
    # only the 3 masks of size 2 exist; at horizon 2 no size fits at all.
    # The scan settles each at once.
    v = mask_family(count, horizon)
    assert v.status == UNDETERMINED and v.witness is None
    assert v.detail
    assert min(timeit.repeat(lambda: mask_family(count, horizon),
                             number=1, repeat=3)) < 0.01


# -- convergent-subsequence correspondence ------------------------------


def test_good_corr_discrete():
    S = NatMul()
    found = good_corr_check(DiscreteTopology(S), 5, [2, 3, 2, 3, 2])
    assert found.status == PASS
    assert found.witness["limit"] in (2, 3)
    vac = good_corr_check(DiscreteTopology(S), 5, [2, 4, 8, 16])
    assert vac.status == NOT_APPLICABLE


def test_good_corr_one_point():
    S = NatInfinity()
    v = good_corr_check(OnePointTopology(S), 1, list(range(1, 8)))
    assert v.status == PASS and v.witness["limit"] is INF


def test_good_corr_sigma_instance():
    T = Todd(8)
    seq = [(0, T.weights.value(j)) for j in range(1, 9)]
    v = good_corr_check(T, (0, 3), seq)
    assert v.status == PASS
    assert v.witness["limit"] == (1, 1)
    sub = [seq[i - 1] for i in v.witness["term_indices"]]
    assert v.witness["certificate"].revalidate(T, sub)


# -- transport to (N, multiplication) ------------------------------------


def test_odd_pair_encoding_examples():
    assert odd_pair_to_natural((3, 5)) == 40
    assert natural_to_odd_pair(40) == (3, 5)
    with pytest.raises(TypeError):
        odd_pair_to_natural((1, 4))


@pytest.mark.parametrize("value", [True, False, 1.0])
def test_odd_pair_encoding_takes_exact_ints_only(value):
    for point in ((value, 3), (1, value)):
        with pytest.raises(TypeError):
            odd_pair_to_natural(point)
    with pytest.raises(TypeError):
        natural_to_odd_pair(value)


@given(st.integers(0, 8), st.integers(0, 60), st.integers(0, 8),
       st.integers(0, 60))
def test_odd_pair_encoding_is_multiplicative(k1, n1, k2, n2):
    p1 = (k1, 2 * n1 + 1)
    p2 = (k2, 2 * n2 + 1)
    prod = (k1 + k2, p1[1] * p2[1])
    assert (odd_pair_to_natural(p1) * odd_pair_to_natural(p2)
            == odd_pair_to_natural(prod))
    assert natural_to_odd_pair(odd_pair_to_natural(p1)) == p1

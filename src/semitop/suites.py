"""Named verification suites: bundled check lists behind the CLI.

Every check normalizes its outcome to a PASS/FAIL/UNDETERMINED verdict (a
check expecting an inner failure, such as a negative control, passes when
the failure arrives as designed).  A check that tries many cases runs a
declared family of them (see `_family`), so a report is a function of the
suite parameters alone, once its one "timing" block is dropped.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, isqrt, prod

from . import dyadic, obstructions, topologies
from .jsonio import (MAX_INDEX_BOUND, SCHEMA_VERSION, SuiteError, read_params,
                     to_jsonable)
from .l1 import BoundedFunction, L1Vector, convolve, max_action_formula
from .semigroups import (INF, CyclicGroup, FreeWords, IntegerGroup, NatInfinity,
                         NatMax, NatMul, PartialMap, PartialMaps, ReesMatrix,
                         ZPlusK, ZPlusTimesZ, associativity_window,
                         is_cancellative_window,
                         is_finitely_left_divisible_window,
                         is_weakly_cancellative_window, length)
from .verdicts import (FAIL, NOT_APPLICABLE, PASS, UNDETERMINED, Verdict,
                       failed, passed)
from .wap import (LimitFunctional, arens_box, arens_diamond, counterexample_x,
                  indicator_of_evens, subsequence_pair_family,
                  telescoping_check, wap_test)


SUITES: dict = {}
SUITE_PARAMS: dict = {}


def _suite(name: str, **keys):
    """Register a suite builder under ``name`` with its integer parameters,
    each declared as (default, lo, hi).  The builder takes them read and
    range-checked, as keywords, and returns a list of (check_id, thunk).
    Its registry entry drops a second argument, which run_suite passes as
    None: perfbench's tracer wraps each entry as entry(params, x)."""
    def register(builder):
        SUITES[name] = lambda p, _: builder(**p)
        SUITE_PARAMS[name] = keys
        return builder
    return register


def _wrap(expected_status: str, inner: Verdict) -> Verdict:
    """Pass exactly when the inner verdict carries the expected status."""
    witness = {"inner": inner}
    if inner.status == expected_status:
        return passed(witness=witness,
                      detail=f"inner verdict is {expected_status} as required")
    return failed(witness=witness,
                  detail=f"expected {expected_status}, got {inner.status}")


def _relay(inner: Verdict, **context) -> Verdict:
    """The inner verdict's status and detail, its witness nested under
    "inner" after the keys that locate it.  Any other status than PASS,
    FAIL or UNDETERMINED is named in the detail and read as FAIL."""
    witness = {**context, "inner": inner.witness}
    if inner.status in (PASS, FAIL, UNDETERMINED):
        return Verdict(inner.status, witness, inner.detail)
    return failed(witness, f"inner verdict is {inner.status}" + (
        f": {inner.detail}" if inner.detail else ""))


def _family(count: int, *axes):
    """`count` cases of the product of the sequences ``axes``, each a
    list of one element per axis.  Case i is read off the mixed-radix
    digits, first axis most significant, of i * step mod the product's
    size, where step is the first number prime to the size from the
    size's golden section up: the last axis cycles every len(axes[-1])
    cases, and every `size` consecutive cases cover the product."""
    size = prod(map(len, axes))
    step = (isqrt(5 * size * size) - size) // 2
    while gcd(step, size) > 1:
        step += 1
    for i in range(count):
        k, case = i * step % size, []
        for axis in reversed(axes):
            k, d = divmod(k, len(axis))
            case.append(axis[d])
        yield case[::-1]


# ---------------------------------------------------------------------------
# suite builders


@_suite("lemma-technical", a_max=(4, 1, 5), alpha_max=(3, 1, 4),
       beta_max=(8, 1, 10), max_exp=(12, 4, 14))
def _suite_lemma_technical(a_max, alpha_max, beta_max, max_exp) -> list:
    def sweep():
        return dyadic.interval_identity_sweep(a_max, alpha_max, beta_max, max_exp)

    def model_coordinates():
        T = topologies.TopologyInstance(
            "z", topologies.WeightSequence.double_exp(max_exp))
        total = 0
        for a in sorted({1, a_max}):
            for alpha in sorted({1, alpha_max}):
                nbhd = topologies.BasicNbhd(a, 0, alpha)
                space = dyadic.XSpace(a, alpha, max_exp)
                image = {dyadic.psi(point, nbhd, T)
                         for point in T.basic_points(nbhd)}
                expected = set(space.points())
                if image != expected or len(image) != space.expected_count():
                    return failed(witness={
                        "a": a, "alpha": alpha,
                        "only_expected": sorted(
                            p.exponents for p in expected - image)[:3],
                        "only_image": sorted(
                            p.exponents for p in image - expected)[:3]})
                total += len(image)
        return passed(witness={"points_mapped": total},
                      detail="neighborhood members map exactly onto the "
                             "dyadic model points")

    return [("interval-identity-sweep", sweep),
            ("model-coordinates-match", model_coordinates)]


def _tz(bound: int) -> topologies.TopologyInstance:
    return topologies.TopologyInstance(
        "z", topologies.WeightSequence.double_exp(bound))


def _todd(bound: int) -> topologies.TopologyInstance:
    return topologies.TopologyInstance(
        "odd_nat", topologies.WeightSequence.odd_primes(bound))


@_suite("gen-con-one", index_bound=(6, 2, 8), a_max=(3, 0, 3),
       hausdorff_a_max=(2, 0, 2), triples=(100, 10, 300))
def _suite_gen_con_one(index_bound, a_max, hausdorff_a_max, triples) -> list:
    Tz = _tz(index_bound)
    Todd = _todd(index_bound)

    def base_property():
        w = Tz.weights
        centers = [0]
        for i in Tz.mask:
            centers += [w.value(i), -w.value(i)]
        family = [topologies.BasicNbhd(a, s, alpha)
                  for a in range(0, a_max + 1)
                  for s in centers
                  for alpha in range(1, index_bound + 1)]
        tables = [(u, Tz.basic_points(u).keys()) for u in family]
        intersecting = points_checked = 0
        for (u1, k1), (u2, k2) in combinations(tables, 2):
            if k1.isdisjoint(k2):
                continue        # no common point: nothing to check
            res = topologies.base_property_check(Tz, u1, u2)
            if res.status != PASS:
                return _relay(res, u1=u1, u2=u2)
            intersecting += 1
            points_checked += res.witness["common_points"]
        n = len(family)
        return passed(witness={"family": n, "pairs": n * (n - 1) // 2,
                               "intersecting_pairs": intersecting,
                               "common_points_checked": points_checked})

    def hausdorff():
        w = Tz.weights
        uvals = {sum(s * w.value(i) for s, i in zip(signs, idxs))
                 for k in range(3) for idxs in combinations(Tz.mask, k)
                 for signs in product((1, -1), repeat=k)}
        points = [(x, u) for x in range(hausdorff_a_max + 1)
                  for u in sorted(uvals)]
        return topologies.hausdorff_exhaustive(Tz, points)

    def separate_continuity(T):
        # levels up to 4; a center (a, v) and a shift (b, t), b <= 2, with
        # v, t the sums of the first k, m <= 2 of two masked weights in
        # order, v negated if in S and sign -1
        alpha_max = min(4, index_bound)
        pairs = list(permutations(T.mask, 2))
        total_points = 0
        for i, (alpha, a, k, idxs, sign, b, m, jdxs) in enumerate(_family(
                triples, range(1, alpha_max + 1), range(a_max + 1), range(3),
                pairs, (1, -1), range(3), range(3), pairs)):
            v, t = T.weight_total(idxs[:k]), T.weight_total(jdxs[:m])
            shift, center = (b, t), (a, -v if sign < 0 and T.in_S(-v) else v)
            res = topologies.separate_continuity_identity(T, shift, center, alpha)
            if res.status != PASS:
                return _relay(res, case=i, shift=shift, center=center,
                              alpha=alpha)
            total_points += res.witness["points_checked"]
        return passed(witness={"triples": triples, "alpha": [1, alpha_max],
                               "center_a": [0, a_max], "shift_a": [0, 2],
                               "terms": [0, 2], "points_checked": total_points})

    return [("base-property-family", base_property),
            ("hausdorff-exhaustive", hausdorff),
            ("separate-continuity-z", lambda: separate_continuity(Tz)),
            ("separate-continuity-odd", lambda: separate_continuity(Todd))]


# index_bound reaches alpha_max's top: each prefix ends at w_index_bound,
# so it certifies no level past index_bound
@_suite("gen-con-two", index_bound=(12, 6, 14), cases=(25, 5, 100),
       alpha_max=(4, 1, 6))
def _suite_gen_con_two(index_bound, cases, alpha_max) -> list:
    Tz = _tz(index_bound)
    Todd = _todd(index_bound)

    def transfer(T):
        # a limit (c, v), c <= 2, of the terms (c - 1, v w_j) (the law of
        # S) for j from start <= 3, and a shift (b, t), b <= 2: v the
        # identity or one masked weight, negated if in S and sign -1, t the
        # identity or a masked weight from w_alpha_max on (smaller ones
        # cost the longest division scans)
        late = [j for j in T.mask if j >= alpha_max]
        revalidated = 0
        for i, (c, k, jv, sign, start, b, m, jt) in enumerate(_family(
                cases, range(1, 3), range(2), T.mask, (1, -1), range(1, 4),
                range(3), range(2), late)):
            v, t = T.weight_total([jv] * k), T.weight_total([jt] * m)
            v = -v if sign < 0 and T.in_S(-v) else v
            shift = (b, t)
            terms = [(c - 1, T.s_op(v, T.weights.value(j)))
                     for j in range(start, index_bound + 1)]
            res = topologies.convergence_transfer(
                T, terms, shift, alpha_max, (c + shift[0], T.s_op(v, shift[1])))
            if not res:
                return _relay(res, case=i, shift=shift)
            w = res.witness
            if w["predicted_limit"] != (c, v):
                return failed(witness={"case": i,
                                       "predicted": w["predicted_limit"],
                                       "constructed": (c, v)})
            shifted = [(p[0] + shift[0], T.s_op(p[1], shift[1])) for p in terms]
            for key, seq in (("certificate", terms),
                             ("shifted_certificate", shifted)):
                check = w[key].revalidate(T, seq)
                if not check:
                    return _relay(check, case=i, certificate=key)
            if w["division"].status == FAIL:
                return failed(witness={"case": i, "division": w["division"]})
            revalidated += 1
        return passed(witness={"cases": cases, "c": [1, 2], "start": [1, 3],
                               "shift_a": [0, 2], "terms": [0, 1],
                               "shift_index": [alpha_max, index_bound],
                               "revalidated": revalidated})

    def transport():
        S = NatMul()
        odd = range(1, 82, 2)
        for a1, u1, a2, u2 in _family(200, range(6), odd, range(6), odd):
            p1, p2, pair = (a1, u1), (a2, u2), (a1 + a2, u1 * u2)
            lhs = topologies.odd_pair_to_natural(pair)
            rhs = S.product(topologies.odd_pair_to_natural(p1),
                            topologies.odd_pair_to_natural(p2))
            if lhs != rhs:
                return failed(witness={"p1": p1, "p2": p2})
            if topologies.natural_to_odd_pair(lhs) != pair:
                return failed(witness={"roundtrip": lhs})
        return passed(witness={"samples": 200, "a": [0, 5], "odd": [1, 81]},
                      detail="pair encoding is an isomorphism onto "
                             "multiplication of naturals")

    return [("transfer-z", lambda: transfer(Tz)),
            ("transfer-odd", lambda: transfer(Todd)),
            ("nat-mul-transport", transport)]


@_suite("star-condition", double_exp_bound=(6, 2, 12),
       odd_primes_bound=(8, 2, MAX_INDEX_BOUND),
       s_window=(10_000, 100, 100_000))
def _suite_star_condition(double_exp_bound, odd_primes_bound, s_window) -> list:
    def star_double():
        return topologies.verify_star(
            topologies.WeightSequence.double_exp(double_exp_bound))

    def star_odd():
        return topologies.verify_star(
            topologies.WeightSequence.odd_primes(odd_primes_bound))

    def star_negative():
        inner = topologies.verify_star(
            topologies.WeightSequence.explicit([1, 2, 3]))
        res = _wrap(FAIL, inner)
        if res and inner.witness["value"] != 3:
            return failed(witness={"inner": inner},
                          detail="collision found at an unexpected value")
        return res

    def division_z():
        return topologies.verify_star_star(_tz(double_exp_bound), 5,
                                           s_window=s_window)

    def division_odd():
        return topologies.verify_star_star(_todd(odd_primes_bound), 9,
                                           s_window=s_window)

    def division_zplus():
        T = topologies.TopologyInstance(
            "zplus", topologies.WeightSequence.double_exp(double_exp_bound))
        return _wrap(NOT_APPLICABLE, topologies.verify_star_star(T, 5))

    return [("star-double-exp", star_double),
            ("star-odd-primes", star_odd),
            ("star-negative-control", star_negative),
            ("division-z", division_z),
            ("division-odd", division_odd),
            ("division-zplus-not-applicable", division_zplus)]


@_suite("remark4-continuum", masks=(20, 2, 30),
       horizon=(12, 10, MAX_INDEX_BOUND))
def _suite_remark4_continuum(masks, horizon) -> list:
    def pairwise_distinct():
        family = topologies.mask_family(masks, horizon)
        if not family:
            return _relay(family)
        kept = family.witness
        w = topologies.WeightSequence.double_exp(horizon)
        strong = 0
        checked = 0
        sample = None
        for m1, m2 in combinations(kept, 2):
            res = topologies.distinguish_topologies(w, m1, m2, horizon)
            if not res:
                return _relay(res, mask1=list(m1), mask2=list(m2))
            checked += 1
            strong += bool(res.witness["strong"])
            if sample is None:
                sample = res.witness["witnesses"][0]
        return passed(witness={"pairs_distinct": checked, "strong": strong,
                               "expected": masks * (masks - 1) // 2,
                               "sample_witness": sample,
                               "masks": [list(m) for m in kept]})

    return [("mask-family-pairwise-distinct", pairwise_distinct)]


@_suite("good-corr", index_bound=(12, 4, 14))
def _suite_good_corr(index_bound) -> list:
    Todd = _todd(index_bound)

    def discrete_found():
        S = NatMul()
        seq = [2, 3, 2, 3, 2, 3, 2, 3]
        return _relay(topologies.good_corr_check(topologies.DiscreteTopology(S),
                                                 5, seq))

    def discrete_vacuous():
        S = NatMul()
        seq = [2, 4, 8, 16, 32, 64]
        res = topologies.good_corr_check(topologies.DiscreteTopology(S), 3, seq)
        return _wrap(NOT_APPLICABLE, res)

    def one_point(s, seq):
        res = topologies.good_corr_check(
            topologies.OnePointTopology(NatInfinity()), s, seq)
        if not res or res.witness["limit"] is not INF:
            return failed(witness={"inner": res})
        return passed(witness={"inner": res.witness})

    def sigma_found():
        seq = [(0, Todd.weights.value(j)) for j in range(1, index_bound + 1)]
        res = topologies.good_corr_check(Todd, (0, 3), seq)
        if not res:
            return _relay(res)
        sub = [seq[i - 1] for i in res.witness["term_indices"]]
        if res.witness["limit"] != (1, 1):
            return failed(witness={"inner": res.witness},
                          detail="limit mismatch")
        check = res.witness["certificate"].revalidate(Todd, sub)
        if not check:
            return _relay(check, limit=res.witness["limit"])
        return passed(witness={"limit": res.witness["limit"],
                               "terms_used": len(sub)})

    def sigma_vacuous():
        seq = [(0, 3), (1, 35), (0, 11), (2, 99), (1, 17), (0, 45)]
        res = topologies.good_corr_check(Todd, (0, 3), seq)
        return _wrap(NOT_APPLICABLE, res)

    return [("discrete-found", discrete_found),
            ("discrete-vacuous", discrete_vacuous),
            ("one-point-found", lambda: one_point(1, list(range(1, 11)))),
            ("one-point-constant",
             lambda: one_point(2, [INF, 1, INF, 2, INF, 3])),
            ("sigma-found", sigma_found),
            ("sigma-vacuous", sigma_vacuous)]


@_suite("nmax-wap", functions=(50, 1, 200), pairs=(50, 1, 200),
       horizon=(200, 20, 2000))
def _suite_nmax_wap(functions, pairs, horizon) -> list:
    pair_family = list(subsequence_pair_family(pairs, horizon, seed=0))

    def wap_family():
        # c / d modified at up to 6 points of 1..30 to m / n each (the last
        # wins at a repeated point), with c, m in -9..9 and d, n in 1..9
        mods = list(product(range(1, 31), range(-9, 10), range(1, 10)))
        for c, d, k, *rest in _family(functions, range(-9, 10), range(1, 10),
                                      range(7), *[mods] * 6):
            f = BoundedFunction.c0_plus_const(
                {s: Fraction(m, n) for s, m, n in rest[:k]}, Fraction(c, d))
            v = wap_test(f, pair_family)
            if not v:
                return failed(witness={"function": f, "inner": v})
        return passed(witness={"functions": functions, "pairs": pairs,
                               "terms": [0, 6], "points": [1, 30],
                               "numerator": [-9, 9], "denominator": [1, 9]})

    def indicator_not_wap():
        f = indicator_of_evens(horizon)
        v = wap_test(f, pair_family)
        if v.status != FAIL:
            return failed(witness={"inner": v},
                          detail="expected a pair of disagreeing limits")
        if not (v.witness["box"] == 0 and v.witness["diamond"] == 1):
            return failed(witness={"inner": v},
                          detail="witness values differ from the derived pair")
        return passed(witness={"box": v.witness["box"],
                               "diamond": v.witness["diamond"]})

    def collapse_values():
        omega = LimitFunctional.evens(horizon)
        upsilon = LimitFunctional.odds(horizon)
        one = BoundedFunction.c0_plus_const({}, 1)
        finite = BoundedFunction.c0_plus_const({3: Fraction(9)}, 0)
        checks = [
            (arens_box(omega, upsilon, one), Fraction(1)),
            (arens_diamond(omega, upsilon, one), Fraction(1)),
            (arens_box(omega, upsilon, finite), Fraction(0)),
            (arens_diamond(omega, upsilon, finite), Fraction(0)),
            (arens_box(omega, upsilon, indicator_of_evens(horizon)), Fraction(0)),
            (arens_diamond(omega, upsilon, indicator_of_evens(horizon)),
             Fraction(1)),
        ]
        for got, want in checks:
            if got != want:
                return failed(witness={"got": got, "want": want})
        return passed(witness={"values_checked": len(checks)})

    return [("wap-random-family", wap_family),
            ("wap-indicator-evens", indicator_not_wap),
            ("arens-collapse-values", collapse_values)]


@_suite("unique-l1s", s_max=(50, 5, 200), trials=(1000, 10, 5000))
def _suite_unique_l1s(s_max, trials) -> list:
    S = NatMax()

    def vector_axes(span, most):
        # 1..most terms, each a point of 1..span times -6..6 over 1..4
        term = list(product(range(1, span + 1), range(-6, 7), range(1, 5)))
        return (range(1, most + 1), *[term] * most)

    def vector(n, *terms):
        return L1Vector(S, [(s, Fraction(c, d)) for s, c, d in terms[:n]])

    def styled(*styles):
        # trial i has style i % 3 and is case i // 3 of its style's family
        for style, axes in enumerate(styles):
            for j, case in enumerate(_family((trials + 2 - style) // 3, *axes)):
                yield 3 * j + style, style, case

    def closed_form():
        for i, case in enumerate(_family(3 * s_max, *vector_axes(40, 5))):
            s = 1 + i // 3
            a = vector(*case)
            formula = max_action_formula(s, a)
            direct = convolve(L1Vector.delta(S, s), a)
            if formula != direct:
                return failed(witness={"s": s, "a": a, "formula": formula,
                                       "convolution": direct},
                              detail="closed form differs from convolve")
        return passed(witness={"identities": 3 * s_max, "terms": [1, 5],
                               "span": [1, 40]},
                      detail="closed form equals convolution on every trial")

    def telescoping():
        held = hypothesis_failed = 0
        # a against c / d modified at up to 6 points of 1..20, against a
        # constant, and two equal masses of opposite sign at or below k_cut
        # plus a mass above, against a function constant on 1..k_cut
        mods = list(product(range(1, 21), range(-9, 10), range(1, 10)))
        for i, style, case in styled(
                (range(-9, 10), range(1, 10), range(7), *[mods] * 6,
                 *vector_axes(20, 5)),
                (range(-5, 6), range(1, 4), *vector_axes(20, 5)),
                (range(2, 11), range(90), range(1, 6), range(1, 4),
                 range(1, 6), range(-4, 5), range(1, 5), range(-3, 4))):
            if style == 0:
                c, d, m, *rest = case
                x = BoundedFunction.c0_plus_const(
                    {s: Fraction(u, v) for s, u, v in rest[:m]}, Fraction(c, d))
                a = vector(*rest[6:])
            elif style == 1:
                c, d, *rest = case
                x = BoundedFunction.c0_plus_const({}, Fraction(c, d))
                a = vector(*rest)
            else:
                k_cut, pick, t_num, t_den, above, extra, c, const = case
                i1, i2 = list(permutations(range(1, k_cut + 1), 2))[
                    pick % (k_cut * (k_cut - 1))]
                t = Fraction(t_num, t_den)
                a = (L1Vector.delta(S, i1, t) - L1Vector.delta(S, i2, t)
                     + L1Vector.delta(S, k_cut + above, extra))
                x = BoundedFunction.c0_plus_const(
                    dict.fromkeys(range(1, k_cut + 1), c), const)
            top = max(a.support() + list(x.mod) + [1])
            res = telescoping_check(a, x, top + 3)
            if res.status == PASS:
                held += 1
            elif res.status == NOT_APPLICABLE:
                hypothesis_failed += 1
            else:
                return failed(witness={"trial": i, "inner": res})
        if held < trials // 4:
            return failed(witness={"held": held},
                          detail="too few trials satisfied the hypothesis; "
                                 "the check would be vacuous")
        return passed(witness={"trials": trials, "terms": [1, 5],
                               "span": [1, 20], "k_cut": [2, 10],
                               "hypothesis_held": held,
                               "hypothesis_failed": hypothesis_failed})

    def sharpness():
        multi = single = na = 0
        example = counterexample_x(L1Vector(S, [(1, 1), (2, 1)]))
        want = L1Vector.delta(S, 2) - L1Vector.delta(S, 1) + L1Vector.delta(S, 3)
        if not example or example.witness.s != 3 or example.witness.x != want:
            return failed(witness={"example": example},
                          detail="pinned two-term example disagrees")
        # a general vector, given one more point mass where its total
        # mass is zero; a point mass; and a difference of two equal masses
        for i, style, case in styled((*vector_axes(25, 6), range(1, 26)),
                                     (range(1, 31), range(1, 10)),
                                     (range(1, 21), range(1, 10))):
            if style == 0:
                a = vector(*case[:-1])
                if sum(c for _, c in a.terms()) == 0 or a.is_zero:
                    a = a + L1Vector.delta(S, case[-1])
            elif style == 1:
                a = L1Vector.delta(S, *case)
            else:
                k, c = case
                a = L1Vector.delta(S, k, c) - L1Vector.delta(S, k + 3, c)
            out = counterexample_x(a)
            if out:
                if len(a.support()) == 1:
                    single += 1
                else:
                    multi += 1
            elif out.status == NOT_APPLICABLE:
                na += 1
                if sum(c for _, c in a.terms()) != 0:
                    return failed(witness={"trial": i, "a": a},
                                  detail="nonzero mass reported as inapplicable")
            else:
                return failed(witness={"trial": i, "inner": out})
        if min(multi, single, na) == 0:
            return failed(witness={"multi": multi, "single": single, "na": na},
                          detail="a branch went unexercised")
        return passed(witness={"trials": trials, "terms": [1, 6],
                               "span": [1, 30], "multi_term": multi,
                               "single_term": single, "not_applicable": na})

    return [("max-action-closed-form", closed_form),
            ("telescoping-trials", telescoping),
            ("sharpness-witness-trials", sharpness)]


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, restoring its state on exit.

    run_suite runs every check under it.  That is sound while no check
    builds reference cycles (tests/test_suite_ranges.py holds every suite
    to that): reference counting alone frees their garbage, and the
    collector would only re-scan their live data.  Left running in the
    section-4 checks, it made a full pass (5-17 ms) every few suite runs,
    at whichever allocation crossed its threshold."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_suite("section4-no-predual", max_domain=(5, 2, 5), max_value=(6, 2, 7),
       fnp_trials=(1000, 10, 5000), n_max=(50, 5, 200))
def _suite_section4(max_domain, max_value, fnp_trials, n_max) -> list:
    # the map of the first k points of an order of the domain onto the
    # first k of an order of the values, k < max_domain
    k_max = min(max_domain - 1, max_value)
    map_axes = (range(k_max + 1),
                list(permutations(range(1, max_domain + 1))),
                list(permutations(range(1, max_value + 1))))
    bounds = {"points": [0, k_max], "domain": [1, max_domain],
              "values": [1, max_value]}

    def sweep():
        return obstructions.open_set_identity_sweep(max_domain, max_value)

    def fnp_family():
        total_ns = 0
        for i, (k, dom, img, j) in enumerate(_family(
                fnp_trials, *map_axes, range(max_domain + 1))):
            f = PartialMap(zip(sorted(dom[:k]), img[:k]))
            outside = [n for n in range(1, max_domain + 2) if n not in f.domain]
            n0 = outside[j % len(outside)]
            res = obstructions.verify_fnp(f, n0, range(1, n_max + 1))
            if res.status != PASS:
                return failed(witness={"trial": i, "f": f, "n0": n0,
                                       "inner": res})
            total_ns += res.witness["ns_checked"]
        return passed(witness={"trials": fnp_trials, **bounds,
                               "compositions_verified": total_ns})

    def fnp_negative():
        # p widened to fix n0 = 3 as well as dom f = {1}
        inner = obstructions._verify_fnp_through(
            PartialMap([(1, 2)]), 3, PartialMap([(1, 1), (3, 3)]),
            range(1, 21))
        return _wrap(FAIL, inner)

    def annihilation_cases():
        f = PartialMap([(1, 2)])
        first = obstructions.verify_annihilation(
            f, n0=3, g=PartialMap([(1, 2), (4, 7)]), k0=4,
            n_range=range(1, 21))
        if first.status != PASS or first.witness["nonzero_at"]:
            return failed(witness={"inner": first},
                          detail="distinct-points case should annihilate "
                                 "everywhere")
        second = obstructions.verify_annihilation(
            f, n0=3, g=PartialMap([(1, 2), (3, 9)]), k0=3,
            n_range=range(1, 21))
        if second.status != PASS or second.witness["nonzero_at"] != [9]:
            return failed(witness={"inner": second},
                          detail="coincident case should survive exactly at "
                                 "the predicted n")
        for i, (k, dom, img, j0, same, j1, j2) in enumerate(_family(
                200, *map_axes, range(max_domain + 2), (False, True),
                range(max_domain + 2), range(max_value + 3))):
            f = PartialMap(zip(sorted(dom[:k]), img[:k]))
            outside = [n for n in range(1, max_domain + 3) if n not in f.domain]
            free = [v for v in range(1, max_value + 4) if v not in f.image]
            n0 = outside[j0 % len(outside)]
            k0 = n0 if same else outside[j1 % len(outside)]
            g = f.extend(k0, free[j2 % len(free)])
            res = obstructions.verify_annihilation(f, n0, g, k0,
                                                   range(1, n_max + 1))
            if res.status != PASS:
                return failed(witness={"trial": i, "inner": res})
            want = [g(k0)] if (k0 == n0 and 1 <= g(k0) <= n_max
                               and g(k0) not in f.image) else []
            if res.witness["nonzero_at"] != want:
                return failed(witness={"trial": i, "inner": res,
                                       "expected_nonzero": want})
        return passed(witness={"random_cases": 200, **bounds})

    def annihilation_negative():
        f = PartialMap([(1, 2)])
        g = PartialMap([(1, 2), (4, 7)])
        h1 = PartialMap([(4, 4)])
        wrong = PartialMap([(8, 8)])        # fixes the wrong point
        mutated = wrong.compose(g).compose(h1)
        if not mutated.is_zero:
            return failed(witness={"mutated": mutated},
                          detail="the mutated compression should kill g")
        return passed(detail="mutated construction fails as designed")

    return [("open-set-identity-sweep", sweep),
            ("fnp-random", fnp_family),
            ("fnp-negative-control", fnp_negative),
            ("annihilation-cases", annihilation_cases),
            ("annihilation-negative-control", annihilation_negative),
            ("proof-skeleton", obstructions.proof_skeleton)]


@_suite("rees-cancellativity", rees_rank=(201, 10, 500),
       infty_rank=(200, 10, 500), nat_max_rank=(200, 10, 500))
def _suite_rees(rees_rank, infty_rank, nat_max_rank) -> list:
    def nat_max_passes():
        return is_weakly_cancellative_window(NatMax(), nat_max_rank)

    def _expect_growth(S, rank, skip_absorbing=False):
        inner = is_weakly_cancellative_window(S, rank)
        if inner.status != FAIL:
            return failed(witness={"inner": inner},
                          detail="expected a weak-cancellativity failure")
        records = inner.witness
        if skip_absorbing:
            records = [w for w in records if w["translate_by"] != S.has_zero]
            if not records:
                return failed(witness={"inner": inner},
                              detail="only the absorbing element witnessed the "
                                     "failure; a structural witness is required")
        sample = max(records, key=lambda w: len(w["preimages"]))
        return passed(witness={"largest_preimage_set": len(sample["preimages"]),
                               "translate_by": sample["translate_by"],
                               "target": sample["target"],
                               "counts": sample["counts"]})

    def infty_fails():
        return _expect_growth(NatInfinity(), infty_rank)

    def rees_fails():
        # one row per rank, so no window exhausts the (infinite) index set
        S = ReesMatrix(IntegerGroup(), rees_rank, 1, [[0] * rees_rank])
        return _expect_growth(S, rees_rank, skip_absorbing=True)

    return [("weakly-cancellative-nat-max", nat_max_passes),
            ("growth-witness-nat-infty", infty_fails),
            ("growth-witness-rees", rees_fails)]


@_suite("structural", rank=(12, 4, 24), assoc_rank=(8, 3, 16))
def _suite_structural(rank, assoc_rank) -> list:
    zp2, zp3 = ZPlusK(2), ZPlusK(3)
    free = FreeWords("ab")

    def cancellative():
        for S in (zp2, zp3, free):
            res = is_cancellative_window(S, rank)
            if res.status != PASS:
                return _relay(res, instance=S.name)
        return passed(witness={"instances": [zp2.name, zp3.name, free.name]})

    def divisible():
        checked = 0
        for S in (zp2, zp3, free):
            for s in S.window(rank):
                res = is_finitely_left_divisible_window(S, s, rank)
                if res.status != PASS:
                    return _relay(res, instance=S.name, s=s)
                checked += 1
        return passed(witness={"elements_checked": checked})

    def lengths():
        for S, formula in ((zp2, sum), (free, len)):
            for x in S.window(rank):
                expected = formula(x)
                got = length(S, x)
                if expected == 0:
                    if got:
                        return failed(witness={"instance": S.name, "x": x},
                                      detail="neutral element reported reachable")
                elif got.witness != expected:
                    return failed(witness={"instance": S.name, "x": x,
                                           "got": got.witness, "want": expected})
        return passed(witness={"window_rank": rank},
                      detail="search lengths equal the closed forms")

    def associative():
        instances = [zp2, free, NatMul(), NatMax(), NatInfinity(),
                     ZPlusTimesZ(), PartialMaps(),
                     ReesMatrix(CyclicGroup(3), 2, 2, [[1, 2], [0, 1]])]
        for S in instances:
            res = associativity_window(S, assoc_rank)
            if res.status != PASS:
                return _relay(res, instance=S.name)
        return passed(witness={"instances": [S.name for S in instances]})

    return [("cancellative-windows", cancellative),
            ("divisibility-windows", divisible),
            ("length-closed-forms", lengths),
            ("associativity-windows", associative)]


def run_suite(name: str, params: dict = None) -> dict:
    """Execute a named suite and assemble its report dictionary."""
    if name not in SUITES:
        raise SuiteError(f"unknown suite {name!r}; choose from "
                         f"{sorted(SUITES)}")
    params = {} if params is None else params
    checks = SUITES[name](read_params(params, SUITE_PARAMS[name]), None)
    t0 = time.perf_counter_ns()
    out_checks = []
    checks_ms = {}
    for cid, thunk in checks:
        t1 = time.perf_counter_ns()
        with _collector_paused():
            verdict = thunk()
        checks_ms[cid] = (time.perf_counter_ns() - t1) // 1_000_000
        out_checks.append({"id": cid, **to_jsonable(verdict)})
    total_ns = time.perf_counter_ns() - t0
    # a check reports PASS, FAIL or UNDETERMINED; any other status is a
    # broken check and never reads as a pass
    statuses = [c["status"] for c in out_checks]
    if any(s not in (PASS, UNDETERMINED) for s in statuses):
        overall = FAIL
    elif UNDETERMINED in statuses:
        overall = UNDETERMINED
    else:
        overall = PASS
    return {"schema_version": SCHEMA_VERSION, "suite": name,
            "params": to_jsonable(params),
            "checks": out_checks, "overall": overall,
            "timing": {"total_ms": total_ns // 1_000_000,
                       "checks_ms": checks_ms}}

"""Brute-force oracles that the tests hold the production paths to."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from semitop.l1 import L1Vector, convolve, pairing_vectors
from semitop.obstructions import _outside_domain, build_g, valid_ns
from semitop.semigroups import PartialMap, positive_int
from semitop.topologies import BasicNbhd
from semitop.verdicts import (PASS, UNDETERMINED, Verdict, failed,
                              not_applicable, passed, undetermined)
from semitop.wap import SharpnessWitness


def coeff_sum(a):
    """The total mass of the vector a, summed from its integer numerators."""
    return Fraction(sum(a._num.values()), a._den)


def member_bruteforce(T, nbhd, point):
    """Membership of point in U(nbhd) by exhaustive subset enumeration,
    the oracle of ``TopologyInstance.member``."""
    x, u = T.require_point(point)
    k = nbhd.a - x
    if k < 0 or k > nbhd.a:
        return failed(detail="first coordinate out of range")
    idxs = [i for i in T.mask if i >= nbhd.alpha]
    diff = T.g_diff(u, nbhd.s)
    for combo in combinations(idxs, k):
        if T.weight_total(combo) == diff:
            return passed(combo)
    return failed()


def hausdorff_witness(T, x, y):
    """Disjoint basic sets around two distinct points, both at the level
    their S-coordinates give, each set read afresh: the per-pair oracle
    of ``hausdorff_exhaustive``.

    Equal S-coordinates separate at level 1.  Otherwise the level sits
    just above the top index of a two-sided representation of their
    difference, or is 1 when there is none.
    """
    x = T.require_point(x)
    y = T.require_point(y)
    if x == y:
        raise ValueError("points must be distinct")
    (a, s), (b, t) = x, y
    alpha, two_sided = 1, None
    if s != t:
        rep2 = T.two_sided_representation(T.g_diff(t, s))
        if rep2.status == UNDETERMINED:
            return undetermined("representability of the difference is "
                                "unsettled at the index bound")
        if rep2:
            two_sided = rep2.witness
            alpha = max(two_sided[0] + two_sided[1]) + 1
    ux = BasicNbhd(a, s, alpha)
    uy = BasicNbhd(b, t, alpha)
    overlap = T.basic_points(ux).keys() & T.basic_points(uy).keys()
    witness = {"x_nbhd": ux, "y_nbhd": uy, "two_sided": two_sided}
    if overlap:
        return failed(witness={**witness, "common_point": min(overlap)})
    return passed(witness=witness,
                  detail="truncated basic sets are disjoint")


def hausdorff_pairwise(T, points):
    """``hausdorff_witness`` on every pair of points in turn, the first
    pair that does not pass located as "x" and "y": the oracle of
    ``hausdorff_exhaustive``."""
    pairs = 0
    for p, q in combinations(points, 2):
        res = hausdorff_witness(T, p, q)
        if res.status != PASS:
            return Verdict(res.status, {"x": p, "y": q, "inner": res.witness},
                           res.detail)
        pairs += 1
    return passed(witness={"points": len(points), "pairs": pairs},
                  detail="disjoint separating sets found for every pair")


def fn_threshold(f):
    """Least bound so that every n at or above it gives a valid extension."""
    img = f.image
    return (max(img) + 1) if img else 1


def build_fn(f, n0, n):
    """f_n: f plus the pair n0 -> n, built by ``PartialMap.extend``."""
    try:
        return f.extend(n0, n)
    except ValueError as exc:
        raise ValueError(f"{exc}; with n0 outside the domain of f, any "
                         f"n >= {fn_threshold(f)} works") from None


def verify_fnp_oracle(f, n0, p, n_range):
    """``verify_fnp``'s kernel, for the given p, with each f_n built by
    ``build_fn`` and composed by ``PartialMap.compose``."""
    _outside_domain(f, n0)
    ns = valid_ns(f, n_range)
    for n in ns:
        composite = build_fn(f, n0, n).compose(p)
        if composite != f:
            return failed(witness={"n": n, "p": p.pairs,
                                   "composite": composite.pairs,
                                   "f": f.pairs})
    return passed(witness={"ns_checked": len(ns), "p": p.pairs},
                  detail="composition returns f for every valid n"
                         if ns else "vacuous: no valid n in range")


def verify_annihilation_oracle(f, n0, g, k0, n_range):
    """``verify_annihilation`` with each f_n built by ``build_fn`` and
    compressed by ``PartialMap.compose``; the preconditions are left to
    the kernel, which is run first."""
    h1 = PartialMap([(k0, k0)])
    h2 = PartialMap([(g(k0), g(k0))])
    alive = h2.compose(g).compose(h1)
    ns = valid_ns(f, n_range)
    nonzero_at = []
    for n in ns:
        comp = h2.compose(build_fn(f, n0, n)).compose(h1)
        predicted_nonzero = (k0 == n0 and n == g(k0))
        if comp.is_zero == predicted_nonzero:
            return failed(witness={"n": n, "composite": comp.pairs,
                                   "predicted_nonzero": predicted_nonzero})
        if not comp.is_zero:
            nonzero_at.append(n)
    return passed(witness={"ns_checked": len(ns), "alive": alive.pairs,
                           "nonzero_at": nonzero_at})


@dataclass(frozen=True)
class OpenSetSpec:
    """Maps agreeing with f on its domain and vanishing on fprime."""

    f: PartialMap
    fprime: frozenset

    def __post_init__(self):
        fp = frozenset(positive_int(n, "an fprime point") for n in self.fprime)
        if not fp.isdisjoint(self.f.domain):
            raise ValueError("fprime must be disjoint from the domain of f")
        object.__setattr__(self, "fprime", fp)


def o_member(spec, h):
    """h lies in the basic set of spec, read off h's values one by one."""
    return (all(h(n) == spec.f(n) for n in spec.f.domain)
            and all(h(n) == 0 for n in spec.fprime))


def open_set_identity(f, fprime, universe, g=None):
    """One spec of ``open_set_identity_sweep``, checked literally:
    {h : h o g = f} against the basic set, composing every h of the
    universe by ``PartialMap.compose``.  ``g`` replaces ``build_g(f, F')``
    for the negative controls."""
    spec = OpenSetSpec(f, fprime)
    if g is None:
        g = build_g(f, spec.fprime)
    left = {i for i, h in enumerate(universe) if h.compose(g) == f}
    right = {i for i, h in enumerate(universe) if o_member(spec, h)}
    if left == right:
        return passed(witness={"set_size": len(left), "g": g.pairs})
    diff = sorted(left ^ right)[:3]
    return failed(witness={
        "g": g.pairs,
        "only_in": [("preimage" if i in left else "basic_set",
                     universe[i].pairs) for i in diff]})


def stabilized(vals):
    """The last value of vals when its final constant run covers at least
    a quarter of vals and at least two terms; None otherwise."""
    run = 0
    while run < len(vals) and vals[-1 - run] == vals[-1]:
        run += 1
    if vals and run >= max(2, len(vals) // 4):
        return vals[-1]
    return None


def eval_limit_oracle(phi, f):
    """``eval_limit`` from the Fraction values of f, read off its
    samples at every index of phi within the sample."""
    if f.tag == "c0_plus_const":
        return f.const
    samples = f._ints
    return stabilized([Fraction(*samples[p - 1]) for p in phi.along
                       if p <= len(samples)])


def counterexample_x_rescanning(a):
    """The sharpness witness of ``counterexample_x`` built from Fractions,
    re-summing the terms of a at or below every candidate s: the oracle
    of its single walk over the support."""
    S = a.instance
    total = coeff_sum(a)
    if total == 0:
        return not_applicable("total mass is zero; no such x exists this way")
    supp = sorted(a.support())
    if len(supp) == 1:
        s = supp[0] + 1
        x = L1Vector.delta(S, s)
    else:
        s0, s1 = supp[0], supp[1]
        s = None
        for cand in range(s1 + 1, max(supp) + 2):
            mass = sum((c for t, c in a.terms() if t <= cand), Fraction(0))
            if a.coeff(cand) == 0 and mass != 0:
                s = cand
                break
        if s is None:
            return failed(witness={"total_mass": total},
                          detail="no admissible s found; unreachable when "
                                 "the total mass is nonzero")
        x = (L1Vector.delta(S, s1, a.coeff(s0))
             - L1Vector.delta(S, s0, a.coeff(s1))
             + L1Vector.delta(S, s))
    p0 = pairing_vectors(x, a)
    p1 = pairing_vectors(x, convolve(L1Vector.delta(S, s), a))
    expected = sum((c for t, c in a.terms() if t <= s), Fraction(0))
    if p0 != 0 or p1 != expected or p1 == 0:
        return failed(witness={"pairing_a": p0, "pairing_translated": p1,
                               "expected": expected},
                      detail="witness verification failed")
    return passed(SharpnessWitness(x=x, s=s, pairing_a=p0, pairing_translated=p1))

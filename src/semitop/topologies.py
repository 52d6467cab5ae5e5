"""Neighborhood-base topologies on Z_+ x S built from weight subsequences.

A topology instance fixes a base semigroup S sitting inside a group G
(additive: S = Z_+ or Z inside Z; multiplicative: odd naturals inside the
positive rationals), a weight sequence compatible with that base, and a
mask selecting a subsequence of the weights.  Points are pairs (a, s);
the basic set U(a, s, alpha) collects every (a - k, s combined with a sum
of k distinct masked weights indexed at or above alpha).

Everything here is decided relative to the declared index bound of the
weight sequence.  Membership and representation searches return a
`Verdict`: PASS with the representation indices as witness, FAIL, or
UNDETERMINED when the answer could depend on masked indices beyond the
bound, which is never collapsed into a FAIL.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import nsmallest
from itertools import combinations, product as iproduct, takewhile
from math import prod
from operator import neg
from typing import Any, Iterable, Iterator, Optional, Sequence

from .semigroups import INF, _quoted, positive_int
from .verdicts import (FAIL, UNDETERMINED, Verdict, failed, not_applicable,
                       passed, undetermined)

_BASES = ("zplus", "z", "odd_nat")

# The largest weight index bound a WeightSequence takes: w_16 = 2^65536 is
# still cheap, and each further index doubles its size.  So it also caps the
# masked indices of every representation search.
MAX_INDEX_BOUND = 16

# The most digits a decimal string in a query may hold: w_16 has 19,729
# (2^16 log10 2), and 3/5 of 2^16 is about twice that.
MAX_DECIMAL_DIGITS = 2 ** MAX_INDEX_BOUND * 3 // 5


def _odd_primes(n: int) -> list:
    out = []
    cand = 3
    while len(out) < n:
        # out holds every odd prime below cand, so trial division by those
        # up to sqrt(cand) decides primality of the odd candidate
        if all(cand % p for p in takewhile(lambda p: p * p <= cand, out)):
            out.append(cand)
        cand += 2
    return out


def _prime_factors(n: int) -> dict:
    n = positive_int(n, "n")
    out: dict = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class WeightSequence:
    """A truncated strictly increasing weight sequence, 1-indexed, built
    only by the constructor of its kind, which is also its `kind`."""

    __slots__ = ("kind", "index_bound", "values")

    def __init__(self, *args, **kwargs):
        raise TypeError("use WeightSequence.double_exp, .odd_primes or .explicit")

    @classmethod
    def _make(cls, kind: str, count: Any, compute) -> "WeightSequence":
        """The `count` weights that compute(count) yields; a count outside
        1..MAX_INDEX_BOUND is refused before any is computed or read."""
        if type(count) is not int or not 1 <= count <= MAX_INDEX_BOUND:
            raise ValueError(f"weights take 1 to {MAX_INDEX_BOUND} indices, "
                             f"not {_quoted(count)}")
        self = object.__new__(cls)
        self.kind, self.index_bound, self.values = kind, count, tuple(compute(count))
        return self

    @classmethod
    def double_exp(cls, index_bound: int) -> "WeightSequence":
        return cls._make("double_exp", index_bound,
                         lambda n: (2 ** (2 ** i) for i in range(1, n + 1)))

    @classmethod
    def odd_primes(cls, index_bound: int) -> "WeightSequence":
        return cls._make("odd_primes", index_bound, _odd_primes)

    @classmethod
    def explicit(cls, values: Sequence) -> "WeightSequence":
        values = tuple(values)          # as many indices as values
        w = cls._make("explicit", len(values),
                      lambda _: (positive_int(v, "a weight") for v in values))
        if any(a >= b for a, b in zip(w.values, w.values[1:])):
            raise ValueError("weights must be strictly increasing")
        return w

    def value(self, i: int) -> int:
        if not 1 <= i <= self.index_bound:
            raise IndexError(f"index {i} outside 1..{self.index_bound}")
        return self.values[i - 1]

    def __repr__(self) -> str:
        return f"WeightSequence({self.kind}, bound={self.index_bound})"


def full_mask(index_bound: int) -> tuple:
    return tuple(range(1, index_bound + 1))


@dataclass(frozen=True)
class BasicNbhd:
    """Parameters (a, s, alpha) of one basic set."""

    a: int
    s: Any
    alpha: int

    def __post_init__(self):
        if type(self.a) is not int or self.a < 0:
            raise ValueError(f"a must be a nonnegative integer, got "
                             f"{_quoted(self.a)}")
        positive_int(self.alpha, "alpha")


class TopologyInstance:
    """One masked weight topology on Z_+ x S."""

    def __init__(self, base: str, weights: WeightSequence,
                 mask: Optional[Iterable] = None):
        if base not in _BASES:
            raise ValueError(f"base must be one of {_BASES}")
        if weights.kind == "odd_primes" and base != "odd_nat":
            raise ValueError("odd prime weights go with the odd_nat base")
        if weights.kind in ("double_exp", "explicit") and base == "odd_nat":
            raise ValueError("additive weights go with the additive bases")
        mask = tuple(sorted({positive_int(i, "a mask index") for i in mask})) \
            if mask is not None else full_mask(weights.index_bound)
        if not mask:
            raise ValueError("mask must be nonempty")
        if mask[-1] > weights.index_bound:
            raise ValueError("mask indices must lie within the index bound")
        self.base = base
        self.weights = weights
        self.mask = mask
        self._mask_set = frozenset(mask)
        self._member_cache: dict = {}     # (nbhd, point) -> member verdict
        self._subset_sums: dict = {}
        self._basic_points: dict = {}

    def __repr__(self) -> str:
        return f"TopologyInstance({self.base}, {self.weights!r}, mask={list(self.mask)})"

    # -- base-dependent arithmetic ------------------------------------

    @property
    def multiplicative(self) -> bool:
        return self.base == "odd_nat"

    @property
    def s_identity(self):
        return 1 if self.multiplicative else 0

    def in_S(self, u: Any) -> bool:
        if type(u) is not int:
            return False
        if self.base == "zplus":
            return u >= 0
        if self.base == "z":
            return True
        return u >= 1 and u % 2 == 1

    def s_op(self, u, v):
        return u * v if self.multiplicative else u + v

    def g_diff(self, u, v):
        """u combined with the group inverse of v; may leave S."""
        if self.multiplicative:
            return Fraction(u, v)
        return u - v

    def weight_total(self, indices: Iterable) -> int:
        total = 1 if self.multiplicative else 0
        for i in indices:
            w = self.weights.value(i)
            total = total * w if self.multiplicative else total + w
        return total

    def require_point(self, point: Any) -> tuple:
        """``point`` as (x, u) with exact ints; TypeError unless it is a
        point of Z+ x S."""
        if isinstance(point, tuple) and len(point) == 2:
            x, u = point
            if type(x) is int and x >= 0 and self.in_S(u):
                return (x, u)
        raise TypeError(f"{_quoted(point)} is not a point of Z+ x S for base "
                        f"{self.base}")

    def unshift(self, u: int, t: int) -> Optional[int]:
        """The v in S with v combined with t equal to u, or None."""
        if self.multiplicative:
            v, r = divmod(u, t)
            if r:
                return None
        else:
            v = u - t
        return v if self.in_S(v) else None

    # -- representations ----------------------------------------------

    def find_representation(self, diff: int, min_index: int) -> Verdict[tuple]:
        """The unique way of writing diff, an exact int, as a combination of
        distinct masked weights with indices >= min_index, when one exists.

        PASS carries the sorted index tuple as witness.  FAIL is
        definitive; UNDETERMINED means the answer could involve masked
        indices beyond the declared index bound.
        """
        if type(diff) is not int:
            raise TypeError(f"{diff!r} is not an exact int")
        if self.weights.kind == "double_exp":
            return self._rep_double_exp(diff, min_index)
        if self.weights.kind == "odd_primes":
            return self._rep_odd_primes(diff, min_index)
        return self._rep_explicit(diff, min_index)

    def _rep_double_exp(self, diff: int, min_index: int) -> Verdict[tuple]:
        if diff < 0:
            return failed(detail="not a nonnegative integer")
        if diff == 0:
            return passed(())
        bound = self.weights.index_bound
        indices = []
        undet = False
        d = diff
        while d:
            low = d & -d
            pos = low.bit_length() - 1
            d ^= low
            n = pos.bit_length() - 1
            if pos < 2 or (1 << n) != pos:
                return failed(detail="bit position is not a power of two")
            if n > bound:
                undet = True
            elif n < min_index or n not in self._mask_set:
                return failed(detail="weight index below the level or unmasked")
            else:
                indices.append(n)
        if undet:
            return undetermined("weight index beyond the bound")
        return passed(tuple(sorted(indices)))

    def _rep_odd_primes(self, n: int, min_index: int) -> Verdict[tuple]:
        if n < 1:
            return failed(detail="not a positive integer")
        if n == 1:
            return passed(())
        indices = []
        for i, w in enumerate(self.weights.values, start=1):
            if n % w == 0:
                n //= w
                if n % w == 0:
                    return failed(detail="repeated prime cannot occur")
                if i < min_index or i not in self._mask_set:
                    return failed(detail="weight index below the level or unmasked")
                indices.append(i)
            if n == 1:
                break
        if n == 1:
            return passed(tuple(indices))
        if n % 2 == 0:
            return failed(detail="even cofactor is never a weight")
        return undetermined("odd cofactor beyond the bound")

    def _rep_explicit(self, diff: int, min_index: int) -> Verdict[tuple]:
        # explicit sequences are complete finite lists, so always settled
        idxs = [i for i in self.mask if i >= min_index]
        found = sorted((tuple(i for c, i in zip(vec, idxs) if c)
                        for vec in self._explicit_matches(diff, idxs, (0, 1))),
                       key=lambda combo: (len(combo), combo))
        if not found:
            return failed(detail="no combination of the weights")
        if len(found) > 1:
            # the weights lack unique representability: bad input, named
            # by index sets, since diff may have too many digits to print
            raise ValueError(
                f"ambiguous representation: {found[:2]} (weights lack "
                f"unique representability)")
        return passed(found[0])

    def _explicit_matches(self, diff: int, idxs: Sequence,
                          coeffs: tuple) -> Iterator[tuple]:
        """Every coefficient vector over idxs, in `product(coeffs)` order,
        whose weighted sum of the weights at idxs is diff: meet in the
        middle, the upper half's vectors tabled by their sum."""
        values = [self.weights.value(i) for i in idxs]
        half = len(values) // 2

        def sums(part):
            for vec in iproduct(coeffs, repeat=len(part)):
                yield vec, sum(c * v for c, v in zip(vec, part) if c)

        upper: dict = {}
        for vec, total in sums(values[half:]):
            upper.setdefault(total, []).append(vec)
        for vec, total in sums(values[:half]):
            for rest in upper.get(diff - total, ()):
                yield vec + rest

    # -- membership ----------------------------------------------------

    def member(self, nbhd: BasicNbhd, point: Any) -> Verdict[tuple]:
        """Whether point lies in U(nbhd): PASS with the representation
        indices as witness, FAIL with the reason as detail, or
        UNDETERMINED at the index bound.  Memoised per (nbhd, point); both
        are checked before the memo, which would take (True, 0) for the
        point (1, 0), and a call that raises leaves no entry."""
        self.require_point((nbhd.a, nbhd.s))
        point = self.require_point(point)
        out = self._member_cache.get((nbhd, point))
        if out is not None:
            return out
        x, u = point
        k = nbhd.a - x
        diff = self.unshift(u, nbhd.s)
        if k < 0:
            out = failed(detail="first coordinate out of range")
        elif diff is None:
            out = failed()
        else:
            rep = self.find_representation(diff, nbhd.alpha)
            if rep.status == UNDETERMINED:
                out = undetermined("representation undetermined at the index bound")
            elif not rep or len(rep.witness) != k:
                out = failed()
            else:
                out = rep
        self._member_cache[(nbhd, point)] = out
        return out

    def basic_points(self, nbhd: BasicNbhd) -> dict:
        """All members whose representation stays within the index bound,
        memoised as {point: indices}: points in `combinations` order of
        their first representation, each keyed to its last."""
        out = self._basic_points.get(nbhd)
        if out is None:
            self.require_point((nbhd.a, nbhd.s))
            out = self._basic_points[nbhd] = {
                (nbhd.a - len(combo), self.s_op(nbhd.s, total)): combo
                for combo, total in self._subset_sum_table(nbhd.alpha, nbhd.a)}
        return out

    def _subset_sum_table(self, alpha: int, a: int) -> tuple:
        """(indices, weight total) for every set of at most `a` masked
        indices at or above alpha, in `combinations` order by size."""
        out = self._subset_sums.get((alpha, a))
        if out is None:
            idxs = [i for i in self.mask if i >= alpha]
            values = [self.weights.value(i) for i in idxs]
            combine = prod if self.multiplicative else sum
            # combinations of the indices and of their weights come in the
            # same order, so each weight is read once
            out = self._subset_sums[(alpha, a)] = tuple(
                (combo, combine(ws)) for k in range(a + 1)
                for combo, ws in zip(combinations(idxs, k),
                                     combinations(values, k)))
        return out

    # -- two-sided representations (for separation witnesses) -----------

    def two_sided_representation(self, diff: Any) -> Verdict[tuple]:
        """diff as the weight combination over `plus` combined with the
        inverse of the one over `minus`: PASS with (plus, minus) as
        witness, FAIL, or UNDETERMINED at the index bound.  diff is an
        exact int (or a Fraction on the odd naturals); True, 1.0 and an
        integral Fraction on Z are refused, not read as ints."""
        if type(diff) is not int and not (type(diff) is Fraction
                                          and self.multiplicative):
            raise TypeError(f"{diff!r} is not an exact difference in S")
        if self.multiplicative:
            diff = Fraction(diff)
            plus = self._rep_odd_primes(diff.numerator, 1)
            minus = self._rep_odd_primes(diff.denominator, 1)
            for part in (plus, minus):
                if part.status == FAIL:
                    return part
            for part in (plus, minus):
                if part.status == UNDETERMINED:
                    return part
            return passed((plus.witness, minus.witness))
        if self.weights.kind == "explicit":
            signs = next(self._explicit_matches(diff, self.mask, (-1, 0, 1)), None)
            if signs is None:
                return failed(detail="no signed combination of the weights")
        else:
            signs = self._signed_double_exp(diff)
            if signs is None:
                # any signed combination using an index above the bound has
                # absolute value at least w(bound+1) - sum of all bounded weights
                bound = self.weights.index_bound
                min_new = 2 ** (2 ** (bound + 1)) - sum(self.weights.values)
                if abs(diff) < min_new:
                    return failed(detail="no signed combination of the weights")
                return undetermined("a combination could use indices beyond the bound")
        plus = tuple(i for sign, i in zip(signs, self.mask) if sign > 0)
        minus = tuple(i for sign, i in zip(signs, self.mask) if sign < 0)
        return passed((plus, minus))

    def _signed_double_exp(self, diff: int) -> Optional[tuple]:
        """The signs over the mask of the signed representation of diff, or
        None.  Each weight exceeds twice the sum of the weights below it, so
        the representation is unique and the top weight is taken exactly
        when the remainder exceeds the sum of the lower masked weights."""
        values = [self.weights.value(i) for i in self.mask]
        signs = [0] * len(values)
        below = sum(values)
        d = diff
        for pos in range(len(values) - 1, -1, -1):
            below -= values[pos]
            if abs(d) > below:
                signs[pos] = 1 if d > 0 else -1
                d -= signs[pos] * values[pos]
        return tuple(signs) if d == 0 else None


# ---------------------------------------------------------------------------
# base facts: filter property, separation, continuity


def base_property_check(T: TopologyInstance, u1: BasicNbhd, u2: BasicNbhd) -> Verdict:
    """Filter-base property at the truncation: every common point of two
    basic sets admits an enclosed basic set contained in both.  `member`
    decides every enclosed point, so colliding explicit weights raise here
    as they do there."""
    pts1 = T.basic_points(u1)
    pts2 = T.basic_points(u2)
    common = sorted(pts1.keys() & pts2.keys())
    checked = 0
    for p in common:
        g1 = (max(pts1[p]) + 1) if pts1[p] else u1.alpha
        g2 = (max(pts2[p]) + 1) if pts2[p] else u2.alpha
        enclosed = BasicNbhd(p[0], p[1], max(g1, g2))
        for q in T.basic_points(enclosed):
            r1 = T.member(u1, q)
            r2 = T.member(u2, q)
            if r1.status == UNDETERMINED or r2.status == UNDETERMINED:
                return undetermined(f"membership undetermined near {p!r}")
            if not (r1 and r2):
                return failed(witness={"common_point": p, "escaping": q,
                                       "enclosed_alpha": max(g1, g2)})
            checked += 1
    return passed(witness={"common_points": len(common), "enclosed_checked": checked})


def hausdorff_exhaustive(T: TopologyInstance, points: Sequence) -> Verdict:
    """Disjoint basic sets around every pair of `points`, in `combinations`
    order, deciding each separation level and reading each basic set once.
    The points must be distinct; disjointness is confirmed exhaustively on
    the truncation.

    Level recipe: equal S-coordinates separate at level 1; otherwise the
    S-difference either has a two-sided weight representation, in which
    case the level sits just above its top index, or it has none and
    level 1 suffices.

    PASS counts the points and pairs.  The first pair that does not pass
    is returned as "x" and "y": UNDETERMINED when the representability of
    its difference is unsettled at the index bound, FAIL when its sets
    meet, with both sets, the two-sided witness and their least common
    point nested under "inner".
    """
    points = [T.require_point(p) for p in points]
    if len(set(points)) < len(points):
        raise ValueError("points must be distinct")
    levels: dict = {}       # S-difference -> (level, two-sided witness) or None
    tables: dict = {}       # (point, level) -> keys of its basic points

    def keys(p, alpha):
        out = tables.get((p, alpha))
        if out is None:
            out = tables[(p, alpha)] = T.basic_points(BasicNbhd(*p, alpha)).keys()
        return out

    for p, q in combinations(points, 2):
        diff = T.g_diff(q[1], p[1])
        if diff not in levels:
            if p[1] == q[1]:
                levels[diff] = (1, None)
            else:
                rep2 = T.two_sided_representation(diff)
                if rep2.status == UNDETERMINED:
                    levels[diff] = None
                elif rep2:
                    plus, minus = rep2.witness
                    levels[diff] = (max(plus + minus) + 1, rep2.witness)
                else:
                    levels[diff] = (1, None)
        level = levels[diff]
        if level is None:
            return Verdict(UNDETERMINED, {"x": p, "y": q, "inner": None},
                           "representability of the difference is unsettled "
                           "at the index bound")
        alpha, two_sided = level
        kp, kq = keys(p, alpha), keys(q, alpha)
        if not kp.isdisjoint(kq):
            return failed(witness={"x": p, "y": q, "inner": {
                "x_nbhd": BasicNbhd(*p, alpha), "y_nbhd": BasicNbhd(*q, alpha),
                "two_sided": two_sided, "common_point": min(kp & kq)}})
    n = len(points)
    return passed(witness={"points": n, "pairs": n * (n - 1) // 2},
                  detail="disjoint separating sets found for every pair")


def separate_continuity_identity(T: TopologyInstance, shift: tuple, center: tuple,
                                 alpha: int) -> Verdict:
    """Translation preimage identity at the truncation.

    With M the translation by `shift`, the preimage of the basic set around
    the translated center at level alpha is exactly the basic set around
    the original center at the same level.  The check runs over every point
    of both candidate sets (the inner set and the pulled-back outer set).
    """
    b, t = T.require_point(shift)
    a, s = T.require_point(center)
    inner = BasicNbhd(a, s, alpha)
    outer = BasicNbhd(a + b, T.s_op(s, t), alpha)

    def push(p):
        return (p[0] + b, T.s_op(p[1], t))

    universe = set(T.basic_points(inner))
    for xq, uq in T.basic_points(outer):
        v = T.unshift(uq, t)
        if xq - b >= 0 and v is not None:
            universe.add((xq - b, v))
    for p in sorted(universe):
        lhs = T.member(outer, push(p))
        rhs = T.member(inner, p)
        if lhs.status == UNDETERMINED or rhs.status == UNDETERMINED:
            return undetermined(f"membership undetermined at {p!r}")
        if lhs.status != rhs.status:
            return failed(witness={"point": p, "translated": push(p),
                                   "in_preimage": bool(lhs), "in_inner": bool(rhs)})
    return passed(witness={"points_checked": len(universe)})


# ---------------------------------------------------------------------------
# convergence


@dataclass
class ConvergenceCertificate:
    limit: tuple
    alpha_max: int
    thresholds: dict       # alpha -> least 1-based N with the tail inside
    witnesses: tuple       # per term: representation indices, or None
    prefix_len: int

    def revalidate(self, T: TopologyInstance, sequence: Sequence) -> Verdict:
        """PASS when each level's tail lies in U(limit, alpha); FAIL names
        the broken level and term, a level with no threshold, or a length."""
        if len(sequence) != self.prefix_len:
            return failed(witness={"prefix_len": self.prefix_len,
                                   "terms": len(sequence)},
                          detail="the sequence is not the certified prefix")
        b, t = self.limit
        for alpha in range(1, self.alpha_max + 1):
            n0 = self.thresholds.get(alpha)
            if n0 is None:
                return failed(witness={"alpha": alpha},
                              detail="no threshold recorded at this level")
            for n in range(n0, self.prefix_len + 1):
                if not T.member(BasicNbhd(b, t, alpha), sequence[n - 1]):
                    return failed(witness={"alpha": alpha, "term": n},
                                  detail="term outside U(limit, alpha)")
        return passed()


def check_convergence(T: TopologyInstance, sequence: Sequence, limit: tuple,
                      alpha_max: int) -> Verdict[ConvergenceCertificate]:
    """Convergence of a finite prefix to `limit`, certified.

    PASS carries a `ConvergenceCertificate` as witness: for each level
    alpha up to alpha_max it stores the least N with every later term
    inside U(limit, alpha).  A term that violates membership at some level
    with no recovery before the end of the prefix yields FAIL
    (prefix-relative divergence evidence); an unsettled membership yields
    UNDETERMINED.
    """
    b, t = T.require_point(limit)
    alpha_max = positive_int(alpha_max, "alpha_max")
    reps = []
    for n, term in enumerate(sequence, start=1):
        res = T.member(BasicNbhd(b, t, 1), term)
        if res.status == UNDETERMINED:
            return undetermined(f"membership of term {n} undetermined at the bound")
        reps.append(res.witness if res else None)
    if not reps:
        raise ValueError("empty sequence")
    thresholds = {}
    for alpha in range(1, alpha_max + 1):
        bad = [n for n, rep in enumerate(reps, start=1)
               if rep is None or (rep and min(rep) < alpha)]
        if not bad:
            thresholds[alpha] = 1
        elif bad[-1] == len(reps):
            return failed(witness={"alpha": alpha, "violating_terms": bad[:5],
                                   "prefix_len": len(reps)},
                          detail="no tail of the prefix stays inside at this level")
        else:
            thresholds[alpha] = bad[-1] + 1
    return passed(ConvergenceCertificate(limit=(b, t), alpha_max=alpha_max,
                                         thresholds=thresholds,
                                         witnesses=tuple(reps),
                                         prefix_len=len(reps)))


def _limit_candidates(T: TopologyInstance, sequence: Sequence) -> list:
    """The ten points most often reached by unshifting a term by up to
    three masked weights, most frequent first, ties in point order."""
    table = [(len(combo), total) for combo, total in T._subset_sum_table(1, 3)]
    counts: Counter = Counter()
    for term in sequence:
        x, u = T.require_point(term)
        # T.unshift, one comprehension per base: every v is in S on z, and
        # on the odd naturals a quotient of odd positives is odd positive
        if T.base == "z":
            counts.update([(x + k, u - t) for k, t in table])
        elif T.base == "zplus":
            counts.update([(x + k, u - t) for k, t in table if u >= t])
        else:
            counts.update([(x + k, u // t) for k, t in table if not u % t])
    # the ten least (-count, point) pairs
    return [cand for _, cand in
            nsmallest(10, zip(map(neg, counts.values()), counts))]


def find_limit(T: TopologyInstance, sequence: Sequence,
               alpha_max: int) -> Verdict[ConvergenceCertificate]:
    """Best-effort limit search over unshift candidates.

    PASS is the first certifying candidate's convergence verdict, whose
    certificate carries the limit; a miss is UNDETERMINED, never evidence
    of divergence.  An empty sequence raises, as in check_convergence.
    """
    if not sequence:
        raise ValueError("empty sequence")
    for cand in _limit_candidates(T, sequence):
        res = check_convergence(T, sequence, cand, alpha_max)
        if res:
            return res
    return undetermined("no limit found among the unshift candidates")


def convergence_transfer(T: TopologyInstance, sequence: Sequence, shift: tuple,
                         alpha_max: int, shifted_limit: tuple) -> Verdict[dict]:
    """Convergence of a sequence inferred from convergence of its shift.

    The shifted sequence (terms combined with `shift`) is certified to
    `shifted_limit` (b, t), a point the caller supplies: its limit is not
    searched for here, so a wrong one is a FAIL or UNDETERMINED from that
    certification.  The predicted limit of the original sequence divides
    the shift back out, and must land inside Z_+ x S, which is where the
    division condition on the base enters.  The original prefix is then
    certified to the predicted limit directly.

    The witness dict carries whichever of "predicted_limit", "certificate",
    "shifted_limit" and "shifted_certificate" the function reached; when
    the shifted sequence fails to certify, the witness is that failure's
    own.
    """
    if T.base == "zplus":
        return not_applicable("no division data is claimed for the zplus base")
    a, s = T.require_point(shift)
    shifted = [(p[0] + a, T.s_op(p[1], s)) for p in map(T.require_point, sequence)]
    res = check_convergence(T, shifted, shifted_limit, alpha_max)
    if not res:
        return Verdict(res.status, res.witness,
                       "shifted sequence failed to certify: " + res.detail)
    shifted_cert = res.witness
    b, t = shifted_cert.limit
    back = T.unshift(t, s)
    reached = {"shifted_limit": shifted_cert.limit,
               "shifted_certificate": shifted_cert}
    if b - a < 0 or back is None:
        return failed(witness={"shift": shift, **reached},
                      detail="predicted limit leaves Z+ x S")
    predicted = (b - a, back)
    res = check_convergence(T, sequence, predicted, alpha_max)
    if not res:
        return Verdict(res.status,
                       {**(res.witness or {}), "predicted_limit": predicted,
                        **reached},
                       "original sequence failed to certify: " + res.detail)
    return passed(witness={"predicted_limit": predicted,
                           "certificate": res.witness, **reached})


# ---------------------------------------------------------------------------
# the unique-representability condition and the division condition


def verify_star(weights: WeightSequence) -> Verdict:
    """Distinct index multisets give distinct weight combinations.

    Multisets with entries up to the multiplicity cap (2 for the doubly
    exponential weights, 1 for primes and explicit lists) are enumerated
    exhaustively and grouped by combined value; any group of size two is a
    counterexample.
    """
    bound = weights.index_bound
    mult = 2 if weights.kind == "double_exp" else 1
    if (mult + 1) ** bound > 2_000_000:
        raise ValueError("multiset enumeration too large; lower the bound")
    multiplicative = weights.kind == "odd_primes"
    seen: dict = {}
    for countvec in iproduct(range(mult + 1), repeat=bound):
        if multiplicative:
            total = 1
            for i, c in enumerate(countvec, start=1):
                total *= weights.value(i) ** c
        else:
            total = sum(c * weights.value(i)
                        for i, c in enumerate(countvec, start=1))
        other = seen.get(total)
        if other is not None and other != countvec:
            def as_multiset(vec):
                return {i: c for i, c in enumerate(vec, start=1) if c}
            return failed(witness={"value": total,
                                   "first": as_multiset(other),
                                   "second": as_multiset(countvec)},
                          detail="two index multisets share a combined value")
        seen[total] = countvec
    return passed(witness={"multisets": (mult + 1) ** bound},
                  detail=f"no collisions among indices <= {bound}, multiplicity <= {mult}")


def verify_star_star(T: TopologyInstance, t: Any, s_window: int = 10_000) -> Verdict:
    """Division condition data for translating convergence by t.

    For the full-group base the threshold is trivially 1.  For the odd
    naturals the least index whose weight exceeds every prime factor of t
    works, and the implication is verified over a finite window of s.  On
    odd_primes weights, the only kind that base accepts, the scan cannot
    FAIL: each weight from alpha_t on is a prime coprime to t, so t divides
    s w exactly when it divides s.  For the zplus base no such data is
    claimed.  An s_window that is not a positive int, which would check
    nothing, raises ValueError.
    """
    s_window = positive_int(s_window, "s_window")
    if T.base == "zplus":
        return not_applicable("no division data is claimed for the zplus base")
    if not T.in_S(t):
        raise TypeError(f"{t!r} is not in S for base {T.base}")
    if T.base == "z":
        return passed(witness={"alpha_t": 1},
                      detail="S is the whole group; every index works")
    factors = _prime_factors(t) if t > 1 else {}
    p_max = max(factors) if factors else 1
    alpha_t = None
    for i in range(1, T.weights.index_bound + 1):
        if T.weights.value(i) > p_max:
            alpha_t = i
            break
    if alpha_t is None:
        return undetermined("every bounded weight divides into the prime "
                            "factors of t; raise the index bound")
    weights = list(enumerate(T.weights.values, start=1))[alpha_t - 1:]
    for s in range(1, s_window + 1, 2):
        for n, w in weights:
            moved = s * w
            if moved % t == 0 and (moved // t) % 2 == 1:
                if not (s % t == 0 and (s // t) % 2 == 1):
                    return failed(witness={"s": s, "n": n, "t": t},
                                  detail="division condition violated inside the window")
    return passed(witness={"alpha_t": alpha_t, "largest_prime_factor": p_max,
                           "s_window": s_window})


# ---------------------------------------------------------------------------
# distinguishing masked topologies


def _strong_symdiff(horizon: int) -> int:
    """The least symmetric difference of two masks that counts as large
    within `horizon`: a third of it, and at least 2."""
    return max(2, horizon // 3)


def mask_family(count: int, horizon: int) -> Verdict[list]:
    """PASS with the first `count` subsets of 1..horizon, scanned by size
    from `_strong_symdiff(horizon)` to horizon - 1 and then in
    `combinations` order, that each differ from every subset kept before
    in at least `_strong_symdiff(horizon)` indices; UNDETERMINED when the
    scan runs out first.  A horizon above MAX_INDEX_BOUND, the most indices
    of any weight sequence, raises ValueError: at most 2^16 are scanned."""
    count = positive_int(count, "count")
    horizon = positive_int(horizon, "horizon")
    if horizon > MAX_INDEX_BOUND:
        raise ValueError(f"horizon must be at most {MAX_INDEX_BOUND}, "
                         f"got {horizon}")
    min_symdiff = _strong_symdiff(horizon)
    kept: dict = {}  # mask -> its indices as a bitset
    for size in range(min_symdiff, horizon):
        for mask in combinations(range(1, horizon + 1), size):
            bits = sum(1 << i for i in mask)
            if all((bits ^ b).bit_count() >= min_symdiff for b in kept.values()):
                kept[mask] = bits
                if len(kept) == count:
                    return passed(witness=list(kept))
    return undetermined(f"the scan kept {len(kept)} of {count} masks "
                        f"within horizon {horizon} that pairwise differ "
                        f"in at least {min_symdiff} indices")


def distinguish_topologies(weights: WeightSequence, mask1: Iterable, mask2: Iterable,
                           horizon: int) -> Verdict:
    """Witness that two masks induce different topologies.

    Any index in one mask but not the other yields the witness point
    (0, w_index): it belongs to the level-alpha basic sets around the base
    point (1, identity) for the owning mask (alpha up to the index), and to
    none of them (alpha up to the horizon) for the other mask, over the odd
    naturals for prime weights and Z otherwise.  PASS is flagged strong when
    the symmetric difference is large relative to the horizon; masks that
    agree within the horizon are UNDETERMINED.  Mask entries past the
    horizon are ignored, and one past the weights' index bound raises
    ValueError, as in TopologyInstance.
    """
    horizon = min(positive_int(horizon, "horizon"), weights.index_bound)
    base = "odd_nat" if weights.kind == "odd_primes" else "z"
    m1, m2 = ({positive_int(i, "a mask index") for i in mask}
              for mask in (mask1, mask2))
    if max(m1 | m2, default=0) > weights.index_bound:
        raise ValueError("mask indices must lie within the index bound")
    m1, m2 = (m & set(range(1, horizon + 1)) for m in (m1, m2))
    sym = sorted(m1 ^ m2)
    if not sym:
        return undetermined("masks agree within the horizon")
    t_one = TopologyInstance(base, weights, sorted(m1)) if m1 else None
    t_two = TopologyInstance(base, weights, sorted(m2)) if m2 else None
    witnesses = []
    for j in sym:
        owner, other = (t_two, t_one) if j in m2 else (t_one, t_two)
        ident = owner.s_identity
        point = (0, weights.value(j))
        inside = True
        for alpha in range(1, min(j, horizon) + 1):
            if not owner.member(BasicNbhd(1, ident, alpha), point):
                inside = False
        outside = True
        if other is not None:
            for alpha in range(1, horizon + 1):
                if other.member(BasicNbhd(1, ident, alpha), point).status != FAIL:
                    outside = False
        if not (inside and outside):
            return failed(witness={"index": j, "point": point},
                          detail="witness point failed to separate the masks")
        witnesses.append({"index": j, "point": point,
                          "member_of": "mask2" if j in m2 else "mask1"})
    strong = len(sym) >= _strong_symdiff(horizon)
    return passed(witness={"symmetric_difference": sym, "strong": strong,
                           "witnesses": witnesses},
                  detail=f"{len(sym)} separating indices within horizon {horizon}")


# ---------------------------------------------------------------------------
# convergent-subsequence correspondence


@dataclass(frozen=True)
class DiscreteTopology:
    instance: Any


@dataclass(frozen=True)
class OnePointTopology:
    """One-point compactification topology on the nat_infty instance."""

    instance: Any


def _subseq_constant(seq: Sequence):
    counts: dict = {}
    for n, v in enumerate(seq, start=1):
        counts.setdefault(v, []).append(n)
    best = None
    for v, idxs in counts.items():
        if len(idxs) >= 2 and (best is None or len(idxs) > len(best[1])):
            best = (v, idxs)
    return best


def _subseq_onepoint(seq: Sequence):
    const = _subseq_constant(seq)
    if const is not None:
        return const
    idxs = []
    last = 0
    for n, v in enumerate(seq, start=1):
        if v is INF:
            continue
        if v > last:
            idxs.append(n)
            last = v
    if len(idxs) >= 3:
        return (INF, idxs)
    return None


def _subseq_sigma(T: TopologyInstance, seq: Sequence):
    """A limit candidate with at least three terms entering ever deeper
    levels, certified on those terms up to level 6."""
    for cand in _limit_candidates(T, seq):
        idxs = []
        need = 1
        for n, term in enumerate(seq, start=1):
            res = T.member(BasicNbhd(cand[0], cand[1], 1), term)
            if not res:
                continue
            level = min(res.witness) if res.witness else None
            if level is None or level >= need:
                idxs.append(n)
                need += 1
        if len(idxs) >= 3:
            sub = [seq[i - 1] for i in idxs]
            res = check_convergence(T, sub, cand, min(6, len(idxs)))
            if res:
                return (cand, idxs, res.witness)
    return None


def good_corr_check(topology: Any, s: Any, sequence: Sequence) -> Verdict:
    """Convergent-subsequence transfer from a translate back to the sequence.

    Hypothesis: one of the two translates of the sequence by s has a
    convergent subsequence (in the given topology, at prefix scale).  When
    the hypothesis is unmet the check is NOT_APPLICABLE.  Otherwise the
    sequence itself is searched: a find is PASS, and a miss UNDETERMINED,
    never a refutation.
    """
    if isinstance(topology, (DiscreteTopology, OnePointTopology)):
        S = topology.instance
        right = [S.product(t, s) for t in sequence]
        left = [S.product(s, t) for t in sequence]
        finder = (_subseq_constant if isinstance(topology, DiscreteTopology)
                  else _subseq_onepoint)
        hyp = finder(right) or finder(left)
        if hyp is None:
            return not_applicable("hypothesis unmet in the prefix: neither "
                                  "translate has a convergent subsequence")
        got = finder(list(sequence))
        if got is None:
            return Verdict(UNDETERMINED, witness={"hypothesis": hyp},
                           detail="no convergent subsequence found in the prefix")
        value, idxs = got
        return passed(witness={"limit": value, "term_indices": idxs,
                               "hypothesis": hyp})
    T = topology
    sp = T.require_point(s)
    shifted = [(p[0] + sp[0], T.s_op(p[1], sp[1]))
               for p in map(T.require_point, sequence)]
    hyp = _subseq_sigma(T, shifted)
    if hyp is None:
        return not_applicable("hypothesis unmet in the prefix: no convergent "
                              "subsequence of the translate was found")
    got = _subseq_sigma(T, list(sequence))
    if got is None:
        return Verdict(UNDETERMINED, witness={"hypothesis_limit": hyp[0]},
                       detail="no convergent subsequence found in the prefix")
    cand, idxs, cert = got
    return passed(witness={"limit": cand, "term_indices": idxs,
                           "certificate": cert, "hypothesis_limit": hyp[0]})


# ---------------------------------------------------------------------------
# transport between (N, multiplication) and the odd-naturals base


def odd_pair_to_natural(point: tuple) -> int:
    """(k, n) with n odd becomes 2^k * n."""
    k, n = point
    if not (type(k) is int and k >= 0 and type(n) is int and n >= 1
            and n % 2 == 1):
        raise TypeError(f"{point!r} is not a point of Z+ x (odd naturals)")
    return (2 ** k) * n


def natural_to_odd_pair(m: int) -> tuple:
    if type(m) is not int or m < 1:
        raise TypeError(f"{m!r} is not a positive integer")
    k = 0
    while m % 2 == 0:
        m //= 2
        k += 1
    return (k, m)

"""Truncated dyadic-sum model of the basic neighborhoods.

X(a, alpha, max_exp) is the finite set of sums of at most `a` distinct
powers 2^(-m) with alpha <= m <= max_exp, together with 0.  Basic
neighborhoods inside it extend a point's exponent set upward from a level
beta, and the central fact checked here is that such a neighborhood is
exactly an open interval around its base point intersected with the model.

All arithmetic is exact: a point's value is a fraction over a power of
two, and the interval cut compares integer numerators over one common
power of two.  Every equality is a genuine set equality of finite sets at
the chosen truncation.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable

from .semigroups import positive_int
from .verdicts import Verdict, failed, passed


@dataclass(frozen=True)
class DyadicPoint:
    """Sum of 2^(-m) over a strictly increasing exponent tuple; () is 0."""

    exponents: tuple

    def __init__(self, exponents: Iterable = ()):
        exps = tuple(positive_int(m, "an exponent") for m in exponents)
        if any(a >= b for a, b in zip(exps, exps[1:])):
            raise ValueError("exponents must be strictly increasing")
        object.__setattr__(self, "exponents", exps)

    @property
    def value(self) -> Fraction:
        return sum((Fraction(1, 2 ** m) for m in self.exponents), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self.exponents

    def __repr__(self) -> str:
        if self.is_zero:
            return "DyadicPoint(0)"
        return f"DyadicPoint({list(self.exponents)})"


@dataclass(frozen=True)
class XSpace:
    """Truncation parameters: at most `a` exponents drawn from [alpha, max_exp]."""

    a: int
    alpha: int
    max_exp: int

    def __post_init__(self):
        for name in ("a", "alpha", "max_exp"):
            positive_int(getattr(self, name), name)
        if self.max_exp < self.alpha:
            raise ValueError("need alpha <= max_exp")

    def points(self) -> tuple:
        return _points(self.a, self.alpha, self.max_exp)

    def expected_count(self) -> int:
        from math import comb
        n = self.max_exp - self.alpha + 1
        return 1 + sum(comb(n, k) for k in range(1, self.a + 1))

    def contains(self, p: DyadicPoint) -> bool:
        if len(p.exponents) > self.a:
            return False
        return all(self.alpha <= m <= self.max_exp for m in p.exponents)


@lru_cache(maxsize=None)
def _points(a: int, alpha: int, max_exp: int) -> tuple:
    out = [DyadicPoint()]
    pool = range(alpha, max_exp + 1)
    for k in range(1, a + 1):
        for combo in combinations(pool, k):
            out.append(DyadicPoint(combo))
    return tuple(out)


def _numerator(p: DyadicPoint, n: int) -> int:
    """The value of p times 2^n, for n at least its top exponent."""
    return sum(1 << (n - m) for m in p.exponents)


@lru_cache(maxsize=None)
def _sorted_points(a: int, alpha: int, max_exp: int) -> tuple:
    """(N, numerators, points) with the points sorted by value and each
    value held as its numerator over 2^N, N = max_exp + a + 1.

    N exceeds every exponent of the space and the left radius exponent
    m_top + a of the interval cut, so every endpoint is an integer too.
    """
    n = max_exp + a + 1
    keyed = sorted((_numerator(p, n), p) for p in _points(a, alpha, max_exp))
    return n, [v for v, _ in keyed], tuple(p for _, p in keyed)


def basic_neighborhood(x0: DyadicPoint, beta: int, space: XSpace) -> set:
    """Points of the space extending x0 by exponents at or above beta.

    For a nonzero x0 with top exponent m_k the level beta must exceed m_k.
    For x0 = 0 any beta >= alpha is allowed and beta == alpha recovers the
    whole space.
    """
    if not space.contains(x0):
        raise ValueError(f"{x0!r} is outside the space")
    k = len(x0.exponents)
    if k:
        if beta <= x0.exponents[-1]:
            raise ValueError("beta must exceed the top exponent of x0")
    elif beta < space.alpha:
        raise ValueError("beta must be at least alpha for the zero point")
    out = {x0}
    pool = range(max(beta, space.alpha), space.max_exp + 1)
    for extra in range(1, space.a - k + 1):
        for combo in combinations(pool, extra):
            out.add(DyadicPoint(x0.exponents + combo))
    return out


def interval_cut(x0: DyadicPoint, space: XSpace, beta: int) -> set:
    """The points of the space inside the interval that
    `verify_interval_identity` describes, by one bisection of the sorted
    integer numerators."""
    n, values, pts = _sorted_points(space.a, space.alpha, space.max_exp)
    center = _numerator(x0, n)
    # past beta = n + 1 the right radius is below one unit; a one-unit
    # radius keeps the same integer values, those up to the center
    hi = center + (1 << max(n + 1 - beta, 0))
    if x0.is_zero:
        lo = -1
    else:
        lo = center - (1 << (n - x0.exponents[-1] - space.a))
    return set(pts[bisect_right(values, lo):bisect_left(values, hi)])


def verify_interval_identity(x0: DyadicPoint, space: XSpace, beta: int) -> Verdict:
    """Set equality between the beta-neighborhood of x0 and an interval cut.

    Nonzero x0 with top exponent m: the open interval is
    (x0 - 2^(-m-a), x0 + 2^(1-beta)).  The left radius leaves x0 as the only
    space point at or below it, so everything else in the cut sits strictly
    above x0 and within 2^(1-beta), which forces it to extend x0's exponents
    starting at beta or later; conversely every such extension sums to less
    than 2^(1-beta).  For x0 = 0 a point of the space lies below 2^(1-beta)
    exactly when all its exponents are at least beta, so the cut is
    [0, 2^(1-beta)).
    """
    nbhd = basic_neighborhood(x0, beta, space)
    hits = interval_cut(x0, space, beta)
    if hits == nbhd:
        return passed(witness={"size": len(nbhd)},
                      detail=f"interval cut matches the neighborhood at beta={beta}")
    extra = sorted(p.exponents for p in hits - nbhd)
    missing = sorted(p.exponents for p in nbhd - hits)
    return failed(witness={"x0": x0, "beta": beta,
                           "interval_only": extra, "neighborhood_only": missing})


def interval_identity_sweep(a_max: int, alpha_max: int, beta_max: int,
                            max_exp: int) -> Verdict:
    """Exhaustive interval-identity check over a grid of truncations; a
    size that is not a positive int, which would check nothing, raises."""
    for n, what in ((a_max, "a_max"), (alpha_max, "alpha_max"),
                    (beta_max, "beta_max"), (max_exp, "max_exp")):
        positive_int(n, what)
    checked = 0
    for a in range(1, a_max + 1):
        for alpha in range(1, alpha_max + 1):
            space = XSpace(a, alpha, max_exp)
            for x0 in space.points():
                if x0.is_zero:
                    betas = range(alpha, beta_max + 1)
                else:
                    betas = range(x0.exponents[-1] + 1, beta_max + 1)
                for beta in betas:
                    v = verify_interval_identity(x0, space, beta)
                    checked += 1
                    if not v:
                        return v
    return passed(witness={"checked": checked},
                  detail=f"{checked} interval identities verified exactly")


def psi(point: tuple, nbhd, topology) -> DyadicPoint:
    """Coordinates of a neighborhood member inside the dyadic model.

    The member's unique representation (the weight indices carrying it
    from the neighborhood's center) becomes the exponent set.  Raises when
    the point is not a member or membership is undetermined at the
    truncation.
    """
    res = topology.member(nbhd, point)
    if not res:
        raise ValueError(f"{point!r} is not a settled member of {nbhd!r}")
    return DyadicPoint(res.witness)

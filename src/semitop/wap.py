"""Iterated limits along index subsequences over (N, max).

True ultrafilter limits are not computable, so limit functionals here are
surrogates: a strictly increasing finite subsequence of indices together
with a horizon, and a limit is reported only when the evaluated values
stabilize exactly along a final run of the subsequence.  Anything short of
exact stabilization is UNDETERMINED (returned as None) and stays that way.

On (N, max) the two iterated products against such functionals either
agree (weak-almost-periodic behaviour) or produce an exact, checkable
disagreement pair, which is the counterexample format used throughout.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .l1 import (BoundedFunction, L1Vector, convolve, pairing, pairing_vectors,
                 _pairing_ints)
from .semigroups import NatMax, positive_int
from .verdicts import (NOT_APPLICABLE, Verdict, failed, not_applicable, passed,
                       undetermined)


@dataclass(frozen=True)
class LimitFunctional:
    """Evaluation along a strictly increasing index subsequence."""

    along: tuple
    horizon: int

    def __post_init__(self):
        positive_int(self.horizon, "the horizon")
        pts = tuple(positive_int(p, "a subsequence index") for p in self.along)
        if not pts:
            raise ValueError("the subsequence must be nonempty")
        if any(a >= b for a, b in zip(pts, pts[1:])):
            raise ValueError("indices must be strictly increasing")
        if pts[-1] > self.horizon:
            raise ValueError("subsequence exceeds its own horizon")
        object.__setattr__(self, "along", pts)

    @classmethod
    def arithmetic(cls, start: int, step: int, horizon: int) -> "LimitFunctional":
        """start, start + step, ... up to horizon.  Only the three
        parameters are checked: such a range is strictly increasing,
        positive and within the horizon by construction."""
        start = positive_int(start, "the start")
        step = positive_int(step, "the step")
        horizon = positive_int(horizon, "the horizon")
        if start > horizon:
            raise ValueError("the subsequence must be nonempty")
        phi = object.__new__(cls)
        object.__setattr__(phi, "along", tuple(range(start, horizon + 1, step)))
        object.__setattr__(phi, "horizon", horizon)
        return phi

    @classmethod
    def evens(cls, horizon: int) -> "LimitFunctional":
        return cls.arithmetic(2, 2, horizon)

    @classmethod
    def odds(cls, horizon: int) -> "LimitFunctional":
        return cls.arithmetic(1, 2, horizon)


def _stabilized(pairs: Sequence) -> Optional[Fraction]:
    """Value of a final constant run of (numerator, denominator) pairs
    covering at least a quarter of the sequence (and at least two terms);
    None otherwise."""
    if pairs and _final_run(pairs) >= max(2, len(pairs) // 4):
        return Fraction(*pairs[-1])
    return None


def eval_limit(phi: LimitFunctional, f: BoundedFunction) -> Optional[Fraction]:
    """Limit of f along phi: exact value, or None for undetermined.

    A finitely modified constant has the constant as its limit along any
    subsequence surrogate.  A sampled function must stabilize exactly; its
    samples are compared as (numerator, denominator) pairs of ints.
    """
    if f.tag == "c0_plus_const":
        return f.const
    pairs = f._ints
    along = phi.along
    return _stabilized(
        [pairs[p - 1] for p in along[:bisect_right(along, len(pairs))]])


def _final_run(vals: Sequence) -> int:
    """Length of the final constant run of a nonempty sequence."""
    run = 1
    for prev, cur in zip(reversed(vals[:-1]), reversed(vals)):
        if prev != cur:
            break
        run += 1
    return run


def _iterated_max_limit(outer: LimitFunctional, inner: LimitFunctional,
                        f: BoundedFunction) -> Optional[Fraction]:
    """Outer limit over s of the inner limit over t of f(max(s, t)).

    The row of an outer point s is f(s) repeated m times (m = the number
    of inner points <= s) followed by the fixed tail f(t) over the inner
    points above s.  So the tail is evaluated once, with the length of
    its final constant run, and each row's final run is read off from m
    alone: exactly what `_stabilized` would find on the full row.
    """
    if f.tag == "c0_plus_const":
        # f(max(s, .)) is f modified on the finite prefix [1, s], so the
        # inner limit is f's constant for every s, and so is the outer.
        return f.const
    pairs = f._ints
    horizon = min(outer.horizon, inner.horizon, len(pairs))
    outer_pts = outer.along[:bisect_right(outer.along, horizon // 2)]
    inner_pts = inner.along[:bisect_right(inner.along, horizon)]
    if not outer_pts or not inner_pts:
        return None
    tail = [pairs[t - 1] for t in inner_pts]
    n = len(tail)
    last = tail[-1]
    tail_run = _final_run(tail)
    need = max(2, n // 4)
    rows = []
    for s in outer_pts:
        m = bisect_right(inner_pts, s)
        head = pairs[s - 1]
        if m == n:
            run, value = n, head
        elif n - m <= tail_run and head == last:
            run, value = n, last
        else:
            run, value = min(tail_run, n - m), last
        if run < need:
            return None
        rows.append(value)
    return _stabilized(rows)


def arens_box(omega: LimitFunctional, upsilon: LimitFunctional,
              f: BoundedFunction) -> Optional[Fraction]:
    """First the inner limit along upsilon, then the outer along omega,
    of f(max(s, t)); None when undetermined.

    The max of a fixed s against an escaping t is eventually t, so the
    true iterated limit equals the plain limit along upsilon.  When both
    are determined and still disagree, the prefix has not settled the
    limit (the iteration reads f only up to the shorter horizon, the
    collapse up to upsilon's), so the value is undetermined, not an error.
    """
    value = _iterated_max_limit(omega, upsilon, f)
    collapse = eval_limit(upsilon, f)
    if value is not None and collapse is not None and value != collapse:
        return None
    return value


def arens_diamond(omega: LimitFunctional, upsilon: LimitFunctional,
                  f: BoundedFunction) -> Optional[Fraction]:
    """The reversed iteration: inner along omega, outer along upsilon."""
    return arens_box(upsilon, omega, f)


def wap_test(f: BoundedFunction, pairs: Iterable) -> Verdict[dict]:
    """Double-limit test over a family of subsequence pairs.

    The pairs are read lazily, in order, and the test stops at the first
    determined disagreement, so a generator such as
    `subsequence_pair_family` never builds the pairs after it.  A
    determined, unequal (box, diamond) pair is a genuine counterexample
    and a FAIL: f is not weakly almost periodic.  PASS, agreement on every
    determined pair, is only consistency for sampled functions; finitely
    modified constants pass outright (they sit inside the vanishing-plus-
    constant class, exactly the weakly-almost-periodic part over (N, max)).
    UNDETERMINED means no pair stabilized.  The PASS witness counts the
    pairs read and the determined ones among them.
    """
    count = determined = 0
    for omega, upsilon in pairs:
        count += 1
        box = arens_box(omega, upsilon, f)
        diamond = arens_diamond(omega, upsilon, f)
        if box is None or diamond is None:
            continue
        determined += 1
        if box != diamond:
            return failed(witness={"omega": omega, "upsilon": upsilon,
                                   "box": box, "diamond": diamond},
                          detail="iterated limits disagree exactly")
    if f.tag == "c0_plus_const":
        return passed(witness={"pairs": count, "determined": determined},
                      detail="membership certified: vanishing part plus a constant")
    if determined == 0:
        return undetermined("no pair stabilized")
    return passed(witness={"pairs": count, "determined": determined},
                  detail="all determined pairs agree (consistency only)")


def indicator_of_evens(horizon: int) -> BoundedFunction:
    return BoundedFunction.sampled(
        [Fraction(1) if n % 2 == 0 else Fraction(0) for n in range(1, horizon + 1)])


def subsequence_pair_family(count: int, horizon: int,
                            seed: int) -> Iterator[tuple]:
    """Deterministic family of `count` subsequence pairs, led by
    evens/odds, each pair drawn only when it is read."""
    rng = random.Random(seed)
    if count > 0:
        yield LimitFunctional.evens(horizon), LimitFunctional.odds(horizon)
    for _ in range(count - 1):
        yield (LimitFunctional.arithmetic(rng.randint(1, 6), rng.randint(1, 6),
                                          horizon),
               LimitFunctional.arithmetic(rng.randint(1, 6), rng.randint(1, 6),
                                          horizon))


def random_c0_plus_const(rng: random.Random,
                         support_max: int = 30) -> BoundedFunction:
    mod = {}
    for _ in range(rng.randint(0, 6)):
        mod[rng.randint(1, support_max)] = Fraction(
            rng.randint(-9, 9), rng.randint(1, 9))
    const = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return BoundedFunction.c0_plus_const(mod, const)


# ---------------------------------------------------------------------------
# exact computations over l1(N, max): the telescoping identity and its
# sharpness witness


def telescoping_check(a: L1Vector, x: BoundedFunction, s_max: int) -> Verdict:
    """Invariance hypothesis, telescoped identity, and vanishing conclusion.

    Hypothesis (checked first): <a, x> = <delta_s * a, x> for every
    s <= s_max; where it fails the verdict is NOT_APPLICABLE, with the
    first such s and both pairings as witness.  The hypothesis at s is
    the telescoped identity sum_{n<=s} a_n x(n) = x(s) * sum_{n<=s} a_n,
    which is then checked for each s <= s_max on running integer sums: a
    cross-check of `convolve` and `pairing` against those sums, which
    FAILs only where they disagree.  Once s_max clears the support of a
    and of x's vanishing part, the identity at s_max is the vanishing
    conclusion: a pairs to zero against the vanishing part of x
    (equivalently, <a, x> equals the constant of x times the total mass
    of a).  s_max must be a positive int; anything else, which would
    check nothing or crash, raises ValueError.
    """
    S = a.instance
    if not isinstance(S, NatMax):
        raise TypeError("the telescoping argument is specific to (N, max)")
    if x.tag != "c0_plus_const":
        raise TypeError("x must be a finitely modified constant")
    s_max = positive_int(s_max, "s_max")
    if a.is_zero:
        return passed(detail="vacuous: a = 0")
    # pairings compare as integers: p / q == r / t iff p t == r q (q, t > 0)
    base, base_den = _pairing_ints(a, x)
    for s in range(1, s_max + 1):
        translate = convolve(L1Vector.delta(S, s), a)
        moved, moved_den = _pairing_ints(translate, x)
        if moved * base_den != base * moved_den:
            return Verdict(NOT_APPLICABLE, {"s": s, "lhs": pairing(a, x),
                                            "rhs": pairing(translate, x)},
                           f"hypothesis fails at s = {s}")
    # both sides of the identity over the denominator a._den * den
    mod, const, den = x._ints
    items = sorted(a._num.items())
    head = mass = 0
    i = 0
    for s in range(1, s_max + 1):
        while i < len(items) and items[i][0] <= s:
            t, n = items[i]
            head += n * (const + mod.get(t, 0))
            mass += n
            i += 1
        rhs = (const + mod.get(s, 0)) * mass
        if head != rhs:
            return failed(witness={"s": s, "lhs": Fraction(head, base_den),
                                   "rhs": Fraction(rhs, base_den)},
                          detail="convolve and pairing disagree with the "
                                 f"running integer sums at s = {s}")
    if s_max <= max([*a._num, *mod, 0]):
        return passed(witness={"s_max": s_max},
                      detail="hypothesis and identity verified; s_max does not "
                             "clear the supports, conclusion not evaluated")
    return passed(witness={"s_max": s_max, "pairing": pairing(a, x),
                           "vanishing_part_pairing": Fraction(0)},
                  detail="hypothesis, identity and vanishing conclusion all hold")


@dataclass(frozen=True)
class SharpnessWitness:
    """An x with <x, a> = 0 whose translate pairing is nonzero."""

    x: L1Vector
    s: int
    pairing_a: Fraction
    pairing_translated: Fraction


def counterexample_x(a: L1Vector) -> Verdict[SharpnessWitness]:
    """Functional x and index s with <x, a> = 0 but <x, delta_s * a> != 0.

    This witnesses that "pairs to zero" does not survive the module
    action, which is the sharp end of the uniqueness argument.  PASS
    carries the `SharpnessWitness`.  Needs total mass != 0; the zero-mass
    case is a different branch and returns NOT-APPLICABLE.  Single-term
    vectors use the one-point variant.  A construction that does not
    verify is a FAIL with the quantities that disagree.
    """
    S = a.instance
    if not isinstance(S, NatMax):
        raise TypeError("the construction is specific to (N, max)")
    num, den = a._num, a._den
    if sum(num.values()) == 0:
        return not_applicable("total mass is zero; no such x exists this way")
    supp = sorted(num)
    if len(supp) == 1:
        s0 = supp[0]
        s, mass = s0 + 1, num[s0]
        x = L1Vector.delta(S, s)
    else:
        # s is the first point above s1, outside the support, with nonzero
        # mass at or below it: just above some support point t >= s1.  The
        # walk stops at the top point at the latest, where mass is the total.
        s0, s1 = supp[0], supp[1]
        mass = num[s0]
        for t, nxt in zip(supp[1:], supp[2:] + [None]):
            mass += num[t]
            if mass and nxt != t + 1:
                break
        s = t + 1
        x = (L1Vector.delta(S, s1, a.coeff(s0))
             - L1Vector.delta(S, s0, a.coeff(s1))
             + L1Vector.delta(S, s))
    p0 = pairing_vectors(x, a)
    translated = convolve(L1Vector.delta(S, s), a)
    p1 = pairing_vectors(x, translated)
    expected = Fraction(mass, den)
    if p0 != 0 or p1 != expected or p1 == 0:
        return failed(witness={"pairing_a": p0, "pairing_translated": p1,
                               "expected": expected},
                      detail="witness verification failed")
    return passed(SharpnessWitness(x=x, s=s, pairing_a=p0, pairing_translated=p1))

"""Finitely supported l1 vectors over a semigroup instance, exactly.

Coefficients are integer numerators over one common denominator; only
`coeff`, `terms` and the pairings hand out fractions.Fraction values, and
there is no floating point anywhere.  A vector carries the instance it
lives over, and operations between vectors over different instances raise.

Bounded functions (the dual side) come in two deliberately limited forms:
a finitely modified constant ("c0_plus_const", exact everywhere, which
`pairing` reads) and a finite table of samples ("sampled", which only the
limits along subsequences in `wap` read).  Neither can represent a general
bounded sequence; that restriction is the point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Any, Optional

from .semigroups import NatMax, SemigroupInstance


def _frac(x: Any) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
        return Fraction(x)
    raise TypeError(f"{x!r} is not an exact rational")


def _over_common_den(fracs: list) -> tuple:
    """(integer numerators, common denominator) of a list of Fractions."""
    den = lcm(*(c.denominator for c in fracs))
    return [c.numerator * (den // c.denominator) for c in fracs], den


class L1Vector:
    """A finitely supported element of l1(S): `_num` maps the support to
    nonzero ints over `_den` > 0, and gcd(_den, *_num.values()) == 1."""

    __slots__ = ("instance", "_num", "_den")

    def __init__(self, instance: SemigroupInstance, coeffs: Any = ()):
        items = list(coeffs.items() if isinstance(coeffs, dict) else coeffs)
        nums, den = _over_common_den([_frac(c) for _, c in items])
        acc: dict = {}
        for (elem, _), n in zip(items, nums):
            instance.validate(elem)
            acc[elem] = acc.get(elem, 0) + n
        self._set(instance, acc, den)

    @classmethod
    def _make(cls, instance: SemigroupInstance, num: dict, den: int) -> "L1Vector":
        """Skip validation: keys are elements, values ints, den > 0."""
        return object.__new__(cls)._set(instance, num, den)

    def _set(self, instance: SemigroupInstance, num: dict, den: int) -> "L1Vector":
        """Store num / den in lowest terms, dropping zero numerators."""
        if 0 in num.values():
            num = {e: n for e, n in num.items() if n}
        g = gcd(den, *num.values())
        self.instance, self._den = instance, den // g
        self._num = num if g == 1 else {e: n // g for e, n in num.items()}
        return self

    @classmethod
    def delta(cls, instance: SemigroupInstance, elem: Any, coeff: Any = 1) -> "L1Vector":
        instance.validate(elem)
        if type(coeff) is int:
            return cls._make(instance, {elem: coeff}, 1)
        c = _frac(coeff)
        return cls._make(instance, {elem: c.numerator}, c.denominator)

    def coeff(self, elem: Any) -> Fraction:
        return Fraction(self._num.get(elem, 0), self._den)

    def terms(self) -> list:
        return sorted(((e, Fraction(n, self._den)) for e, n in self._num.items()),
                      key=lambda kv: repr(kv[0]))

    def support(self) -> list:
        return [e for e, _ in self.terms()]

    @property
    def is_zero(self) -> bool:
        return not self._num

    def _check_mate(self, other: "L1Vector") -> None:
        if not isinstance(other, L1Vector):
            raise TypeError(f"{other!r} is not an L1Vector")
        if self.instance.key != other.instance.key:
            raise TypeError(
                f"vectors live over different instances: "
                f"{self.instance.key} vs {other.instance.key}")

    def __add__(self, other: "L1Vector") -> "L1Vector":
        self._check_mate(other)
        den = lcm(self._den, other._den)
        ms, mo = den // self._den, den // other._den
        out = {e: n * ms for e, n in self._num.items()}
        for e, n in other._num.items():
            out[e] = out.get(e, 0) + n * mo
        return L1Vector._make(self.instance, out, den)

    def __neg__(self) -> "L1Vector":
        return L1Vector._make(self.instance,
                              {e: -n for e, n in self._num.items()}, self._den)

    def __sub__(self, other: "L1Vector") -> "L1Vector":
        return self + (-other)

    def __eq__(self, other: Any) -> bool:
        return (isinstance(other, L1Vector)
                and self.instance.key == other.instance.key
                and self._den == other._den and self._num == other._num)

    def __hash__(self):
        return hash((self.instance.key, self._den, tuple(sorted(
            ((repr(e), n) for e, n in self._num.items())))))

    def __repr__(self) -> str:
        if self.is_zero:
            return "L1Vector(0)"
        body = " + ".join(f"({c})d[{e!r}]" for e, c in self.terms())
        return f"L1Vector({body})"


def convolve(a: L1Vector, b: L1Vector) -> L1Vector:
    """Convolution product: the bilinear extension of delta_s * delta_t = delta_st."""
    a._check_mate(b)
    S = a.instance
    op = S.op
    out: dict = {}
    get = out.get
    for s, cs in a._num.items():
        for t, ct in b._num.items():
            st = op(s, t)
            out[st] = get(st, 0) + cs * ct
    return L1Vector._make(S, out, a._den * b._den)


class BoundedFunction:
    """An exactly representable bounded function on an instance, built
    only by the constructor of its kind, which is also its `tag`.

    c0_plus_const: const + finitely many modifications, defined on every
    element; `_ints` holds (mod numerators, const numerator, den) over one
    denominator.  sampled: values at the integers 1..n only; `_ints` holds
    each sample once, as its (numerator, denominator) pair in lowest terms.
    So `_ints` determines the function, and `==` compares it.
    """

    __slots__ = ("tag", "mod", "const", "_ints")

    def __init__(self, *args, **kwargs):
        raise TypeError("use BoundedFunction.c0_plus_const or .sampled")

    @classmethod
    def c0_plus_const(cls, mod: Optional[dict] = None, const: Any = 0) -> "BoundedFunction":
        self = object.__new__(cls)
        self.tag, self.const = "c0_plus_const", _frac(const)
        self.mod = {e: q for e, v in dict(mod or ()).items() if (q := _frac(v))}
        nums, den = _over_common_den([self.const, *self.mod.values()])
        self._ints = (dict(zip(self.mod, nums[1:])), nums[0], den)
        return self

    @classmethod
    def sampled(cls, values: Any) -> "BoundedFunction":
        self = object.__new__(cls)
        self.tag, self._ints = "sampled", tuple(
            _frac(v).as_integer_ratio() for v in values)
        if not self._ints:
            raise ValueError("sampled function needs at least one value")
        return self

    def __eq__(self, other: Any) -> bool:
        return (isinstance(other, BoundedFunction) and self.tag == other.tag
                and self._ints == other._ints)

    def __hash__(self):
        return hash(self._ints if self.tag == "sampled"
                    else (self.const, frozenset(self.mod.items())))

    def __repr__(self) -> str:
        if self.tag == "sampled":
            return f"BoundedFunction(sampled, horizon={len(self._ints)})"
        return f"BoundedFunction(c0+const, const={self.const}, mod={self.mod!r})"


def pairing(a: L1Vector, f: BoundedFunction) -> Fraction:
    """<f, a> = sum of a_s f(s), exact, for a finitely modified constant
    f; a sampled f raises TypeError."""
    if f.tag != "c0_plus_const":
        raise TypeError("f must be a finitely modified constant")
    return Fraction(*_pairing_ints(a, f))


def _pairing_ints(a: L1Vector, f: BoundedFunction) -> tuple:
    """<f, a> for a finitely modified constant f, as (numerator,
    denominator) with the denominator positive and not reduced."""
    mod, const, den = f._ints
    return (sum(n * (const + mod.get(e, 0)) for e, n in a._num.items()),
            a._den * den)


def pairing_vectors(x: L1Vector, b: L1Vector) -> Fraction:
    """Pairing of a finitely supported functional x against a vector b."""
    x._check_mate(b)
    xs = x._num
    return Fraction(sum(n * xs.get(e, 0) for e, n in b._num.items()),
                    x._den * b._den)


def max_action_formula(s: int, a: L1Vector) -> L1Vector:
    """Closed form of delta_s * a over (N, max): the mass at or below s
    collapses onto delta_s and the rest stays put.  The
    `max-action-closed-form` check compares it with the convolution."""
    S = a.instance
    if not isinstance(S, NatMax):
        raise TypeError("the closed form is specific to (N, max)")
    S.validate(s)
    out = {t: n for t, n in a._num.items() if t > s}
    out[s] = out.get(s, 0) + sum(n for t, n in a._num.items() if t <= s)
    return L1Vector._make(S, out, a._den)

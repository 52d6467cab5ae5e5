"""Finitely supported l1 vectors over a semigroup instance, exactly.

Coefficients are rationals (fractions.Fraction); there is no floating
point anywhere in this module.  A vector carries the instance it lives
over, and operations between vectors over different instances raise.

Bounded functions (the dual side) come in two deliberately limited forms:
a finitely modified constant ("c0_plus_const", exact everywhere) and a
finite table of samples ("sampled", exact up to its horizon).  Neither can
represent a general bounded sequence; that restriction is the point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Optional

from .semigroups import NatMax, SemigroupInstance
from .verdicts import HorizonExceeded


def _frac(x: Any) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"{x!r} is not an exact rational")


class L1Vector:
    """A finitely supported element of l1(S) with exact coefficients."""

    __slots__ = ("instance", "_coeffs")

    def __init__(self, instance: SemigroupInstance, coeffs: Any = ()):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        acc: dict = {}
        for elem, c in items:
            instance.validate(elem)
            c = _frac(c)
            if c:
                prev = acc.get(elem)
                acc[elem] = c if prev is None else prev + c
        self.instance = instance
        self._coeffs = {e: c for e, c in acc.items() if c}

    @classmethod
    def _trusted(cls, instance: SemigroupInstance, coeffs: dict) -> "L1Vector":
        """Skip validation; keys must be elements of the instance and
        values Fractions.  Zero coefficients are still dropped."""
        obj = object.__new__(cls)
        obj.instance = instance
        obj._coeffs = {e: c for e, c in coeffs.items() if c}
        return obj

    @classmethod
    def delta(cls, instance: SemigroupInstance, elem: Any, coeff: Any = 1) -> "L1Vector":
        return cls(instance, [(elem, coeff)])

    @classmethod
    def zero(cls, instance: SemigroupInstance) -> "L1Vector":
        return cls(instance)

    def coeff(self, elem: Any) -> Fraction:
        return self._coeffs.get(elem, Fraction(0))

    def terms(self) -> list:
        return sorted(self._coeffs.items(), key=lambda kv: repr(kv[0]))

    def support(self) -> list:
        return [e for e, _ in self.terms()]

    def norm(self) -> Fraction:
        return sum((abs(c) for c in self._coeffs.values()), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def _check_mate(self, other: "L1Vector") -> None:
        if not isinstance(other, L1Vector):
            raise TypeError(f"{other!r} is not an L1Vector")
        if self.instance.key != other.instance.key:
            raise TypeError(
                f"vectors live over different instances: "
                f"{self.instance.key} vs {other.instance.key}")

    def __add__(self, other: "L1Vector") -> "L1Vector":
        self._check_mate(other)
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return L1Vector(self.instance, out)

    def __neg__(self) -> "L1Vector":
        return L1Vector(self.instance, {e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "L1Vector") -> "L1Vector":
        return self + (-other)

    def scale(self, c: Any) -> "L1Vector":
        c = _frac(c)
        return L1Vector(self.instance, {e: c * v for e, v in self._coeffs.items()})

    def __rmul__(self, c: Any) -> "L1Vector":
        return self.scale(c)

    def __mul__(self, other: Any) -> "L1Vector":
        if isinstance(other, L1Vector):
            return convolve(self, other)
        return self.scale(other)

    def __eq__(self, other: Any) -> bool:
        return (isinstance(other, L1Vector)
                and self.instance.key == other.instance.key
                and self._coeffs == other._coeffs)

    def __hash__(self):
        return hash((self.instance.key, tuple(sorted(
            ((repr(e), c) for e, c in self._coeffs.items())))))

    def __repr__(self) -> str:
        if self.is_zero:
            return "L1Vector(0)"
        body = " + ".join(f"({c})d[{e!r}]" for e, c in self.terms())
        return f"L1Vector({body})"


def convolve(a: L1Vector, b: L1Vector) -> L1Vector:
    """Convolution product: the bilinear extension of delta_s * delta_t = delta_st."""
    a._check_mate(b)
    S = a.instance
    out: dict = {}
    for s, cs in a._coeffs.items():
        for t, ct in b._coeffs.items():
            st = S.op(s, t)
            prev = out.get(st)
            out[st] = cs * ct if prev is None else prev + cs * ct
    return L1Vector._trusted(S, out)


class ProductInstance(SemigroupInstance):
    """Cartesian square (or product) of instances with the coordinate law."""

    def __init__(self, left: SemigroupInstance, right: SemigroupInstance):
        self.left = left
        self.right = right
        self.name = f"({left.name})x({right.name})"

    @property
    def key(self) -> str:
        return f"({self.left.key})x({self.right.key})"

    def op(self, x, y):
        return (self.left.op(x[0], y[0]), self.right.op(x[1], y[1]))

    def validate(self, x):
        if not (isinstance(x, tuple) and len(x) == 2):
            raise TypeError(f"{x!r} is not a pair")
        self.left.validate(x[0])
        self.right.validate(x[1])


def coproduct(a: L1Vector) -> L1Vector:
    """Diagonal coproduct: delta_s maps to delta_(s,s), extended linearly."""
    square = ProductInstance(a.instance, a.instance)
    return L1Vector(square, [((e, e), c) for e, c in a._coeffs.items()])


class BoundedFunction:
    """An exactly representable bounded function on an instance.

    tag "c0_plus_const": const + finitely many modifications, defined on
    every element.  tag "sampled": values at the integers 1..horizon only;
    evaluation beyond the horizon raises HorizonExceeded.
    """

    __slots__ = ("tag", "mod", "const", "values")

    def __init__(self, tag: str, mod: Optional[dict] = None,
                 const: Any = 0, values: Any = ()):
        if tag not in ("c0_plus_const", "sampled"):
            raise ValueError(f"unknown tag {tag!r}")
        self.tag = tag
        if tag == "c0_plus_const":
            self.const = _frac(const)
            cleaned = {}
            for e, v in (mod or {}).items():
                v = _frac(v)
                if v:
                    cleaned[e] = v
            self.mod = cleaned
            self.values = ()
        else:
            self.values = tuple(_frac(v) for v in values)
            if not self.values:
                raise ValueError("sampled function needs at least one value")
            self.mod = {}
            self.const = Fraction(0)

    @classmethod
    def c0_plus_const(cls, mod: Optional[dict] = None, const: Any = 0) -> "BoundedFunction":
        return cls("c0_plus_const", mod=mod, const=const)

    @classmethod
    def sampled(cls, values: Any) -> "BoundedFunction":
        return cls("sampled", values=values)

    @property
    def horizon(self) -> int:
        if self.tag != "sampled":
            raise ValueError("only sampled functions have a horizon")
        return len(self.values)

    def evaluate(self, elem: Any) -> Fraction:
        if self.tag == "c0_plus_const":
            m = self.mod.get(elem)
            return self.const if m is None else self.const + m
        if not isinstance(elem, int) or isinstance(elem, bool) or elem < 1:
            raise TypeError("sampled functions are defined on positive integers")
        if elem > len(self.values):
            raise HorizonExceeded(
                f"undetermined at horizon: {elem} > {len(self.values)}")
        return self.values[elem - 1]

    def __eq__(self, other: Any) -> bool:
        return (isinstance(other, BoundedFunction) and self.tag == other.tag
                and self.mod == other.mod and self.const == other.const
                and self.values == other.values)

    def __hash__(self):
        return hash((self.tag, tuple(sorted((repr(k), v) for k, v in self.mod.items())),
                     self.const, self.values))

    def __repr__(self) -> str:
        if self.tag == "sampled":
            return f"BoundedFunction(sampled, horizon={len(self.values)})"
        return f"BoundedFunction(c0+const, const={self.const}, mod={self.mod!r})"


def pairing(a: L1Vector, f: BoundedFunction) -> Fraction:
    """<f, a> = sum of a_s f(s), exact."""
    total = Fraction(0)
    for e, c in a._coeffs.items():
        total += c * f.evaluate(e)
    return total


def pairing_vectors(x: L1Vector, b: L1Vector) -> Fraction:
    """Pairing of a finitely supported functional x against a vector b."""
    x._check_mate(b)
    total = Fraction(0)
    for e, c in b._coeffs.items():
        total += c * x.coeff(e)
    return total


def _coeff_sum(a: L1Vector) -> Fraction:
    return sum(a._coeffs.values(), Fraction(0))


def max_action_formula(s: int, a: L1Vector) -> L1Vector:
    """Closed form of delta_s * a over (N, max): the mass at or below s
    collapses onto delta_s and the rest stays put.  The
    `max-action-closed-form` check compares it with the convolution."""
    S = a.instance
    if not isinstance(S, NatMax):
        raise TypeError("the closed form is specific to (N, max)")
    S.validate(s)
    low = sum((c for t, c in a._coeffs.items() if t <= s), Fraction(0))
    out = {t: c for t, c in a._coeffs.items() if t > s}
    out[s] = out.get(s, Fraction(0)) + low
    return L1Vector(S, out)

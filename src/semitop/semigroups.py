"""Countable discrete semigroups and window-relative structural checks.

Every instance exposes a fixed injective enumeration of its elements in a
canonical graded order; ``window(rank)`` is the first ``rank`` elements of
that enumeration.  The structural predicates below (cancellativity, weak
cancellativity, finite left divisibility) inspect such windows only, and
their verdicts are explicitly window-relative: a PASS says the finite
window showed no obstruction, never that the infinite statement holds.

Elements are plain hashable Python values (tuples, strings, integers, or
the small classes below).  Cross-instance arithmetic is rejected at the
level of the structures that carry an instance tag (vectors, checkers);
``validate`` additionally rejects structurally malformed elements.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, count, islice, permutations, product as iproduct
from typing import Any, Iterable, Iterator, Optional

from .verdicts import Verdict, failed, passed, undetermined


class _Infinity:
    """The adjoined absorbing point of the one-point compactification."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INF"


INF = _Infinity()


def _quoted(x: Any) -> str:
    """repr(x) for a rejection message, or a stand-in when x holds an int
    past Python's limit on int-to-str conversion."""
    try:
        return repr(x)
    except ValueError:
        return "a value too long to print"


def positive_int(x: Any, what: str = "a domain point or value") -> int:
    """x itself when it is an exact positive int; bools, floats and every
    other type raise instead of being coerced."""
    if type(x) is not int or x < 1:
        raise ValueError(f"{what} must be a positive integer, got {_quoted(x)}")
    return x


# ---------------------------------------------------------------------------
# groups used as Rees matrix entries


class CyclicGroup:
    def __init__(self, modulus: int):
        self.modulus = modulus = positive_int(modulus, "the modulus")
        self.name = f"Z{modulus}"
        self.identity = 0

    def op(self, x: int, y: int) -> int:
        return (x + y) % self.modulus

    def validate(self, x: Any) -> None:
        if type(x) is not int or not 0 <= x < self.modulus:
            raise TypeError(f"{x!r} is not an element of {self.name}")

    def elements(self) -> Iterator[int]:
        return iter(range(self.modulus))


class IntegerGroup:
    name = "Z"
    identity = 0

    def op(self, x: int, y: int) -> int:
        return x + y

    def validate(self, x: Any) -> None:
        if type(x) is not int:
            raise TypeError(f"{x!r} is not an integer")

    def elements(self) -> Iterator[int]:
        yield 0
        for n in count(1):
            yield n
            yield -n


# ---------------------------------------------------------------------------
# structured elements


@dataclass(frozen=True)
class ReesElement:
    """A one-nonzero-entry matrix, or the distinguished absorbing zero."""

    entry: Any = None
    row: Optional[int] = None
    col: Optional[int] = None

    @classmethod
    def zero(cls) -> "ReesElement":
        return cls(None, None, None)

    @property
    def is_zero(self) -> bool:
        return self.entry is None

    def __repr__(self) -> str:
        if self.is_zero:
            return "ReesZero"
        return f"{self.entry!r}e[{self.row},{self.col}]"


REES_ZERO = ReesElement.zero()


class PartialMap:
    """Injective partial self-map of the positive integers.

    The value 0 encodes "undefined": as a total map on {0, 1, 2, ...} the
    element sends 0 and everything outside its injective domain to 0.  The
    empty map is the zero of the composition semigroup.
    """

    __slots__ = ("_pairs", "_map")

    def __init__(self, mapping: Any = ()):
        items = mapping.items() if isinstance(mapping, dict) else mapping
        pairs = sorted((positive_int(n), positive_int(v)) for n, v in items)
        m = dict(pairs)
        if len(m) != len(pairs):
            raise ValueError("duplicate domain point")
        if len(set(m.values())) != len(m):
            raise ValueError("values must be injective")
        self._pairs = tuple(pairs)
        self._map = m

    @classmethod
    def _trusted(cls, pairs: tuple) -> "PartialMap":
        """Skip validation; pairs must be sorted, positive and injective."""
        obj = object.__new__(cls)
        obj._pairs = pairs
        obj._map = dict(pairs)
        return obj

    def __call__(self, n: int) -> int:
        return self._map.get(n, 0)

    @property
    def pairs(self) -> tuple:
        return self._pairs

    @property
    def domain(self) -> tuple:
        return tuple(self._map)     # _map holds the sorted pairs in order

    @property
    def image(self) -> tuple:
        return tuple(sorted(self._map.values()))

    @property
    def is_zero(self) -> bool:
        return not self._pairs

    def extend(self, n: int, v: int) -> "PartialMap":
        """This map plus the pair n -> v, checked against ``_map`` only."""
        if positive_int(n) in self._map:
            raise ValueError(f"{n} is already in the domain")
        if positive_int(v) in self._map.values():
            raise ValueError(f"value {v} breaks injectivity")
        i = bisect_left(self._pairs, (n,))
        return PartialMap._trusted(
            self._pairs[:i] + ((n, v),) + self._pairs[i:])

    def compose(self, other: "PartialMap") -> "PartialMap":
        """self after other: n maps to self(other(n)).  Both are injective
        and other's pairs are sorted, so the composite needs no checks."""
        get = self._map.get
        return PartialMap._trusted(
            tuple([(n, w) for n, v in other._pairs if (w := get(v))]))

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, PartialMap) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "PartialMap(0)"
        body = ", ".join(f"{n}->{v}" for n, v in self._pairs)
        return f"PartialMap({body})"


# ---------------------------------------------------------------------------
# instances


class SemigroupInstance:
    """Base for concrete instances; subclasses fix law and enumeration.

    ``product`` is the one place where operands are checked: it validates
    both, then applies ``op``, the bare law.  Code whose operands are
    elements by construction (window members, generators, the support of
    a validated vector) calls ``op`` directly.
    """

    name = "abstract"
    has_zero: Any = None          # absorbing element, when one exists
    generators: Optional[tuple] = None  # declared only when finitely generated

    @property
    def key(self) -> str:
        """Interop tag: vectors over instances with equal keys may combine."""
        return self.name

    def product(self, x: Any, y: Any) -> Any:
        self.validate(x)
        self.validate(y)
        return self.op(x, y)

    def op(self, x: Any, y: Any) -> Any:
        raise NotImplementedError

    def validate(self, x: Any) -> None:
        raise NotImplementedError

    def elements(self) -> Iterator[Any]:
        raise NotImplementedError

    def window(self, rank: int) -> list:
        return list(islice(self.elements(), positive_int(rank, "window rank")))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


def _sum_compositions(total: int, k: int) -> Iterator[tuple]:
    if k == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _sum_compositions(total - first, k - 1):
            yield (first,) + rest


class ZPlusK(SemigroupInstance):
    """(Z_+)^k under coordinatewise addition, graded by coordinate sum."""

    def __init__(self, k: int):
        self.k = k = positive_int(k, "k")
        self.name = f"zplus_{k}"
        self.generators = tuple(
            tuple(1 if i == j else 0 for i in range(k)) for j in range(k)
        )

    def op(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def validate(self, x):
        if not (isinstance(x, tuple) and len(x) == self.k
                and all(type(c) is int and c >= 0 for c in x)):
            raise TypeError(f"{x!r} is not an element of {self.name}")

    def elements(self):
        for grade in count(0):
            yield from _sum_compositions(grade, self.k)


class FreeWords(SemigroupInstance):
    """Free semigroup on a finite alphabet: nonempty words, concatenation."""

    def __init__(self, alphabet: str):
        if not alphabet or len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet must be nonempty without repeats")
        self.alphabet = str(alphabet)
        self.name = f"free_{alphabet}"
        self.generators = tuple(alphabet)

    def op(self, x, y):
        return x + y

    def validate(self, x):
        if not (isinstance(x, str) and x and all(c in self.alphabet for c in x)):
            raise TypeError(f"{x!r} is not a word over {self.alphabet!r}")

    def elements(self):
        for length in count(1):
            for letters in iproduct(self.alphabet, repeat=length):
                yield "".join(letters)


class _PositiveIntegers(SemigroupInstance):
    """The positive integers in their natural order; subclasses fix the law."""

    def validate(self, x):
        if type(x) is not int or x < 1:
            raise TypeError(f"{x!r} is not a positive integer")

    def elements(self):
        return count(1)


class NatMul(_PositiveIntegers):
    """Positive integers under multiplication."""

    name = "nat_mul"

    def op(self, x, y):
        return x * y


class NatMax(_PositiveIntegers):
    """Positive integers under the maximum operation."""

    name = "nat_max"

    def op(self, x, y):
        return max(x, y)


class NatInfinity(SemigroupInstance):
    """Positive integers with an adjoined point INF; addition, INF absorbs."""

    name = "nat_infty"
    has_zero = INF

    def op(self, x, y):
        if x is INF or y is INF:
            return INF
        return x + y

    def validate(self, x):
        if x is INF:
            return
        if type(x) is not int or x < 1:
            raise TypeError(f"{x!r} is not a positive integer or INF")

    def elements(self):
        yield INF
        yield from count(1)


class ZPlusTimesZ(SemigroupInstance):
    """Z_+ x Z under componentwise addition, graded by a + |u|."""

    name = "zplus_times_z"

    def op(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def validate(self, x):
        if not (isinstance(x, tuple) and len(x) == 2
                and all(type(c) is int for c in x)
                and x[0] >= 0):
            raise TypeError(f"{x!r} is not an element of {self.name}")

    def elements(self):
        for grade in count(0):
            for a in range(grade + 1):
                mag = grade - a
                if mag == 0:
                    yield (a, 0)
                else:
                    yield (a, -mag)
                    yield (a, mag)


class ReesMatrix(SemigroupInstance):
    """Rees matrix semigroup over a group, with an adjoined absorbing zero.

    Elements are single-nonzero-entry |I| x |J| matrices written as
    (entry, row, col) with 1-based indices, plus the distinguished zero.
    The sandwich array P has shape |J| x |I| with group entries, and
    (s, i, j) * (t, k, l) = (s P[j][k] t, i, l).
    """

    def __init__(self, group: Any, n_rows: int, n_cols: int, sandwich: Iterable):
        n_rows = positive_int(n_rows, "the row count")
        n_cols = positive_int(n_cols, "the column count")
        P = tuple(tuple(row) for row in sandwich)
        if len(P) != n_cols or any(len(row) != n_rows for row in P):
            raise ValueError("sandwich array must have shape |J| x |I|")
        for row in P:
            for entry in row:
                group.validate(entry)
        self.group = group
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.sandwich = P
        self.name = f"rees({group.name};{n_rows}x{n_cols})"
        self.has_zero = REES_ZERO

    @property
    def key(self) -> str:
        return f"{self.name}|P={self.sandwich!r}"

    def op(self, x, y):
        if x.is_zero or y.is_zero:
            return REES_ZERO
        mid = self.sandwich[x.col - 1][y.row - 1]
        entry = self.group.op(self.group.op(x.entry, mid), y.entry)
        return ReesElement(entry, x.row, y.col)

    def validate(self, x):
        if not isinstance(x, ReesElement):
            raise TypeError(f"{x!r} is not a Rees matrix element")
        if x.is_zero:
            return
        self.group.validate(x.entry)
        if not (1 <= x.row <= self.n_rows and 1 <= x.col <= self.n_cols):
            raise TypeError(f"{x!r} has indices outside the declared ranges")

    def elements(self):
        yield REES_ZERO
        for g in self.group.elements():
            for i in range(1, self.n_rows + 1):
                for j in range(1, self.n_cols + 1):
                    yield ReesElement(g, i, j)


class PartialMaps(SemigroupInstance):
    """Injective partial self-maps of N under composition f*g = f after g."""

    name = "partial_maps"
    has_zero = PartialMap()

    def op(self, x, y):
        return x.compose(y)

    def validate(self, x):
        if not isinstance(x, PartialMap):
            raise TypeError(f"{x!r} is not a PartialMap")

    def elements(self):
        """The zero map, then for each bound b the maps whose largest point
        is b, in (size, pairs) order."""
        yield PartialMap()
        for bound in count(1):
            yield from sorted(
                (f for f in enumerate_partial_maps(bound, bound)
                 if bound in f.domain or bound in f.image),
                key=lambda f: (len(f.pairs), f.pairs))


def enumerate_partial_maps(max_domain: int, max_value: int) -> list:
    """Every injective partial map with domain inside {1..max_domain} and
    values inside {1..max_value}, the zero map included."""
    universe = [PartialMap()]
    base = range(1, max_domain + 1)
    vals = range(1, max_value + 1)
    for k in range(1, max_domain + 1):
        for dom in combinations(base, k):
            for img in permutations(vals, k):
                universe.append(PartialMap(zip(dom, img)))
    return universe


# ---------------------------------------------------------------------------
# window-relative structural checks


def associativity_window(S: SemigroupInstance, rank: int) -> Verdict:
    win = S.window(rank)
    right = {}
    for y in win:
        for z in win:
            right[(y, z)] = S.op(y, z)
    for x in win:
        for y in win:
            xy = S.op(x, y)
            for z in win:
                if S.op(xy, z) != S.op(x, right[(y, z)]):
                    return failed(witness=(x, y, z), detail="associativity broke")
    return passed(detail=f"associative on window of rank {len(win)}")


def is_cancellative_window(S: SemigroupInstance, window_rank: int) -> Verdict:
    """Injectivity of every left and right translation on the window."""
    win = S.window(window_rank)
    for s in win:
        seen_left: dict = {}
        seen_right: dict = {}
        for t in win:
            v = S.op(s, t)
            if v in seen_left and seen_left[v] != t:
                return failed(witness={"side": "left", "translate_by": s,
                                       "first": seen_left[v], "second": t, "value": v})
            seen_left[v] = t
            w = S.op(t, s)
            if w in seen_right and seen_right[w] != t:
                return failed(witness={"side": "right", "translate_by": s,
                                       "first": seen_right[w], "second": t, "value": w})
            seen_right[w] = t
    return passed(detail=f"cancellative on window of rank {len(win)}")


def is_weakly_cancellative_window(S: SemigroupInstance, window_rank: int) -> Verdict:
    """Finite-to-one behaviour of translations, detected by window growth.

    Preimage sets under a translation are counted in a half-size window and
    in the full window; a preimage set that keeps growing with the window
    and reaches max(4, rank / 4) is reported as a failure witness (at most
    10).  Preimage sets that are merely large but stable (for example the
    lower set of s under the max operation) do not fail.

    The half window is a prefix of the full one, so one row over the full
    window gives both counts: the half-window count is the number of
    preimages of rank below r1.  Only a translator inside the half window,
    of rank below r1 = rank // 2, can witness, so only those rows are
    built, one at a time, left side first; each row keeps its targets in
    order of first appearance, and the scan stops at the tenth witness.
    """
    r2 = window_rank
    r1 = max(1, window_rank // 2)
    growth_threshold = max(4, r2 // 4)
    win = S.window(r2)
    op = S.op

    def growth():
        for side in ("left", "right"):
            for s in win[:r1]:
                row: dict = {}
                for j, t in enumerate(win):
                    row.setdefault(op(s, t) if side == "left" else op(t, s),
                                   []).append(j)
                for target, ranks in row.items():
                    small = bisect_left(ranks, r1)
                    if 0 < small < len(ranks) and len(ranks) >= growth_threshold:
                        yield {"side": side, "translate_by": s, "target": target,
                               "preimages": [win[j] for j in ranks],
                               "counts": (small, len(ranks)),
                               "window_ranks": (r1, r2)}

    witnesses = list(islice(growth(), 10))
    if witnesses:
        return failed(witness=witnesses,
                      detail="preimage sets grow with the window")
    return passed(detail=f"weakly cancellative at window rank {r2} "
                         f"(growth-checked against rank {r1})")


def is_finitely_left_divisible_window(S: SemigroupInstance, s: Any,
                                      window_rank: int) -> Verdict:
    """Left divisor set of s, tracked across growing windows.

    Divisors are the t in the window with t*r = s for some r in the window.
    The set is recomputed at window ranks r, 3r/2 and 2r; a count still
    growing at the last is failure evidence, a stable count passes.
    """
    S.validate(s)
    checkpoints = sorted({window_rank, (3 * window_rank + 1) // 2,
                          2 * window_rank})
    base_window = S.window(checkpoints[0])
    if s not in base_window:
        raise ValueError(f"{s!r} is not inside the window of rank {checkpoints[0]}")
    counts = {}
    divisors: list = []
    for r in checkpoints:
        win = S.window(r)
        divisors = [t for t in win if any(S.op(t, rr) == s for rr in win)]
        counts[r] = len(divisors)
    ordered = [counts[r] for r in checkpoints]
    growing = len(ordered) >= 2 and ordered[-1] > ordered[-2]
    witness = {"element": s, "divisors": divisors, "counts": counts}
    if growing:
        return failed(witness=witness, detail="divisor count grows with the window")
    return passed(witness=witness,
                  detail=f"divisor count stable at {ordered[-1]} across checkpoints")


def length(S: SemigroupInstance, x: Any) -> Verdict[int]:
    """Least number of generators whose product is x, by breadth-first search.

    PASS carries the length as witness.  FAIL means the search closed
    without reaching x; UNDETERMINED means it hit length 24 first, as it
    does for the neutral-looking elements of an identity-free instance.
    """
    if S.generators is None:
        raise ValueError(f"{S.name} does not declare a finite generator set")
    S.validate(x)
    frontier = set(S.generators)
    if x in frontier:
        return passed(1)
    seen = set(frontier)
    n = 1
    while n < 24:
        nxt = set()
        for y in frontier:
            for c in S.generators:
                z = S.op(y, c)
                if z not in seen:
                    nxt.add(z)
        n += 1
        if x in nxt:
            return passed(n)
        if not nxt:
            return failed(detail=f"{x!r} is not a product of generators "
                                 f"(search closed at length {n - 1})")
        seen |= nxt
        frontier = nxt
    return undetermined(f"{x!r} not reached by products of <= 24 generators")

"""JSON serialization for every value the CLI reads or writes.

Conventions: rationals travel as exact "p/q" strings; integers that can be
astronomically large (weight values, semigroup elements) travel as
decimal strings, and every parser here accepts either a JSON number or
a decimal string (an optional sign and at most MAX_DECIMAL_DIGITS digits,
on each side of a "p/q"); small
structural indices (mask entries, levels, map pairs) stay plain numbers.
The adjoined infinity is the string "INF" and the absorbing matrix zero is
the string "0".  `read_params` is the one reader of a JSON object, at any
depth: it refuses an undeclared or missing key, and reads every integer
that sizes the work into its declared range before anything is computed
from it; an error in a nested object names the keys it was read under.
Each `*_from_json` reader is a table of keys and a one-line build, with
a table and a constructor per kind of weights and per tag of function, so
a key that the kind or tag does not use is undeclared too.
"""

from __future__ import annotations

import dataclasses
import re
from decimal import Decimal
from fractions import Fraction
from typing import Any, Optional

from . import dyadic, topologies, wap
from .semigroups import INF, PartialMap, ReesElement, positive_int
from .l1 import BoundedFunction, L1Vector
from .topologies import MAX_DECIMAL_DIGITS, MAX_INDEX_BOUND

SCHEMA_VERSION = "1"

# Converting n digits takes time quadratic in n, so the patterns bound n,
# and a string they refuse is not repeated in the message.
_DIGITS = f"[0-9]{{1,{MAX_DECIMAL_DIGITS}}}"
_DECIMAL = re.compile(f"[+-]?{_DIGITS}")
_RATIONAL = re.compile(f"[+-]?{_DIGITS}(/{_DIGITS})?")


class SuiteError(ValueError):
    """A usage error: unknown suite or key, or a malformed or out-of-range
    parameter.  ``path`` holds the keys of the nested objects it was read
    under, outermost first, and the message starts with them."""

    path: tuple = ()

    def __str__(self) -> str:
        text = super().__str__()
        return f"{'.'.join(self.path)}: {text}" if self.path else text


# Python refuses int <-> decimal str conversions past a process-wide digit
# limit (4300 by default); Decimal converts exactly and is not subject to it.

def frac_to_str(q: Any) -> str:
    q = Fraction(q)
    num = int_to_str(q.numerator)
    return num if q.denominator == 1 else f"{num}/{int_to_str(q.denominator)}"


def frac_from(j: Any) -> Fraction:
    """A JSON integer, or a string "p" or "p/q" in decimal digits."""
    if not isinstance(j, str):
        return Fraction(int_from(j))
    if not _RATIONAL.fullmatch(j):
        raise ValueError(f"not a rational \"p\" or \"p/q\" of at most "
                         f"{MAX_DECIMAL_DIGITS} digits each")
    p, _, q = j.partition("/")
    p, q = int_from(p), int_from(q or "1")
    if q == 0:
        raise ValueError(f"{j!r} has a zero denominator")
    return Fraction(p, q)


def int_from(j: Any) -> int:
    if type(j) is int:
        return j
    if isinstance(j, str):
        if not _DECIMAL.fullmatch(j):
            raise ValueError(f"not a decimal integer of at most "
                             f"{MAX_DECIMAL_DIGITS} digits")
        try:
            return int(j)
        except ValueError:
            return int(Decimal(j))
    raise TypeError(f"{j!r} is not an integer encoding")


def int_to_str(n: int) -> str:
    try:
        return str(int(n))
    except ValueError:
        return str(Decimal(n))


# ---------------------------------------------------------------------------
# the one reader of JSON objects


REQUIRED = object()     # the default of a key that must be present


def read_int(j: Any, key: str, lo: int, hi: int) -> int:
    """``j`` as an integer in [lo, hi]; anything else is a SuiteError."""
    try:
        v = int_from(j)
    except (TypeError, ValueError):
        raise SuiteError(f"parameter {key!r} must be an integer of at most "
                         f"{MAX_DECIMAL_DIGITS} digits") from None
    if not lo <= v <= hi:
        raise SuiteError(f"parameter {key!r} outside the safe range "
                         f"[{lo}, {hi}]")
    return v


def read_params(params: Any, keys: dict) -> dict:
    """The JSON object ``params`` read against the declarations ``keys``.

    Each declared key is (default, lo, hi) for an integer in [lo, hi], or
    (default, reader) for a value that ``reader`` builds from its JSON;
    an absent key reads as its default.  A missing REQUIRED key, any
    undeclared key, and a ``params`` that is not an object are SuiteErrors;
    a SuiteError, TypeError or ValueError raised by a reader is re-raised
    as a SuiteError with the reader's key on its path.
    """
    if not isinstance(params, dict):
        raise SuiteError("expected a JSON object")
    unknown = params.keys() - keys.keys()
    if unknown:
        raise SuiteError(f"unknown parameter {min(unknown)!r}; expected one "
                         f"of {sorted(keys)}")
    out = {}
    for key, spec in keys.items():
        if key in params:
            try:
                out[key] = (spec[1](params[key]) if len(spec) == 2
                            else read_int(params[key], key, spec[1], spec[2]))
            except SuiteError as exc:
                if len(spec) == 2:      # read_int names its key itself
                    exc.path = (key, *exc.path)
                raise
            except (TypeError, ValueError) as exc:  # a number's or a build's
                err = SuiteError(str(exc))
                err.path = (key,)
                raise err from exc
        elif spec[0] is REQUIRED:
            raise SuiteError(f"missing parameter {key!r}")
        else:
            out[key] = spec[0]
    return out


def read_tagged(params: Any, tag: str, rows: dict) -> Any:
    """``params`` read by read_params against the key table of the row in
    ``rows`` that its ``tag`` key names, so a key its tag does not use is
    undeclared, and built from its other keys by that row's constructor."""
    if not isinstance(params, dict):
        raise SuiteError("expected a JSON object")
    if tag not in params:
        raise SuiteError(f"missing parameter {tag!r}")
    word = params[tag]
    if not isinstance(word, str) or word not in rows:
        raise SuiteError(f"parameter {tag!r} must be one of {sorted(rows)}")
    keys, build = rows[word]
    return build(**{k: v for k, v in read_params(params, keys).items() if k != tag})


def array_of(reader, lo: int = 0, hi: Optional[int] = None):
    """A reader of a JSON array whose entries ``reader`` reads; with ``hi``,
    an array of ``lo`` to ``hi`` entries, counted before any is read."""
    def read(j: Any) -> list:
        if not isinstance(j, list):
            raise SuiteError("expected a JSON array")
        if hi is not None and not lo <= len(j) <= hi:
            raise SuiteError(f"expected {lo} to {hi} entries, got {len(j)}")
        return [reader(v) for v in j]
    return read


def pair_of(reader):
    """A reader of a JSON array of exactly two entries that ``reader`` reads."""
    def read(j: Any) -> tuple:
        if not (isinstance(j, list) and len(j) == 2):
            raise SuiteError("expected a JSON array of two entries")
        return reader(j[0]), reader(j[1])
    return read


def _verbatim(j: Any) -> Any:
    # a base word, which TopologyInstance checks, or a tag or kind word
    return j


read_mask = array_of(lambda j: read_int(j, "mask entry", 1, MAX_INDEX_BOUND))

# Each object of a query is a key table, named as the arguments of the
# class it builds, and a one-line build.  Weights and functions have a row
# per kind or tag: its key table and its kind's constructor.

_MOD_ENTRY = {"elem": (REQUIRED, lambda j: positive_int(int_from(j), "elem")),
              "value": (REQUIRED, frac_from)}


def mod_entry_from_json(d: Any) -> tuple:
    return tuple(read_params(d, _MOD_ENTRY).values())     # (elem, value)


_FUNCTION = {
    "c0_plus_const": ({"tag": (REQUIRED, _verbatim), "const": (0, frac_from),
                       "mod": (None, array_of(mod_entry_from_json))},
                      BoundedFunction.c0_plus_const),
    "sampled": ({"tag": (REQUIRED, _verbatim),
                 "values": (REQUIRED, array_of(frac_from))},
                BoundedFunction.sampled)}


def bounded_function_from_json(d: Any) -> BoundedFunction:
    return read_tagged(d, "tag", _FUNCTION)


def bounded_function_to_json(f: BoundedFunction) -> dict:
    if f.tag == "sampled":
        return {"tag": "sampled", "values": [frac_to_str(Fraction(*p)) for p in f._ints]}
    return {"tag": "c0_plus_const", "const": frac_to_str(f.const),
            "mod": [{"elem": e, "value": frac_to_str(v)}
                    for e, v in sorted(f.mod.items(), key=lambda kv: repr(kv[0]))]}


_BOUNDED = {"kind": (REQUIRED, _verbatim),
            "index_bound": (REQUIRED, 1, MAX_INDEX_BOUND)}
_WEIGHTS = {
    "double_exp": (_BOUNDED, topologies.WeightSequence.double_exp),
    "odd_primes": (_BOUNDED, topologies.WeightSequence.odd_primes),
    "explicit": ({"kind": (REQUIRED, _verbatim),
                  "values": (REQUIRED, array_of(int_from, 1, MAX_INDEX_BOUND))},
                 topologies.WeightSequence.explicit)}


def weights_from_json(d: Any) -> topologies.WeightSequence:
    return read_tagged(d, "kind", _WEIGHTS)


_TOPOLOGY = {"base": (REQUIRED, _verbatim),
             "weights": (REQUIRED, weights_from_json),
             "mask": (None, read_mask)}


def topology_from_json(d: Any) -> topologies.TopologyInstance:
    return topologies.TopologyInstance(**read_params(d, _TOPOLOGY))


_POINT = {"a": (REQUIRED, int_from), "s": (REQUIRED, int_from)}


def s1_point_from_json(d: Any) -> tuple:
    return tuple(read_params(d, _POINT).values())          # (a, s)


def s1_point_to_json(p: tuple) -> dict:
    a, s = p
    return {"a": a, "s": to_jsonable(s)}


_NBHD = {**_POINT, "alpha": (REQUIRED, int_from)}


def nbhd_from_json(d: Any) -> topologies.BasicNbhd:
    return topologies.BasicNbhd(**read_params(d, _NBHD))


_LIMIT_FUNCTIONAL = {"along": (REQUIRED, array_of(int_from)),
                     "horizon": (REQUIRED, int_from)}


def limit_functional_from_json(d: Any) -> wap.LimitFunctional:
    return wap.LimitFunctional(**read_params(d, _LIMIT_FUNCTIONAL))


def limit_functional_to_json(phi: wap.LimitFunctional) -> dict:
    """{"along": [...], "horizon": h}; every index is at most the horizon,
    so when h is a plain JSON number, so is every index."""
    if phi.horizon < _BIG:
        return {"along": list(phi.along), "horizon": phi.horizon}
    return {"along": to_jsonable(phi.along), "horizon": to_jsonable(phi.horizon)}


def certificate_to_json(cert: topologies.ConvergenceCertificate) -> dict:
    return {"limit": s1_point_to_json(cert.limit),
            "alpha_max": cert.alpha_max,
            "thresholds": {str(k): v for k, v in sorted(cert.thresholds.items())},
            "witnesses": [list(w) if w is not None else None
                          for w in cert.witnesses],
            "prefix_len": cert.prefix_len}


def dyadic_point_to_json(p: dyadic.DyadicPoint) -> dict:
    return {"exponents": list(p.exponents), "value": frac_to_str(p.value)}


# ---------------------------------------------------------------------------
# generic conversion for report payloads


_BIG = 1 << 53


def to_jsonable(obj: Any) -> Any:
    """Best-effort conversion of verdicts and witnesses to JSON values."""
    if obj is None or type(obj) is bool or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return obj if abs(obj) < _BIG else int_to_str(obj)
    if isinstance(obj, float):
        raise TypeError("floating point values are not allowed in reports")
    if isinstance(obj, Fraction):
        return frac_to_str(obj)
    if obj is INF:
        return "INF"
    if isinstance(obj, topologies.ConvergenceCertificate):
        return certificate_to_json(obj)
    if isinstance(obj, wap.LimitFunctional):
        return limit_functional_to_json(obj)
    if isinstance(obj, PartialMap):
        return {"pairs": [[n, v] for n, v in obj.pairs]}
    if isinstance(obj, ReesElement):
        return "0" if obj.is_zero else {"entry": repr(obj.entry),
                                        "row": obj.row, "col": obj.col}
    if isinstance(obj, L1Vector):
        return {"terms": [{"elem": to_jsonable(e), "coeff": frac_to_str(c)}
                          for e, c in obj.terms()]}
    if isinstance(obj, BoundedFunction):
        return bounded_function_to_json(obj)
    if isinstance(obj, dyadic.DyadicPoint):
        return dyadic_point_to_json(obj)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(v) for v in items]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    return repr(obj)

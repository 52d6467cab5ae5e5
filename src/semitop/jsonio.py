"""JSON serialization for every value the CLI reads or writes.

Conventions: rationals travel as exact "p/q" strings; integers that can be
astronomically large (weight values, semigroup elements) travel as
decimal strings, and every parser here accepts either a JSON number or
a decimal string (an optional sign and at most MAX_DECIMAL_DIGITS digits,
on each side of a "p/q"); small
structural indices (mask entries, levels, map pairs) stay plain numbers.
The adjoined infinity is the string "INF" and the absorbing matrix zero is
the string "0".  Suite params and query payloads go through `read_params`,
which rejects undeclared keys and reads every integer that sizes the work
into its declared range before anything is computed from it.
"""

from __future__ import annotations

import dataclasses
import re
from decimal import Decimal
from fractions import Fraction
from typing import Any

from . import dyadic, topologies, wap
from .semigroups import INF, PartialMap, ReesElement
from .l1 import BoundedFunction, L1Vector
from .topologies import MAX_DECIMAL_DIGITS, MAX_INDEX_BOUND
from .verdicts import Verdict

SCHEMA_VERSION = "1"

# Converting n digits takes time quadratic in n, so the patterns bound n,
# and a string they refuse is not repeated in the message.
_DIGITS = f"[0-9]{{1,{MAX_DECIMAL_DIGITS}}}"
_DECIMAL = re.compile(f"[+-]?{_DIGITS}")
_RATIONAL = re.compile(f"[+-]?{_DIGITS}(/{_DIGITS})?")


class SuiteError(ValueError):
    """A usage error: unknown suite or key, or a malformed or out-of-range
    parameter."""


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
    if isinstance(j, bool):
        raise TypeError("booleans are not integers")
    if isinstance(j, int):
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
# bounded parameters


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


def _array(j: Any, key: str) -> list:
    if not isinstance(j, list):
        raise SuiteError(f"parameter {key!r} must be a JSON array")
    return j


def read_ints(j: Any, key: str, lo: int, hi: int) -> list:
    """``j`` as a JSON array of integers in [lo, hi]."""
    return [read_int(v, key, lo, hi) for v in _array(j, key)]


def read_params(params: dict, keys: dict) -> dict:
    """``params`` with its integers read against their declarations.

    ``keys`` declares every key the caller accepts: None for a value that
    its own reader parses, else (default, lo, hi) for an integer in
    [lo, hi] that reads as ``default`` when absent, or, when ``default``
    is ``list``, for a required JSON array of such integers.  Any other
    key is a SuiteError.
    """
    unknown = sorted(set(params) - set(keys))
    if unknown:
        raise SuiteError(f"unknown parameter {unknown[0]!r}; expected one "
                         f"of {sorted(keys)}")
    out = dict(params)
    for key, spec in keys.items():
        if spec is None:
            continue
        default, lo, hi = spec
        if default is list:
            out[key] = read_ints(params[key], key, lo, hi)
        else:
            out[key] = (read_int(params[key], key, lo, hi) if key in params
                        else default)
    return out


# ---------------------------------------------------------------------------
# bounded functions


def bounded_function_to_json(f: BoundedFunction) -> dict:
    if f.tag == "sampled":
        return {"tag": "sampled", "values": [frac_to_str(v) for v in f.values]}
    return {"tag": "c0_plus_const", "const": frac_to_str(f.const),
            "mod": [{"elem": e, "value": frac_to_str(v)}
                    for e, v in sorted(f.mod.items(), key=lambda kv: repr(kv[0]))]}


def bounded_function_from_json(d: dict) -> BoundedFunction:
    if d["tag"] == "sampled":
        return BoundedFunction.sampled(
            [frac_from(v) for v in _array(d["values"], "values")])
    if d["tag"] != "c0_plus_const":
        raise SuiteError(f"function tag must be 'sampled' or 'c0_plus_const', "
                         f"not {d['tag']!r}")
    mod = {}
    for m in d.get("mod", []):
        elem = int_from(m["elem"])
        if elem < 1:
            raise SuiteError(f"mod elem {int_to_str(elem)} is not positive")
        mod[elem] = frac_from(m["value"])
    return BoundedFunction.c0_plus_const(mod, frac_from(d.get("const", 0)))


# ---------------------------------------------------------------------------
# topologies, neighborhoods, points, certificates


def weights_from_json(d: dict) -> topologies.WeightSequence:
    kind = d["kind"]
    if kind == "explicit":
        values = _array(d["values"], "values")
        if not 1 <= len(values) <= MAX_INDEX_BOUND:
            raise SuiteError(f"explicit weights take 1 to {MAX_INDEX_BOUND} "
                             f"values, not {len(values)}")
        return topologies.WeightSequence.explicit([int_from(v) for v in values])
    return topologies.WeightSequence(
        kind, read_int(d["index_bound"], "index_bound", 1, MAX_INDEX_BOUND))


def topology_from_json(d: dict) -> topologies.TopologyInstance:
    mask = (read_ints(d["mask"], "mask", 1, MAX_INDEX_BOUND) if "mask" in d
            else None)
    return topologies.TopologyInstance(d["base"], weights_from_json(d["weights"]),
                                       mask)


def s1_point_to_json(p: tuple) -> dict:
    a, s = p
    return {"a": a, "s": to_jsonable(s)}


def s1_point_from_json(d: dict) -> tuple:
    return (int_from(d["a"]), int_from(d["s"]))


def nbhd_from_json(d: dict) -> topologies.BasicNbhd:
    return topologies.BasicNbhd(*s1_point_from_json(d), int_from(d["alpha"]))


def certificate_to_json(cert: topologies.ConvergenceCertificate) -> dict:
    return {"limit": s1_point_to_json(cert.limit),
            "alpha_max": cert.alpha_max,
            "thresholds": {str(k): v for k, v in sorted(cert.thresholds.items())},
            "witnesses": [list(w) if w is not None else None
                          for w in cert.witnesses],
            "prefix_len": cert.prefix_len}


def dyadic_point_to_json(p: dyadic.DyadicPoint) -> dict:
    return {"exponents": list(p.exponents), "value": frac_to_str(p.value)}


def limit_functional_from_json(d: dict) -> wap.LimitFunctional:
    along = _array(d["along"], "along")
    return wap.LimitFunctional(tuple(int_from(p) for p in along),
                               int_from(d["horizon"]))


# ---------------------------------------------------------------------------
# generic conversion for report payloads


_BIG = 1 << 53


def to_jsonable(obj: Any) -> Any:
    """Best-effort conversion of verdicts and witnesses to JSON values."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, int):
        return obj if abs(obj) < _BIG else int_to_str(obj)
    if isinstance(obj, float):
        raise TypeError("floating point values are not allowed in reports")
    if isinstance(obj, Fraction):
        return frac_to_str(obj)
    if obj is INF:
        return "INF"
    if isinstance(obj, Verdict):
        return {"status": obj.status, "witness": to_jsonable(obj.witness),
                "detail": obj.detail}
    if isinstance(obj, topologies.ConvergenceCertificate):
        return certificate_to_json(obj)
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

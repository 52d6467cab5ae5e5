"""The one verdict type for window- and truncation-relative checks.

Checkers in this package, and the membership and representation
primitives, return a `Verdict` instead of a bare boolean, with one of the
four statuses defined here; NOT_APPLICABLE marks an unmet hypothesis.  Most
searches inspect a finite window or truncation of an infinite object, so
"could not decide within the truncation" is a real outcome and must never
be conflated with a pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generic, TypeVar

PASS = "PASS"
FAIL = "FAIL"
UNDETERMINED = "UNDETERMINED"
NOT_APPLICABLE = "NOT_APPLICABLE"

W = TypeVar("W")


@dataclass(frozen=True)
class Verdict(Generic[W]):
    """Outcome of one check, with an optional machine-checkable witness.

    A verdict is truthy exactly when its status is PASS, so callers branch
    with `if v:` and test other statuses by comparing `v.status`.
    """

    status: str
    witness: W = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.status == PASS


def passed(witness: Any = None, detail: str = "") -> Verdict:
    return Verdict(PASS, witness, detail)


def failed(witness: Any = None, detail: str = "") -> Verdict:
    return Verdict(FAIL, witness, detail)


def undetermined(detail: str) -> Verdict:
    return Verdict(UNDETERMINED, None, detail)


def not_applicable(detail: str) -> Verdict:
    return Verdict(NOT_APPLICABLE, None, detail)


class HorizonExceeded(Exception):
    """An exact answer would need data beyond the declared horizon."""

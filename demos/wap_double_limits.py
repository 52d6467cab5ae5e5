"""Iterated limits along subsequences over (N, max), emitted as JSON.

The order of iteration matters exactly when the function is not weakly
almost periodic.  The indicator of the even numbers is the canonical
offender: evaluating f(max(s, t)) with t escaping first sees only odd
values near infinity, the other order only even ones.  `wap_test` FAILs
such a function with the disagreeing pair as witness, and PASSes one whose
determined iterated limits all agree.
"""

import json

from fractions import Fraction

from semitop import (BoundedFunction, LimitFunctional, arens_box,
                     arens_diamond, indicator_of_evens,
                     subsequence_pair_family, wap_test)

omega = LimitFunctional.evens(200)
upsilon = LimitFunctional.odds(200)

# what each status of wap_test says about f
MEANING = {"PASS": "weakly almost periodic, or consistent with it",
           "FAIL": "not weakly almost periodic: two iterated limits differ",
           "UNDETERMINED": "no pair of iterated limits stabilized"}


def row(f):
    status = wap_test(f, subsequence_pair_family(20, 200, seed=0)).status
    return {"box": str(arens_box(omega, upsilon, f)),
            "diamond": str(arens_diamond(omega, upsilon, f)),
            "verdict": status, "meaning": MEANING[status]}


report = {
    "indicator_of_evens": row(indicator_of_evens(200)),
    "bump_plus_constant": row(BoundedFunction.c0_plus_const(
        {3: Fraction(5, 2)}, Fraction(1, 3))),
}

print(json.dumps(report, indent=2))

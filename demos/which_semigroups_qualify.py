"""Which semigroups admit the construction: a dichotomy in examples.

Weak cancellativity (translation preimage sets that stop growing with the
enumeration window) is the entry ticket.  (N, max) holds it; adjoining an
absorbing infinity destroys it, and so does a Rees matrix construction
with an infinite index set.
"""

from semitop import (IntegerGroup, NatInfinity, NatMax, ReesMatrix,
                     is_weakly_cancellative_window)

for S, rank, label in [
    (NatMax(), 200, "(N, max)"),
    (NatInfinity(), 200, "(N, max) with absorbing infinity"),
    (ReesMatrix(IntegerGroup(), 100, 1, [[0] * 100]), 201,
     "Rees matrix over Z, 100 rows, rank-1 sandwich"),
]:
    v = is_weakly_cancellative_window(S, rank)
    if v.status == "PASS":
        print(f"{label}: {v.detail}")
        continue
    # every infinite semigroup with a zero fails at the zero, so name
    # another translator when there is one; N with infinity has none
    r = next((w for w in v.witness if w["translate_by"] != S.has_zero),
             v.witness[0])
    print(f"{label}: FAILS; {r['side']} translation by {r['translate_by']} "
          f"sends {len(r['preimages'])} window elements to {r['target']} "
          f"(fibre growth {r['counts'][0]} -> {r['counts'][1]})")

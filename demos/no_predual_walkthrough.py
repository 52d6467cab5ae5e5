"""The collapse argument for injective partial maps, step by step.

Composition is (hg)(n) = h(g(n)) with 0 standing for "undefined".  Three
verified identities combine into the obstruction: candidate open sets are
translation preimages, a cheap family enters all of them, and two fixed
points keep the family separated from its would-be accumulation point.
"""

import json

from semitop import (PartialMap, build_g, open_set_identity_sweep,
                     proof_skeleton, verify_annihilation, verify_fnp)
from semitop.jsonio import to_jsonable

f = PartialMap([(1, 2)])
sweep = open_set_identity_sweep(3, 4)
print(f"universe: all {sweep.witness['universe']} injective partial maps "
      "on small domains")

g = build_g(f, {3})
print("\nstep 1: {h : h o g = f} with g =", dict(g.pairs), "for F' = {3}")
print(f"  equals the basic set around f, for all "
      f"{sweep.witness['specs_checked']} specs (f, F'):", sweep.status)

print("\nstep 2: the family f_n translates back onto f for every valid n:")
print(" ", verify_fnp(f, n0=3, n_range=range(1, 21)).detail)

print("\nstep 3: one-point compressions annihilate the family but not g:")
res = verify_annihilation(f, n0=3, g=PartialMap([(1, 2), (4, 7)]), k0=4,
                          n_range=range(1, 21))
print("  surviving translate:", dict(res.witness["alive"]),
      " family nonzero at:", res.witness["nonzero_at"] or "nowhere")

print("\nfull machine-checked skeleton:")
print(json.dumps(to_jsonable(proof_skeleton()), indent=2)[:400], "...")

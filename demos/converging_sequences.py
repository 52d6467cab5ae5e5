"""Certificates for convergent sequences, and how convergence transfers
under translation.

Run with --seed to vary the random shift; everything else is exact.
"""

import argparse
import json

from semitop import (TopologyInstance, WeightSequence, check_convergence,
                     convergence_transfer, find_limit)
from semitop.jsonio import certificate_to_json

parser = argparse.ArgumentParser()
parser.add_argument("--seed", type=int, default=0)
args = parser.parse_args()

T = TopologyInstance("z", WeightSequence.double_exp(8))
w = T.weights

# the canonical converging sequence: spend one credit, land on w_j
limit = (2, 5)
seq = [(1, 5 + w.value(j)) for j in range(2, 9)]
print("sequence:", seq[:3], "...")

verdict = check_convergence(T, seq, limit, alpha_max=3)
cert = verdict.witness
print("\ncertificate for the limit", limit, "->", verdict.status)
print(json.dumps(certificate_to_json(cert), indent=2))
print("revalidates:", cert.revalidate(T, seq).status)
tampered = cert.revalidate(T, seq[:-1])
print("tampered prefix revalidates:", tampered.status, tampered.witness,
      tampered.detail)

# the limit can also be recovered without being told: the search returns
# the convergence verdict of the first candidate that certifies
found = find_limit(T, seq, alpha_max=3)
assert found
print("\nrecovered limit:", found.witness.limit)

# translating every term by a fixed (b, t) moves the limit the same way:
# find the shifted sequence's limit, then divide the shift back out of it
shift = (1 + args.seed % 2, 3)
shifted = [(p[0] + shift[0], p[1] + shift[1]) for p in seq]
shifted_found = find_limit(T, shifted, alpha_max=3)
assert shifted_found
res = convergence_transfer(T, seq, shift, 3, shifted_found.witness.limit)
print("\nshift by", shift, "->", res.status)
print("limit of the shifted sequence:", res.witness["shifted_limit"])
print("predicted limit of the unshifted sequence:",
      res.witness["predicted_limit"])
print("shifted certificate revalidates:",
      res.witness["shifted_certificate"].revalidate(T, shifted).status)

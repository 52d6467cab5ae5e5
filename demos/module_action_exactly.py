"""Exact computations in the convolution algebra over (N, max).

Convolving with a point mass delta_s collapses everything at or below s;
the closed form for the collapsed vector is checked against the raw
convolution, then pushed until it breaks: a pairing that vanishes can stop
vanishing after translation, and the witness is constructed exactly.
"""

from fractions import Fraction

from semitop import (L1Vector, NatMax, convolve, counterexample_x,
                     max_action_formula, pairing_vectors)

S = NatMax()
d = lambda n, c=1: L1Vector.delta(S, n, Fraction(c))

a = d(1) - d(3, 2) + d(7, 5)
print("a =", a)

for s in (2, 3, 8):
    via_formula = max_action_formula(s, a)
    via_convolution = convolve(d(s), a)
    assert via_formula == via_convolution
    print(f"delta_{s} * a = {via_formula}")

# sharpness: an x with <x, a> = 0 whose translate pairing is not zero
a = d(1) + d(2)
w = counterexample_x(a).witness
print("\na =", a)
print("x =", w.x, " s =", w.s)
print("<x, a> =", w.pairing_a)
print("<x, delta_s * a> =", w.pairing_translated)
assert pairing_vectors(w.x, convolve(d(w.s), a)) == w.pairing_translated

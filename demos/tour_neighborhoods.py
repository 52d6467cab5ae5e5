"""Walk through basic neighborhoods on the two-coordinate space Z+ x Z.

A point is (a, s): a credits in the first coordinate, an integer in the
second.  The neighborhood U(a, s, alpha) around (a, s) holds every point
reachable by spending k <= a credits on a strictly increasing block of
weights with indices >= alpha.
"""

from semitop import BasicNbhd, TopologyInstance, WeightSequence

T = TopologyInstance("z", WeightSequence.double_exp(6))
w = T.weights

print("weights:", [w.value(i) for i in range(1, 6)], "...")

U = BasicNbhd(2, 0, 1)
print("\nU(2, 0, 1) membership, spending credits on weight blocks:")
for point in [(2, 0), (1, 4), (1, 16), (0, 20), (0, 16), (3, 0)]:
    res = T.member(U, point)
    print(f"  {point!r:10} -> {res.status}"
          + (f"  (weights used: {list(res.witness)})" if res else ""))

print("\nthe alpha floor cuts off low-index weights:")
for alpha in (1, 2, 3):
    res = T.member(BasicNbhd(2, 0, alpha), (1, 16))
    print(f"  alpha={alpha}: (1, 16) in U(2, 0, alpha) -> {res.status}")

# the listed members of U carry the same weight blocks
print("\nU lists (0, 20) with weights", list(T.basic_points(U)[(0, 20)]))

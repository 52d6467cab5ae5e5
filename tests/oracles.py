"""Brute-force oracles that the tests hold the production paths to."""

from itertools import combinations

from semitop.verdicts import failed, passed


def member_bruteforce(T, nbhd, point):
    """Membership of point in U(nbhd) by exhaustive subset enumeration,
    the oracle of ``TopologyInstance.member``."""
    x, u = T.require_point(point)
    k = nbhd.a - x
    if k < 0 or k > nbhd.a:
        return failed(detail="first coordinate out of range")
    idxs = [i for i in T.mask if i >= nbhd.alpha]
    diff = T.g_diff(u, nbhd.s)
    for combo in combinations(idxs, k):
        if T.weight_total(combo) == diff:
            return passed(combo)
    return failed()

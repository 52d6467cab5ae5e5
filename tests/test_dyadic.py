from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semitop.dyadic as dyadic
from semitop.dyadic import (DyadicPoint, XSpace, basic_neighborhood,
                            interval_cut, interval_identity_sweep, psi,
                            verify_interval_identity)
from semitop.topologies import BasicNbhd, TopologyInstance, WeightSequence


def test_point_value_and_validation():
    p = DyadicPoint([1, 3])
    assert p.value == Fraction(5, 8)
    assert DyadicPoint().is_zero
    with pytest.raises(ValueError):
        DyadicPoint([2, 2])
    with pytest.raises(ValueError):
        DyadicPoint([0])


def test_enumeration_count_matches_binomial_sum():
    space = XSpace(3, 2, 9)
    pts = space.points()
    n = 9 - 2 + 1
    assert len(pts) == 1 + sum(comb(n, k) for k in (1, 2, 3))
    assert len(pts) == space.expected_count()


def test_enumerated_values_are_distinct():
    space = XSpace(4, 1, 10)
    vals = [p.value for p in space.points()]
    assert len(set(vals)) == len(vals)


def test_neighborhood_small_example():
    # x0 = 1/2, room for one more exponent drawn from {3, 4}
    space = XSpace(2, 1, 4)
    x0 = DyadicPoint([1])
    nb = basic_neighborhood(x0, 3, space)
    assert {p.value for p in nb} == {Fraction(1, 2), Fraction(5, 8),
                                     Fraction(9, 16)}


def test_neighborhood_full_point_is_isolated():
    space = XSpace(2, 1, 6)
    x0 = DyadicPoint([1, 2])
    assert basic_neighborhood(x0, 3, space) == {x0}


def test_neighborhood_of_zero_at_alpha_is_everything():
    space = XSpace(2, 2, 5)
    assert basic_neighborhood(DyadicPoint(), 2, space) == set(space.points())


def test_neighborhood_beta_precondition():
    space = XSpace(2, 1, 6)
    with pytest.raises(ValueError):
        basic_neighborhood(DyadicPoint([2]), 2, space)


def test_interval_identity_fixed_cases():
    space = XSpace(2, 1, 10)
    assert verify_interval_identity(DyadicPoint([1, 2]), space, 3)
    assert verify_interval_identity(DyadicPoint([1]), space, 2)
    assert verify_interval_identity(DyadicPoint(), space, 4)


def test_interval_identity_sweep_small():
    v = interval_identity_sweep(a_max=2, alpha_max=2, beta_max=5, max_exp=7)
    assert v.status == "PASS"
    assert v.witness["checked"] > 0


@given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 8))
def test_interval_identity_random_cells(a, alpha, seedling):
    space = XSpace(a, alpha, 8)
    pts = space.points()
    x0 = pts[seedling % len(pts)]
    top = x0.exponents[-1] if x0.exponents else alpha - 1
    for beta in range(top + 1, 7):
        assert verify_interval_identity(x0, space, beta)


def _fraction_cut(x0, space, beta):
    # oracle: the interval cut summed in Fractions, point by point
    pts = space.points()
    if x0.is_zero:
        hi = Fraction(1, 2 ** (beta - 1))
        return {p for p in pts if p.value < hi}
    m_top = x0.exponents[-1]
    lo = x0.value - Fraction(1, 2 ** (m_top + space.a))
    hi = x0.value + Fraction(1, 2 ** (beta - 1))
    return {p for p in pts if lo < p.value < hi}


@settings(max_examples=150)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 8),
       st.integers(0, 10 ** 6), st.integers(0, 16))
def test_interval_cut_matches_fraction_cut(a, alpha, span, seedling, beta_up):
    # beta runs past max_exp + a + 2, where the right radius drops below
    # one unit of the common denominator
    space = XSpace(a, alpha, alpha + span)
    pts = space.points()
    x0 = pts[seedling % len(pts)]
    beta = (x0.exponents[-1] if x0.exponents else alpha - 1) + 1 + beta_up
    assert interval_cut(x0, space, beta) == _fraction_cut(x0, space, beta)


def test_sweep_fails_when_the_neighborhood_drops_a_point(monkeypatch):
    # negative control: the cut is computed without the neighborhood, so a
    # neighborhood missing one point shows up as that point in the cut only
    dropped = DyadicPoint([2, 5])
    real = dyadic.basic_neighborhood

    def short(x0, beta, space):
        return real(x0, beta, space) - {dropped}

    monkeypatch.setattr(dyadic, "basic_neighborhood", short)
    v = interval_identity_sweep(a_max=2, alpha_max=2, beta_max=5, max_exp=7)
    assert v.status == "FAIL"
    assert v.witness["interval_only"] == [(2, 5)]
    assert v.witness["neighborhood_only"] == []


def test_psi_reads_off_representation_indices():
    T = TopologyInstance("z", WeightSequence.double_exp(6))
    nbhd = BasicNbhd(3, 0, 1)
    w = T.weights
    point = (1, w.value(2) + w.value(5))
    assert psi(point, nbhd, T) == DyadicPoint([2, 5])
    assert psi((3, 0), nbhd, T) == DyadicPoint()


def test_psi_rejects_non_members():
    T = TopologyInstance("z", WeightSequence.double_exp(6))
    with pytest.raises(ValueError):
        psi((0, 7), BasicNbhd(2, 0, 1), T)


def test_psi_image_matches_model_exactly():
    # the coordinates of a basic set fill the whole truncated model
    T = TopologyInstance("z", WeightSequence.double_exp(8))
    nbhd = BasicNbhd(2, 0, 3)
    space = XSpace(2, 3, 8)
    image = {psi(p, nbhd, T) for p in T.basic_points(nbhd)}
    assert image == set(space.points())

import re
from itertools import combinations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import (OpenSetSpec, build_fn, fn_threshold, o_member,
                     open_set_identity, verify_annihilation_oracle,
                     verify_fnp_oracle)
from semitop import obstructions
from semitop.obstructions import (_sweep_sets, _verify_fnp_through, build_g,
                                  enumerate_partial_maps,
                                  open_set_identity_sweep, proof_skeleton,
                                  valid_ns, verify_annihilation, verify_fnp)
from semitop.jsonio import read_params
from semitop.semigroups import PartialMap
from semitop.suites import SUITE_PARAMS, SUITES
from semitop.verdicts import FAIL, PASS

F1 = PartialMap([(1, 2)])


def test_compose_convention_is_h_after_g():
    h = PartialMap([(2, 3)])
    g = PartialMap([(1, 2)])
    assert h.compose(g) == PartialMap([(1, 3)])
    assert g.compose(h).is_zero


def test_open_set_spec_validation():
    OpenSetSpec(F1, frozenset({3, 4}))
    with pytest.raises(ValueError):
        OpenSetSpec(F1, frozenset({1}))
    with pytest.raises(ValueError):
        OpenSetSpec(F1, frozenset({0}))


def test_o_member():
    spec = OpenSetSpec(F1, frozenset({3}))
    assert o_member(spec, PartialMap([(1, 2)]))
    assert o_member(spec, PartialMap([(1, 2), (2, 4)]))
    assert not o_member(spec, PartialMap([(1, 2), (3, 1)]))  # not zero on F'
    assert not o_member(spec, PartialMap([(1, 3)]))          # disagrees on F
    assert not o_member(spec, PartialMap())


@pytest.mark.parametrize("fprime", [
    {3, 4}, (), [4, 4], {1}, {1, 3}, {0}, {-2, 3}, [3, 2.0], ["3"]])
def test_build_g_validates_like_the_spec(fprime):
    # build_g checks (f, F') itself: it raises exactly the ValueError the
    # spec oracle raises, and otherwise carries the spec's F'
    f = PartialMap([(1, 2), (2, 5)])
    try:
        spec = OpenSetSpec(f, fprime)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            build_g(f, fprime)
        return
    g = build_g(f, fprime)
    assert sorted(g.image) == sorted(f.domain + tuple(spec.fprime))


def test_build_g_uses_least_fresh_points():
    g = build_g(PartialMap([(2, 3)]), {1, 4})
    # identity on dom f, then 5,6 (the least naturals not in {1,2,3,4})
    # carrying F' = {1, 4}
    assert dict(g.pairs) == {2: 2, 5: 1, 6: 4}


def test_build_g_matches_validated_construction():
    # build_g builds g without re-validating its pairs; for every f of the
    # (3,4) universe and every F' inside {1..5} off dom f, the validating
    # constructor on its pairs is the oracle
    for f in enumerate_partial_maps(3, 4):
        complement = [n for n in range(1, 6) if n not in f.domain]
        for r in range(len(complement) + 1):
            for fprime in combinations(complement, r):
                g = build_g(f, fprime)
                oracle = PartialMap(g.pairs)
                assert g.pairs == oracle.pairs
                assert hash(g) == hash(oracle) and g == oracle
                assert all(g(k) == oracle(k) for k in range(12))
                assert sorted(g.image) == sorted(f.domain + fprime)


# one row per entry point: each takes a non-int, a bool or a float where a
# positive integer belongs and must raise instead of coercing it
NOT_INTS = [
    ("PartialMap", lambda x: PartialMap([(1, 2), (x, 3)])),
    ("PartialMap-value", lambda x: PartialMap({1: x})),
    ("extend", lambda x: F1.extend(x, 3)),
    ("extend-value", lambda x: F1.extend(3, x)),
    ("OpenSetSpec", lambda x: OpenSetSpec(F1, {x})),
    ("build_g", lambda x: build_g(F1, [x])),
    ("build_fn-n0", lambda x: build_fn(F1, x, 3)),
    ("build_fn-n", lambda x: build_fn(F1, 3, x)),
    ("valid_ns", lambda x: valid_ns(F1, [x, 3])),
]


@pytest.mark.parametrize("value", [True, False, 1.9, 3.0, "3", None])
@pytest.mark.parametrize("entry", [thunk for _, thunk in NOT_INTS],
                         ids=[name for name, _ in NOT_INTS])
def test_entry_points_take_exact_integers_only(entry, value):
    with pytest.raises(ValueError):
        entry(value)


def test_open_set_identity_small():
    universe = enumerate_partial_maps(3, 4)
    assert len(universe) == 73
    v = open_set_identity(F1, {3}, universe)
    assert v.status == "PASS"
    assert v.witness["set_size"] == 4
    assert dict(v.witness["g"]) == {1: 1, 4: 3}


def test_open_set_identity_detects_wrong_g():
    universe = enumerate_partial_maps(3, 4)
    bad = PartialMap([(1, 1)])   # forgets the F' leg
    v = open_set_identity(F1, {3}, universe, g=bad)
    assert v.status == FAIL
    assert v.witness["only_in"]


def test_open_set_identity_sweep_small():
    v = open_set_identity_sweep(3, 4)
    assert v.status == "PASS"
    assert v.witness["universe"] == 73
    assert v.witness["specs_checked"] == 152
    assert v.witness["cross_checked"] == 152
    assert v.witness["translators"] == 39
    # one composition per translator and class of h restricted to img g
    assert v.witness["compositions"] == 1431


def test_open_set_identity_sweep_catches_translator_without_fprime_leg(
        monkeypatch):
    # negative control: a translator that forgets F' pulls back a set that
    # ignores F', so the sweep must fail with a witness the direct check
    # confirms
    real_build_g = obstructions.build_g
    monkeypatch.setattr(obstructions, "build_g",
                        lambda f, fprime: real_build_g(f, ()))
    v = open_set_identity_sweep(3, 4)
    assert v.status == FAIL
    w = v.witness
    f, g = PartialMap(w["f"]), PartialMap(w["g"])
    assert w["fprime"] and g == real_build_g(f, ())
    direct = open_set_identity(f, w["fprime"], enumerate_partial_maps(3, 4),
                               g=g)
    assert direct.status == FAIL
    assert direct.witness["only_in"][0] == (
        "preimage" if w["in_preimage"] else "basic_set", w["mismatch_h"])


def test_open_set_identity_sweep_catches_wrong_composition(monkeypatch):
    # negative control: the value-tuple composition handed the identity on
    # {1, 2} in place of g's pairs composes each class to h itself, not to
    # h o g; the sweep must fail on a spec whose identity the direct check
    # confirms, with a mismatch that PartialMap.compose contradicts
    real = obstructions._compose_classes
    monkeypatch.setattr(obstructions, "_compose_classes",
                        lambda classes, g_pairs: real(classes,
                                                      ((1, 1), (2, 2))))
    v = open_set_identity_sweep(2, 3)
    assert v.status == FAIL
    w = v.witness
    f, g, h = (PartialMap(w[k]) for k in ("f", "g", "mismatch_h"))
    assert g == build_g(f, w["fprime"])
    assert (h.compose(g) == f) != w["in_preimage"]
    assert open_set_identity(f, w["fprime"], enumerate_partial_maps(2, 3),
                             g=g).status == PASS


def test_open_set_identity_sweep_catches_translator_missing_a_domain_point(
        monkeypatch):
    # negative control: a translator without the pair (n, n) for the largest
    # n of dom f composes no h to f, since every h o g is undefined at n; the
    # sweep must fail on a spec whose basic set holds f, and its literal side
    # must still agree with PartialMap.compose, so f's key must not ignore
    # the points of dom f off dom g
    real_build_g = obstructions.build_g

    def dropped(f, fprime):
        g = real_build_g(f, fprime)
        return PartialMap([(n, m) for n, m in g.pairs
                           if not f.domain or n != f.domain[-1]])

    monkeypatch.setattr(obstructions, "build_g", dropped)
    v = open_set_identity_sweep(3, 4)
    assert v.status == FAIL
    w = v.witness
    f, g, h = (PartialMap(w[k]) for k in ("f", "g", "mismatch_h"))
    assert not set(f.domain).issubset(g.domain)
    assert w["in_preimage"] is False
    assert (h.compose(g) == f) == w["in_preimage"]
    assert o_member(OpenSetSpec(f, frozenset(w["fprime"])), h)


class _ShortImage(PartialMap):
    """A translator that reports its image without its largest point."""

    @property
    def image(self) -> tuple:
        return super().image[:-1]


def test_open_set_identity_sweep_catches_classes_missing_an_image_point(
        monkeypatch):
    # negative control: classing h on img g minus one point merges maps
    # whose composites with g differ, so the literal side goes wrong while
    # the identity itself still holds for the same spec
    real_build_g = obstructions.build_g
    monkeypatch.setattr(obstructions, "build_g", lambda f, fprime:
                        _ShortImage(real_build_g(f, fprime).pairs))
    v = open_set_identity_sweep(3, 4)
    assert v.status == FAIL
    w = v.witness
    f, g, h = (PartialMap(w[k]) for k in ("f", "g", "mismatch_h"))
    assert (h.compose(g) == f) != w["in_preimage"]
    assert open_set_identity(f, w["fprime"], enumerate_partial_maps(3, 4),
                             g=g).status == PASS


# the empty translator, a one-pair translator (whose key a lone itemgetter
# index would give as a scalar) and a two-pair translator
@pytest.mark.parametrize("g_pairs", [(), ((2, 3),), ((1, 3), (4, 2))],
                         ids=["empty", "one-pair", "two-pair"])
def test_compose_classes_matches_compose(g_pairs):
    # each h of the (3,4) universe in a class of its own: its key is its
    # composite with g read on dom g, which PartialMap.compose confirms
    universe = enumerate_partial_maps(3, 4)
    g = PartialMap(g_pairs)
    literal = obstructions._compose_classes(
        [(1 << i, tuple(map(h, range(1, 4)))) for i, h in enumerate(universe)],
        g.pairs)
    seen = 0
    for key, bits in literal.items():
        assert type(key) is tuple and len(key) == len(g_pairs)
        assert not bits & seen
        seen |= bits
        for i, h in enumerate(universe):
            if bits >> i & 1:
                hg = h.compose(g)
                assert key == tuple(map(hg, g.domain))
                assert hg.pairs == tuple(
                    (n, w) for n, w in zip(g.domain, key) if w)
    assert seen == (1 << len(universe)) - 1
    assert len(literal) == len({h.compose(g) for h in universe})


def _columns(universe, max_domain):
    """(n, v) -> bitset of the h with h(n) = v, for n up to max_domain."""
    columns: dict = {}
    for i, h in enumerate(universe):
        for n in range(1, max_domain + 1):
            columns[(n, h(n))] = columns.get((n, h(n)), 0) | 1 << i
    return columns


@pytest.mark.parametrize("max_domain,max_value", [(2, 3), (3, 4), (4, 6)])
def test_sweep_sets_match_direct_check(max_domain, max_value):
    # differential oracle: the class-based literal preimage equals the one
    # from composing every h with g, and the keyed preimage, the AND of
    # columns B[g(m)][f(m)]; at small sizes also the o_member set
    universe = enumerate_partial_maps(max_domain, max_value)
    full = (1 << len(universe)) - 1
    columns = _columns(universe, max_domain)
    small = len(universe) < 100
    specs = compositions = 0
    for g, composed, rows in _sweep_sets(universe, max_domain):
        assert composed == len({tuple(map(h, g.image)) for h in universe})
        compositions += composed
        direct: dict = {}
        for i, h in enumerate(universe):
            hg = h.compose(g).pairs
            direct[hg] = direct.get(hg, 0) | 1 << i
        for f, fprime, literal, basic in rows:
            specs += 1
            assert g == build_g(f, fprime)
            keyed = full
            for m, n in g.pairs:      # h(n) = 0 for every h past max_domain
                keyed &= columns.get((n, f(m)), full if f(m) == 0 else 0)
            assert literal == direct.get(f.pairs, 0) == keyed == basic
            if small:
                spec = OpenSetSpec(f, frozenset(fprime))
                assert literal == sum(1 << i for i, h in enumerate(universe)
                                      if o_member(spec, h))
    sweep = open_set_identity_sweep(max_domain, max_value).witness
    assert (specs, compositions) == (sweep["specs_checked"],
                                     sweep["compositions"])


def test_fn_threshold():
    assert fn_threshold(PartialMap()) == 1
    assert fn_threshold(PartialMap([(1, 5), (2, 3)])) == 6


def test_build_fn():
    fn = build_fn(F1, 3, 7)
    assert dict(fn.pairs) == {1: 2, 3: 7}
    with pytest.raises(ValueError):
        build_fn(F1, 1, 7)       # n0 inside the domain
    with pytest.raises(ValueError, match="injectivity"):
        build_fn(F1, 3, 2)       # n collides with the image
    with pytest.raises(ValueError):
        build_fn(F1, 0, 7)
    with pytest.raises(ValueError):
        build_fn(F1, 3, 0)


def test_valid_ns():
    assert valid_ns(F1, range(1, 6)) == [1, 3, 4, 5]
    assert valid_ns(PartialMap(), range(1, 4)) == [1, 2, 3]
    assert valid_ns(F1, [2]) == []


def test_verify_fnp_passes():
    v = verify_fnp(F1, n0=3, n_range=range(1, 21))
    assert v.status == "PASS"
    assert v.witness["ns_checked"] == 19
    assert "every valid n" in v.detail


def test_verify_fnp_vacuous():
    v = verify_fnp(F1, n0=3, n_range=[2])
    assert v.status == "PASS"
    assert "vacuous" in v.detail


def _widened(f, n0):
    """The identity on dom f, widened to fix n0 too: the p of section 4's
    negative control."""
    return PartialMap([(k, k) for k in f.domain + (n0,)])


def test_verify_fnp_sabotage_fails():
    v = _verify_fnp_through(F1, 3, _widened(F1, 3), range(1, 21))
    assert v.status == FAIL
    assert v.witness["n"] == 1
    assert dict(v.witness["composite"]) == {1: 2, 3: 1}


def test_annihilation_away_from_n0():
    g = PartialMap([(1, 2), (4, 7)])
    v = verify_annihilation(F1, n0=3, g=g, k0=4, n_range=range(1, 21))
    assert v.status == "PASS"
    assert v.witness["nonzero_at"] == []
    assert dict(v.witness["alive"]) == {4: 7}
    assert v.witness["ns_checked"] == 19


def test_annihilation_at_n0_survives_once():
    g = PartialMap([(1, 2), (3, 9)])
    v = verify_annihilation(F1, n0=3, g=g, k0=3, n_range=range(1, 21))
    assert v.status == "PASS"
    assert v.witness["nonzero_at"] == [9]


def test_annihilation_preconditions():
    g = PartialMap([(1, 2), (4, 7)])
    with pytest.raises(ValueError):
        verify_annihilation(F1, n0=1, g=g, k0=4, n_range=range(1, 9))
    with pytest.raises(ValueError):
        verify_annihilation(F1, n0=3, g=g, k0=1, n_range=range(1, 9))
    with pytest.raises(ValueError):
        verify_annihilation(F1, n0=3, g=PartialMap([(1, 5)]), k0=4,
                            n_range=range(1, 9))
    with pytest.raises(ValueError):
        verify_annihilation(F1, n0=3, g=F1, k0=4, n_range=range(1, 9))


def test_compression_with_wrong_fixed_point_kills_g_too():
    # negative control: fixing a point off the image of g compresses g to
    # zero, so it can no longer separate anything
    g = PartialMap([(1, 2), (3, 9)])
    h1 = PartialMap([(3, 3)])
    h2_wrong = PartialMap([(8, 8)])
    assert h2_wrong.compose(g).compose(h1).is_zero


def test_proof_skeleton():
    sk = proof_skeleton()
    assert sk.status == PASS
    assert sk.witness["universe_size"] == 73
    assert [s["id"] for s in sk.witness["steps"]] == [
        "open-sets-are-translation-preimages",
        "family-translates-onto-target",
        "two-point-compressions-separate",
    ]
    assert all(s["verdict"].status == PASS for s in sk.witness["steps"])
    # step 1 is the sweep over every f and F' of the 73-map universe
    assert sk.witness["steps"][0]["verdict"] == open_set_identity_sweep(3, 4)
    assert sk.witness["steps"][0]["verdict"].witness["specs_checked"] == 152


def test_proof_skeleton_check_fails_on_a_wrong_step(monkeypatch):
    # the family step run with a sabotaged composition must sink the check
    monkeypatch.setattr(obstructions, "verify_fnp",
                        lambda f, n0, n_range: _verify_fnp_through(
                            f, n0, _widened(f, n0), n_range))
    name = "section4-no-predual"
    checks = SUITES[name](read_params({}, SUITE_PARAMS[name]), 0)
    v = dict(checks)["proof-skeleton"]()
    assert v.status == FAIL
    assert [s["verdict"].status for s in v.witness["steps"]] == [
        PASS, FAIL, PASS]


def test_proof_skeleton_check_fails_on_a_wrong_sweep(monkeypatch):
    # negative control: the sweep's composition handed the identity on
    # {1, 2} in place of g's pairs must sink the translation-preimage step
    # and with it the check, the other two steps untouched
    real = obstructions._compose_classes
    monkeypatch.setattr(obstructions, "_compose_classes",
                        lambda classes, g_pairs: real(classes,
                                                      ((1, 1), (2, 2))))
    name = "section4-no-predual"
    checks = SUITES[name](read_params({}, SUITE_PARAMS[name]), 0)
    v = dict(checks)["proof-skeleton"]()
    assert v.status == FAIL
    assert v.witness["universe_size"] == 73
    assert [s["verdict"].status for s in v.witness["steps"]] == [
        FAIL, PASS, PASS]


@given(st.lists(st.integers(1, 8), min_size=0, max_size=4, unique=True),
       st.integers(1, 30))
def test_fn_composes_back_to_f(vals, n):
    assume(n not in vals)
    dom = range(1, len(vals) + 1)
    f = PartialMap(zip(dom, vals))
    n0 = len(vals) + 1
    fn = build_fn(f, n0, n)
    p = PartialMap([(k, k) for k in f.domain])
    assert fn.compose(p) == f


@given(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True),
       st.sets(st.integers(1, 3), max_size=2))
def test_open_set_identity_property(vals, fprime):
    dom = tuple(range(1, len(vals) + 1))
    f = PartialMap(zip(dom, vals))
    assume(not (fprime & set(dom)))
    universe = enumerate_partial_maps(3, 4)
    v = open_set_identity(f, fprime, universe)
    assert v.status == "PASS"


@st.composite
def _partial_maps(draw, points=st.integers(1, 7), values=st.integers(1, 9)):
    vals = draw(st.lists(values, max_size=4, unique=True))
    dom = draw(st.lists(points, min_size=len(vals), max_size=len(vals),
                        unique=True))
    return PartialMap(zip(dom, vals))


# n ranges with repeats, non-positive entries and entries on img f
_N_RANGES = st.one_of(
    st.builds(range, st.integers(-2, 3), st.integers(0, 40)),
    st.lists(st.integers(-2, 12), max_size=12))


@given(_partial_maps(), st.integers(1, 8), _N_RANGES, st.booleans())
def test_verify_fnp_matches_extend_and_compose_oracle(f, n0, ns, widened):
    # differential oracle: each f_n built by extend and composed by
    # PartialMap.compose gives the same verdict, FAIL witnesses included,
    # for p the identity on dom f and for p widened to fix n0 too; an n0
    # inside dom f is rejected by both
    p = PartialMap([(k, k) for k in f.domain])
    if n0 in f.domain:
        with pytest.raises(ValueError):
            verify_fnp(f, n0, ns)
        for check in (_verify_fnp_through, verify_fnp_oracle):
            with pytest.raises(ValueError):
                check(f, n0, p, ns)
        return
    if widened:
        p = _widened(f, n0)
    else:
        assert verify_fnp(f, n0, ns) == verify_fnp_oracle(f, n0, p, ns)
    assert _verify_fnp_through(f, n0, p, ns) == verify_fnp_oracle(
        f, n0, p, ns)


@given(_partial_maps(), st.integers(1, 8), st.integers(1, 8),
       st.integers(1, 12), _N_RANGES)
def test_verify_annihilation_matches_extend_and_compose_oracle(
        f, n0, k0, gk0, ns):
    assume(n0 not in f.domain and k0 not in f.domain
           and gk0 not in f.image)
    g = f.extend(k0, gk0)
    v = verify_annihilation(f, n0, g, k0, ns)
    assert v == verify_annihilation_oracle(f, n0, g, k0, ns)
    assert v.witness["nonzero_at"] == [
        n for n in valid_ns(f, ns) if k0 == n0 and n == gk0]


@given(_partial_maps(), _partial_maps(), st.integers(1, 9), st.integers(1, 12))
def test_domain_and_image_are_the_sorted_projections_of_pairs(f, g, n, v):
    # on maps built checked, composed and extended alike
    maps = [f, g, f.compose(g)]
    if n not in f.domain and v not in f.image:
        maps.append(f.extend(n, v))
    for m in maps:
        assert m.domain == tuple(sorted(n for n, _ in m.pairs))
        assert m.image == tuple(sorted(v for _, v in m.pairs))

"""Finite identities over the partial-injection semigroup.

The composition semigroup of injective partial self-maps of N (zero = the
empty map) carries candidate point-open topologies whose basic sets are
pinned down by finitely many equalities: agree with a target map f on its
domain F, vanish on a disjoint finite set F'.  This module verifies, over
exhaustive bounded universes, the three algebraic identities that make
those candidate topologies collapse:

  1. every such basic set is a right-translation preimage {h : h o g = f};
  2. a one-parameter family f_n translates onto f (f_n o p = f for all
     valid n);
  3. two fixed one-point compressions annihilate every f_n while keeping a
     chosen g alive.

Composition convention, fixed once: (h g)(n) = h(g(n)), i.e. hg = h o g.
"""

from __future__ import annotations

from itertools import combinations, repeat
from operator import itemgetter
from typing import Iterable, Sequence

from .semigroups import PartialMap, enumerate_partial_maps, positive_int
from .verdicts import Verdict, failed, passed


def build_g(f: PartialMap, fprime: Iterable) -> PartialMap:
    """The right translator realizing the basic set as a preimage.

    Identity on the domain of f, plus fresh points (least naturals not
    already in play) mapped bijectively onto fprime.  fprime must hold
    positive ints off dom f, and the fresh points avoid both, so the pairs
    are injective by construction.
    """
    dom = f.domain
    fprime = sorted({positive_int(n, "an fprime point") for n in fprime})
    if not set(dom).isdisjoint(fprime):
        raise ValueError("fprime must be disjoint from the domain of f")
    taken = set(dom).union(f.image, fprime)
    fresh = [n for n in range(1, len(taken) + len(fprime) + 1)
             if n not in taken][:len(fprime)]
    return PartialMap._trusted(tuple(sorted(
        [(n, n) for n in dom] + list(zip(fresh, fprime)))))


def open_set_identity_sweep(max_domain: int, max_value: int) -> Verdict:
    """Exhaustive identity check for every f and every admissible fprime
    over the bounded universe.

    Each spec (f, F') gives the identity's two sides as sets of maps h:
    the literal preimage {h : h o g = f} for g = build_g(f, F'), and the
    basic set.  The witness gives the universe size and counts the specs,
    the distinct translators and the compositions performed; a FAIL gives
    the universe size and the first spec whose two sides differ.
    """
    universe = enumerate_partial_maps(max_domain, max_value)
    translators = specs_checked = compositions = 0
    for g, composed, rows in _sweep_sets(universe, max_domain):
        translators += 1
        compositions += composed
        for f, fprime, literal, basic in rows:
            specs_checked += 1
            if literal != basic:
                bad = ((literal ^ basic) & -(literal ^ basic)).bit_length() - 1
                return failed(witness={
                    "universe": len(universe), "f": f.pairs,
                    "fprime": list(fprime), "g": g.pairs,
                    "mismatch_h": universe[bad].pairs,
                    "in_preimage": bool(literal >> bad & 1)})
    return passed(witness={"universe": len(universe),
                           "specs_checked": specs_checked,
                           "cross_checked": specs_checked,
                           "translators": translators,
                           "compositions": compositions})


def _sweep_sets(universe: Sequence, max_domain: int):
    """Yield each distinct translator g, the compositions made for it, and
    rows (f, F', literal preimage, basic set) for the specs it serves, each
    set a bitset of universe indices read off the maps classed by their
    values on a support.  The basic set is the class of f's values on
    dom f and F'.  Each h is held as its values on 1..max_domain (0 where
    undefined), a range that holds dom f, F' and so img g."""
    base = range(1, max_domain + 1)
    values = [tuple(map(h, base)) for h in universe]
    index: dict = {}        # support -> (key of a value tuple, classes)

    def classes(support: tuple) -> tuple:
        if support not in index:
            key = _values_at([n - 1 for n in support])
            by_key: dict = {}       # key -> (bitset, values of the last h)
            for i, v in enumerate(values):
                k = key(v)
                by_key[k] = (by_key.get(k, (0,))[0] | 1 << i, v)
            index[support] = key, by_key
        return index[support]

    by_translator: dict = {}
    for f, v in zip(universe, values):
        dom = f.domain
        complement = [n for n in base if n not in dom]
        for r in range(len(complement) + 1):
            for fprime in combinations(complement, r):
                by_translator.setdefault(build_g(f, fprime), []).append(
                    (f, fprime, tuple(sorted(dom + fprime)), v))
    for g, specs in by_translator.items():
        # h o g reads h only on img g: compose one member per class, the
        # last in universe order, whose points off img g the composition drops
        by_image = classes(g.image)[1]
        literal = _compose_classes(by_image.values(), g.pairs)
        dom_g = g.domain
        rows = []
        for f, fprime, support, v in specs:
            key, by_key = classes(support)
            # f as a composite: its values on dom g, or None, which no
            # composite matches, when f is defined off dom g
            f_key = (tuple(map(f, dom_g))
                     if set(f.domain).issubset(dom_g) else None)
            rows.append((f, fprime, literal.get(f_key, 0), by_key[key(v)][0]))
        yield g, len(by_image), rows


def _values_at(positions: list):
    """A getter of the entries of a value tuple at ``positions``, as a
    tuple for any number of them (a lone itemgetter index gives a scalar)."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (i,) = positions
        return lambda v: (v[i],)
    return lambda v: ()


def _compose_classes(classes: Iterable, g_pairs: tuple) -> dict:
    """Each composite h o g, keyed by its values h(g(n)) on dom g in g's
    pair order (0 where h is undefined at g(n)), mapped to the union of
    the bitsets of the (bitset, values of h) classes that compose to it."""
    compose = _values_at([m - 1 for _, m in g_pairs])
    literal: dict = {}
    for bits, v in classes:
        hg = compose(v)
        literal[hg] = literal.get(hg, 0) | bits
    return literal


# ---------------------------------------------------------------------------
# the one-parameter family f_n and its interactions


def _outside_domain(f: PartialMap, n0: int, what: str = "n0") -> None:
    if positive_int(n0, what) in f.domain:
        raise ValueError(f"{what} must lie outside the domain of f")


def valid_ns(f: PartialMap, n_range: Iterable) -> list:
    """The n of n_range that give an injective f_n: ints below 1 are
    skipped, entries that are not ints raise."""
    img = set(f.image)
    return [n for n in n_range
            if (n >= 1 if type(n) is int else positive_int(n, "n"))
            and n not in img]


def verify_fnp(f: PartialMap, n0: int, n_range: Iterable) -> Verdict:
    """f_n o p = f for every valid n, with p the identity on the domain
    of f."""
    return _verify_fnp_through(f, n0, PartialMap([(k, k) for k in f.domain]),
                               n_range)


def _verify_fnp_through(f: PartialMap, n0: int, p: PartialMap,
                        n_range: Iterable) -> Verdict:
    """f_n o p = f for every valid n, for a p whose domain holds the
    domain of f.  A p that also fixes n0 must break the identity, which
    makes it section 4's negative control."""
    _outside_domain(f, n0)
    ns = valid_ns(f, n_range)
    # f_n is f plus n0 -> n, held as a dict: _outside_domain keeps n0 off
    # dom f and valid_ns keeps n off img f, so every f_n is injective.  The
    # composite is read as its values on dom p, which holds dom f, so it
    # equals f exactly when those values are f's.
    fn, p_pairs, zeros = dict(f.pairs), p.pairs, repeat(0)
    p_values = [v for _, v in p_pairs]
    f_values = tuple(map(f, p.domain))
    for n in ns:
        fn[n0] = n
        values = tuple(map(fn.get, p_values, zeros))
        if values != f_values:
            composite = tuple([(k, w) for (k, _), w in zip(p_pairs, values)
                               if w])
            return failed(witness={"n": n, "p": p_pairs,
                                   "composite": composite, "f": f.pairs})
    return passed(witness={"ns_checked": len(ns), "p": p.pairs},
                  detail="composition returns f for every valid n"
                         if ns else "vacuous: no valid n in range")


def verify_annihilation(f: PartialMap, n0: int, g: PartialMap, k0: int,
                        n_range: Iterable) -> Verdict:
    """Two one-point compressions kill every valid f_n but not g.

    h1 fixes k0 only, h2 fixes g(k0) only.  Then h2 o g o h1 is the
    one-point map k0 -> g(k0), nonzero; while h2 o f_n o h1 is zero for
    every valid n except the single predicted case k0 = n0, n = g(n0).
    """
    _outside_domain(f, n0)
    _outside_domain(f, k0, "k0")
    if any(g(k) != f(k) for k in f.domain):
        raise ValueError("g must agree with f on the domain of f")
    if g(k0) == 0:
        raise ValueError("g must be nonzero at k0")
    h1 = PartialMap([(k0, k0)])
    h2 = PartialMap([(g(k0), g(k0))])
    alive = h2.compose(g).compose(h1)
    if alive != PartialMap([(k0, g(k0))]):
        return failed(witness={"h2_g_h1": alive.pairs},
                      detail="the compressed translate is not the expected "
                             "one-point map")
    ns = valid_ns(f, n_range)
    nonzero_at = []
    # f_n as in verify_fnp; h1 has one pair, so its composite is built as
    # pairs, which costs less than a value tuple and an any() at that size
    fn, h1_pairs, h2_at = dict(f.pairs), h1.pairs, dict(h2.pairs).get
    for n in ns:
        fn[n0] = n
        comp = tuple([(k, w) for k, v in h1_pairs
                      if (w := h2_at(fn.get(v, 0), 0))])
        predicted_nonzero = (k0 == n0 and n == g(k0))
        if bool(comp) != predicted_nonzero:
            return failed(witness={"n": n, "composite": comp,
                                   "predicted_nonzero": predicted_nonzero})
        if comp:
            nonzero_at.append(n)
    return passed(witness={"ns_checked": len(ns),
                           "alive": alive.pairs,
                           "nonzero_at": nonzero_at})


def proof_skeleton() -> Verdict:
    """Machine-checked skeleton of the collapse argument at small scale.

    Each step records an identity, its role in the contradiction, and a
    verdict from an actual run.  The topological glue (convergence and
    separation) is narrated, not re-proved; only the algebra is checked.
    PASS when every step passes; the sweep's universe size and the steps
    are the witness.
    """
    step1 = open_set_identity_sweep(3, 4)
    f = PartialMap([(1, 2)])
    step2 = verify_fnp(f, n0=3, n_range=range(1, 21))
    g = PartialMap([(1, 2), (4, 3)])
    step3 = verify_annihilation(f, n0=3, g=g, k0=4, n_range=range(1, 21))
    steps = [
        {"id": "open-sets-are-translation-preimages",
         "statement": "{h : h o g = f} equals the set of maps agreeing with "
                      "f on its domain and vanishing on F'",
         "role": "candidate basic open sets around f are right-translation "
                 "preimages, so separate continuity would force them open",
         "verdict": step1},
        {"id": "family-translates-onto-target",
         "statement": "f_n o p = f for every valid n, with p the identity "
                      "on the domain of f",
         "role": "the translated family is constantly f, so it enters every "
                 "open set around f; the untranslated family must then "
                 "accumulate wherever translation by p pulls f back",
         "verdict": step2},
        {"id": "two-point-compressions-separate",
         "statement": "h2 o g o h1 is a fixed nonzero one-point map while "
                      "h2 o f_n o h1 = 0 for all large n",
         "role": "a pair of fixed elements keeps g separated from every "
                 "tail of the family, which is incompatible with the "
                 "accumulation forced by the previous steps in any Hausdorff "
                 "topology with separately continuous composition",
         "verdict": step3},
    ]
    verdict = passed if all(s["verdict"] for s in steps) else failed
    return verdict({"universe_size": step1.witness["universe"],
                    "steps": steps})

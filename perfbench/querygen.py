"""Seeded query generator for the query-mix workload.

Every query is built together with its answer: the argv that
``semitop.cli.main`` receives, and the exit code and status the documented
contract gives for it.  The answers come from the construction (a point
built as a center plus chosen weights is a member; one bit off is not),
never from running the program.

Exit codes of the contract: 0 determined positive, 1 determined negative,
2 undetermined at the horizon, 3 usage error.
"""

from __future__ import annotations

import json
import random

# (kind, share in percent of a pass).  Most queries are memberships; the usage-error
# share includes the two inputs known to escape cli.main as exceptions at
# the time the benchmark was written ({"cases": "abc"} and the ambiguous
# explicit weights [1, 2, 3]), which must be counted, not filtered.
MIX = (
    ("member-true", 23), ("member-false", 20), ("member-undetermined", 14),
    ("converge-limit", 8), ("converge-wrong-limit", 3),
    ("converge-find-limit", 5),
    ("distinguish-differ", 7), ("distinguish-agree", 4),
    ("waptest-evens", 4), ("waptest-c0", 4),
    ("usage-malformed-json", 2), ("usage-missing-key", 2),
    ("usage-suite-param", 2), ("usage-ambiguous-weights", 2),
)


def _odd_primes(count: int) -> list:
    out, n = [], 3
    while len(out) < count:
        if all(n % p for p in out if p * p <= n):
            out.append(n)
        n += 2
    return out


def _dexp(i: int) -> int:
    return 2 ** (2 ** i)


def _query(command: str, params: dict, expect: dict, seed: int = 0) -> dict:
    argv = [command, "--params", json.dumps(params)]
    if seed:
        argv += ["--seed", str(seed)]
    return {"kind": command, "argv": argv, "expect": expect}


def _topology(base: str, kind: str, bound: int, mask=None) -> dict:
    topo = {"base": base, "weights": {"kind": kind, "index_bound": bound}}
    if mask is not None:
        topo["mask"] = list(mask)
    return topo


def _member(rng: random.Random, answer: str) -> dict:
    """A point built from a center and chosen masked weights.

    true: the point is the center plus k weights of index >= alpha, at
    first coordinate a - k.  false: the same with one ingredient broken.
    undetermined: the same plus a weight beyond the index bound.
    """
    multiplicative = rng.random() < 0.3
    bound = rng.randint(4, 9) if multiplicative else rng.randint(4, 8)
    mask = None
    if rng.random() < 0.5:
        mask = sorted(rng.sample(range(1, bound + 1), rng.randint(2, bound)))
    masked = mask or list(range(1, bound + 1))
    alpha = rng.randint(1, masked[-1])
    eligible = [i for i in masked if i >= alpha]
    a = rng.randint(1, 3)
    combo = sorted(rng.sample(eligible, rng.randint(0, min(a, len(eligible)))))
    if multiplicative:
        primes = _odd_primes(bound + 3)
        center = 2 * rng.randint(0, 60) + 1
        topo = _topology("odd_nat", "odd_primes", bound, mask)
        s = center
        for i in combo:
            s *= primes[i - 1]
        if answer == "false":
            s *= primes[rng.randint(1, bound) - 1] ** 2   # repeated prime
        elif answer == "undetermined":
            s *= primes[bound + rng.randint(0, 2)]        # prime beyond bound
    else:
        center = rng.randint(-10_000, 10_000)
        topo = _topology("z", "double_exp", bound, mask)
        s = center + sum(_dexp(i) for i in combo)
        if answer == "false":
            s += rng.choice((1, 2, 3))                    # bits no weight has
        elif answer == "undetermined":
            s += _dexp(bound + rng.randint(1, 2))         # index beyond bound
    x = a - len(combo)
    if answer == "false" and rng.random() < 0.3:
        x = a + 1                                         # first coordinate out of range
    params = {"topology": topo,
              "nbhd": {"a": a, "s": str(center), "alpha": alpha},
              "point": {"a": x, "s": str(s)}}
    status = {"true": True, "false": False, "undetermined": None}[answer]
    expect = {"exit": {True: 0, False: 1, None: 2}[status], "status": status}
    if status is True:
        expect["indices"] = combo
    return _query("member", params, expect)


def _converge(rng: random.Random, variant: str) -> dict:
    """Terms (c - 1, v + w_j) for j = start..bound converge to (c, v).

    With start = 1 and the full mask, (c, v) is the unique most frequent
    unshift candidate, so limit recovery must return it.  A limit one
    unit off leaves every term outside level 1, a determined FAIL.
    """
    bound = rng.randint(5, 8)
    c, v = rng.randint(1, 3), rng.randint(-500, 500)
    start = 1 if variant == "find-limit" else rng.randint(1, 3)
    seq = [{"a": c - 1, "s": str(v + _dexp(j))} for j in range(start, bound + 1)]
    params = {"topology": _topology("z", "double_exp", bound),
              "sequence": seq, "alpha_max": rng.randint(1, min(4, bound))}
    if variant == "limit":
        params["limit"] = {"a": c, "s": v}
        expect = {"exit": 0, "status": "PASS"}
    elif variant == "wrong-limit":
        params["limit"] = {"a": c, "s": v + 1}
        expect = {"exit": 1, "status": "FAIL"}
    else:
        expect = {"exit": 0, "status": "PASS", "limit": {"a": c, "s": v}}
    return _query("converge", params, expect)


def _distinguish(rng: random.Random, differ: bool) -> dict:
    bound = rng.randint(6, 12)
    horizon = rng.randint(4, bound)
    mask1 = set(rng.sample(range(1, bound + 1), rng.randint(2, bound - 1)))
    inside = range(1, horizon + 1)
    if differ:
        flips = set(rng.sample(inside, rng.randint(1, min(3, horizon))))
        mask2 = mask1 ^ flips
        expect = {"exit": 0, "status": "DISTINCT",
                  "symmetric_difference": sorted(flips)}
    else:
        mask2 = set(mask1)
        beyond = range(horizon + 1, bound + 1)
        if beyond:
            mask2 ^= {rng.choice(beyond)}  # differs only past the horizon
        expect = {"exit": 2, "status": "UNDETERMINED"}
    params = {"weights": {"kind": "double_exp", "index_bound": bound},
              "mask1": sorted(mask1), "mask2": sorted(mask2),
              "horizon": horizon}
    return _query("distinguish", params, expect)


def _waptest(rng: random.Random, evens: bool) -> dict:
    horizon = 200
    if evens:
        function = {"tag": "sampled",
                    "values": [1 - n % 2 for n in range(1, horizon + 1)]}
        expect = {"exit": 1, "status": "NOT-WAP"}
    else:
        mod = {rng.randint(1, 40): f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"
               for _ in range(rng.randint(0, 6))}
        function = {"tag": "c0_plus_const",
                    "const": f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}",
                    "mod": [{"elem": e, "value": val}
                            for e, val in sorted(mod.items())]}
        expect = {"exit": 0, "status": "WAP-consistent"}
    params = {"function": function, "horizon": horizon, "count": 20}
    return _query("waptest", params, expect, seed=rng.randint(1, 10_000))


def _usage(rng: random.Random, variant: str) -> dict:
    """Inputs whose documented answer is exit 3, a usage error."""
    usage = {"exit": 3}
    if variant == "malformed-json":
        text = json.dumps({"topology": _topology("z", "double_exp", 5)})
        return {"kind": "member", "expect": usage,
                "argv": ["member", "--params", text[:rng.randint(1, len(text) - 1)]]}
    if variant == "missing-key":
        params = {"topology": _topology("z", "double_exp", 5),
                  "nbhd": {"a": 1, "s": 0, "alpha": 1},
                  "point": {"a": 0, "s": 4}}
        del params[rng.choice(sorted(params))]
        return _query("member", params, usage)
    if variant == "suite-param":
        return {"kind": "suite", "expect": usage,
                "argv": ["--suite", "gen-con-two", "--params",
                         json.dumps({"cases": "abc"})]}
    center = rng.randint(-50, 50)          # 3 = w3 = w1 + w2: two representations
    params = {"topology": {"base": "z",
                           "weights": {"kind": "explicit", "values": [1, 2, 3]}},
              "nbhd": {"a": 2, "s": center, "alpha": 1},
              "point": {"a": 1, "s": center + 3}}
    return _query("member", params, usage)


def generate(seed: int, count: int) -> list:
    """``count`` queries for ``seed``, each with its known answer."""
    rng = random.Random(f"semitop-query-mix:{seed}")
    # every kind gets its share exactly (at least one query), in seeded order
    kinds = [k for k, w in MIX for _ in range(max(1, round(w * count / 100)))]
    rng.shuffle(kinds)
    out = []
    for kind in kinds[:count]:
        family, _, variant = kind.partition("-")
        if family == "member":
            out.append(_member(rng, variant))
        elif family == "converge":
            out.append(_converge(rng, variant))
        elif family == "distinguish":
            out.append(_distinguish(rng, variant == "differ"))
        elif family == "waptest":
            out.append(_waptest(rng, variant == "evens"))
        else:
            out.append(_usage(rng, variant))
            out[-1]["kind"] = "usage"
        out[-1]["mix"] = kind
    return out

import dataclasses
import json
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semitop import jsonio
from semitop.dyadic import DyadicPoint
from semitop.jsonio import SuiteError, read_params
from semitop.l1 import BoundedFunction, L1Vector
from semitop.semigroups import (INF, REES_ZERO, CyclicGroup, NatInfinity,
                                NatMax, PartialMap, PartialMaps, ReesElement,
                                ReesMatrix, ZPlusTimesZ)
from semitop.topologies import (BasicNbhd, TopologyInstance, WeightSequence,
                                check_convergence)
from semitop.verdicts import passed
from semitop.wap import LimitFunctional

F = Fraction


def test_fraction_strings():
    assert jsonio.frac_to_str(F(3, 4)) == "3/4"
    assert jsonio.frac_to_str(F(-2)) == "-2"
    assert jsonio.frac_from("3/4") == F(3, 4)
    assert jsonio.frac_from(5) == F(5)
    with pytest.raises(TypeError):
        jsonio.frac_from(True)
    with pytest.raises(TypeError):
        jsonio.frac_from(0.5)


def test_int_encodings():
    big = 2 ** 200
    assert jsonio.int_from(jsonio.int_to_str(big)) == big
    assert jsonio.int_from(7) == 7
    with pytest.raises(TypeError):
        jsonio.int_from(True)
    with pytest.raises(TypeError):
        jsonio.int_from(1.0)
    for text in ("1e5", "1.0", "NaN", " 12", "1_000", "", "+", "0x10"):
        with pytest.raises(ValueError):
            jsonio.int_from(text)
    assert jsonio.int_from("-007") == -7 and jsonio.int_from("+5") == 5


def test_int_encodings_past_the_digit_limit():
    # w_16 = 2^65536 has 19729 decimal digits; Python's int <-> str
    # conversion refuses more than 4300 by default
    w16 = 2 ** (2 ** 16)
    text = jsonio.int_to_str(w16)
    assert len(text) == 19729 and text.endswith("6")
    assert jsonio.int_from(text) == w16
    assert jsonio.int_from(jsonio.int_to_str(-w16)) == -w16
    assert jsonio.to_jsonable(w16) == text


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int <-> str digit limit")
def test_codec_works_under_the_lowest_digit_limit():
    # the process-wide limit may be set as low as 640 digits; the codec
    # must still read and write every string the patterns accept
    rng = random.Random(640)
    numbers = [rng.getrandbits(b) for b in (2200, 2300, 130_000)]
    numbers += [10 ** 700, 10 ** 700 - 1, -(10 ** 2000 + 7)]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    texts = [str(n) for n in numbers]
    sys.set_int_max_str_digits(640)
    try:
        for n, text in zip(numbers, texts):
            assert jsonio.int_to_str(n) == text
            assert jsonio.int_from(text) == n
            if n > 0:
                assert jsonio.int_from("+000" + text) == n
                assert jsonio.int_from("-000" + text) == -n
    finally:
        sys.set_int_max_str_digits(old)


def test_decimal_digit_limit_covers_the_largest_weight():
    w16 = jsonio.int_to_str(2 ** 2 ** jsonio.MAX_INDEX_BOUND)
    assert 1.9 * len(w16) < jsonio.MAX_DECIMAL_DIGITS < 2.1 * len(w16)
    limit = "9" * jsonio.MAX_DECIMAL_DIGITS
    assert jsonio.int_from(limit) == 10 ** jsonio.MAX_DECIMAL_DIGITS - 1
    assert jsonio.int_from("-" + limit) == 1 - 10 ** jsonio.MAX_DECIMAL_DIGITS
    assert jsonio.frac_from(f"-{limit}/{limit}") == -1
    for text in ("9" + limit, f"{limit}9/1", f"1/9{limit}"):
        with pytest.raises(ValueError):
            jsonio.frac_from(text)
    with pytest.raises(ValueError):
        jsonio.int_from("9" + limit)


def test_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError):
        jsonio.frac_from("1/0")


def test_rationals_past_the_digit_limit():
    big = "1" + "0" * 5000
    assert jsonio.frac_from(f"{big}/{big}") == 1
    assert jsonio.frac_from(f"-{big}/3") == F(-10 ** 5000, 3)
    assert jsonio.frac_from(big) == 10 ** 5000
    assert jsonio.frac_to_str(F(-10 ** 5000, 3)) == f"-{big}/3"
    for text in ("1/-2", f"{big}/0", f"{big}.5", f" {big}"):
        with pytest.raises(ValueError):
            jsonio.frac_from(text)
    assert jsonio.frac_from("-3/4") == F(-3, 4)
    # only "p" and "p/q" are read: an exponent such as "1e10000000" would
    # otherwise build a huge integer before any bound is checked
    for text in (" 3/4 ", "1.5", "1e3", "1e10000000"):
        with pytest.raises(ValueError):
            jsonio.frac_from(text)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text() | st.integers().map(str),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=300)
@given(_JSON, st.integers(-50, 50), st.integers(0, 50))
def test_read_int_reads_in_range_or_raises_usage_error(j, lo, width):
    hi = lo + width
    try:
        v = jsonio.read_int(j, "key", lo, hi)
    except jsonio.SuiteError:
        return
    assert type(v) is int and lo <= v <= hi
    assert v == (j if isinstance(j, int) else int(j))



def test_read_params_reads_nested_objects():
    keys = {"n": (2, 1, 9), "p": (jsonio.REQUIRED, jsonio.s1_point_from_json),
            "xs": (None, jsonio.array_of(jsonio.int_from))}
    assert read_params({"p": {"a": 1, "s": "5"}}, keys) == {
        "n": 2, "p": (1, 5), "xs": None}
    assert read_params({"p": {"a": 0, "s": 0}, "n": "9", "xs": ["3", 4]},
                       keys) == {"n": 9, "p": (0, 0), "xs": [3, 4]}
    with pytest.raises(SuiteError, match="missing parameter 'p'"):
        read_params({"n": 3}, keys)
    with pytest.raises(SuiteError, match="missing parameter 's'"):
        read_params({"p": {"a": 1}}, keys)
    with pytest.raises(SuiteError, match="unknown parameter 'b'"):
        read_params({"p": {"a": 1, "s": 0, "b": 2}}, keys)
    with pytest.raises(SuiteError, match="JSON array"):
        read_params({"p": {"a": 1, "s": 0}, "xs": "34"}, keys)
    for not_an_object in ([], [["p", 1]], "p", 1, None):
        with pytest.raises(SuiteError, match="JSON object"):
            read_params(not_an_object, keys)


# A nested reader's error carries the keys it was read under, outermost
# first, and its message starts with them; an error at the top has none.
NESTED_ERRORS = [
    (jsonio.topology_from_json,
     {"base": "z", "weights": {"kind": "double_exp", "index_bound": 4},
      "mask": [1, 17]},
     ("mask",), "parameter 'mask entry' outside the safe range [1, 16]"),
    (jsonio.topology_from_json,
     {"base": "z", "weights": {"kind": "double_exp", "index_bound": 17}},
     ("weights",), "parameter 'index_bound' outside the safe range [1, 16]"),
    (jsonio.topology_from_json,
     {"base": "z", "weights": {"kind": "explicit", "values": "12"}},
     ("weights", "values"), "expected a JSON array"),
    (jsonio.bounded_function_from_json,
     {"tag": "c0_plus_const", "mod": [{"elem": 3}]},
     ("mod",), "missing parameter 'value'"),
    (jsonio.weights_from_json, {"kind": "double_exp", "values": [4, 16]},
     (), "unknown parameter 'values'; expected one of ['index_bound', 'kind']"),
]


@pytest.mark.parametrize("reader,doc,path,message", NESTED_ERRORS,
                         ids=["mask", "index_bound", "values", "mod-entry",
                              "top"])
def test_a_nested_error_names_its_path(reader, doc, path, message):
    with pytest.raises(SuiteError) as info:
        reader(doc)
    assert info.value.path == path
    assert str(info.value) == (f"{'.'.join(path)}: {message}" if path
                               else message)


@pytest.mark.parametrize("doc,message", [
    ({"index_bound": 4}, "missing parameter 'kind'"),
    ({"kind": "double", "index_bound": 4}, "parameter 'kind' must be one of"),
    ({"kind": ["explicit"], "values": [2]}, "parameter 'kind' must be one of"),
    ([["kind", "explicit"]], "expected a JSON object"),
    ({"kind": "double_exp"}, "missing parameter 'index_bound'"),
    ({"kind": "explicit"}, "missing parameter 'values'"),
])
def test_weights_table_follows_the_kind(doc, message):
    with pytest.raises(SuiteError, match=re.escape(message)):
        jsonio.weights_from_json(doc)


# A valid document for every reader of a JSON object in jsonio.  Each
# reader must refuse the document with one undeclared key added; a reader
# that reads its dict by hand, not through read_params, fails here, and a
# new reader without a document here fails too.
VALID_DOCS = {
    "bounded_function_from_json": {"tag": "sampled", "values": ["0", "1"]},
    "mod_entry_from_json": {"elem": 3, "value": "1/2"},
    "weights_from_json": {"kind": "double_exp", "index_bound": 4},
    "topology_from_json": {"base": "z", "mask": [1, 3],
                           "weights": {"kind": "double_exp", "index_bound": 4}},
    "s1_point_from_json": {"a": 1, "s": "2"},
    "nbhd_from_json": {"a": 1, "s": 2, "alpha": 1},
    "limit_functional_from_json": {"along": [2, 4], "horizon": 4},
}


@pytest.mark.parametrize("name", sorted(
    name for name, fn in vars(jsonio).items()
    if name.endswith("_from_json") and callable(fn)))
def test_every_reader_refuses_an_undeclared_key(name):
    reader = getattr(jsonio, name)
    doc = VALID_DOCS[name]
    reader(doc)
    with pytest.raises(SuiteError, match="unknown parameter 'extra'"):
        reader(dict(doc, extra=0))

@pytest.mark.parametrize("S,elem,doc", [
    (ZPlusTimesZ(), (0, 3), [0, 3]),
    (NatMax(), 6, 6),
    (NatInfinity(), INF, "INF"),
    (NatInfinity(), 5, 5),
    (ReesMatrix(CyclicGroup(3), 2, 2, [[1, 2], [0, 1]]), REES_ZERO, "0"),
    (ReesMatrix(CyclicGroup(3), 2, 2, [[1, 2], [0, 1]]),
     ReesElement(1, 1, 2), {"entry": "1", "row": 1, "col": 2}),
    (PartialMaps(), PartialMap([(1, 2)]), {"pairs": [[1, 2]]}),
])
def test_element_round_trip(S, elem, doc):
    S.validate(elem)
    assert jsonio.to_jsonable(elem) == doc


def test_l1vector_round_trip():
    S = NatMax()
    a = L1Vector(S, [(2, F(1, 3)), (10, F(-4))])
    doc = jsonio.to_jsonable(a)
    assert doc == {"terms": [{"elem": 10, "coeff": "-4"},
                             {"elem": 2, "coeff": "1/3"}]}


def test_bounded_function_round_trip():
    f = BoundedFunction.c0_plus_const({5: F(1, 2)}, F(-3))
    doc = jsonio.bounded_function_to_json(f)
    assert jsonio.bounded_function_from_json(doc) == f
    g = BoundedFunction.sampled([F(0), F(1, 7)])
    doc2 = jsonio.bounded_function_to_json(g)
    assert doc2["values"] == ["0", "1/7"]
    assert jsonio.bounded_function_from_json(doc2) == g


def test_bounded_function_defaults():
    f = jsonio.bounded_function_from_json({"tag": "c0_plus_const"})
    assert f.const == 0 and not f.mod


def test_weights_round_trip():
    for doc, w3 in (({"kind": "double_exp", "index_bound": 6}, 256),
                    ({"kind": "odd_primes", "index_bound": 9}, 7)):
        w = jsonio.weights_from_json(doc)
        assert (w.kind, w.index_bound, w.value(3)) == (
            doc["kind"], doc["index_bound"], w3)
    huge = 2 ** 100
    doc = {"kind": "explicit", "values": ["2", "8", jsonio.int_to_str(huge)]}
    w = jsonio.weights_from_json(doc)
    assert w.value(3) == huge
    assert (w.index_bound, w.values) == (3, (2, 8, huge))


def test_explicit_weights_rejected_past_bounds():
    values = [2 ** i for i in range(17)]
    w = jsonio.weights_from_json({"kind": "explicit", "values": values[:16]})
    assert w.index_bound == 16
    # counted before any entry is read, so the message names the count
    for bad in ([], values, ["not a weight"] * 17):
        with pytest.raises(SuiteError) as info:
            jsonio.weights_from_json({"kind": "explicit", "values": bad})
        assert str(info.value) == ("values: expected 1 to 16 entries, "
                                   f"got {len(bad)}")


def test_topology_round_trip():
    doc = {"base": "z", "weights": {"kind": "double_exp", "index_bound": 6},
           "mask": [1, 3, 5]}
    T = jsonio.topology_from_json(doc)
    assert (T.base, T.weights.index_bound, list(T.mask)) == ("z", 6, [1, 3, 5])
    full = jsonio.topology_from_json(
        {"base": "odd_nat", "weights": {"kind": "odd_primes", "index_bound": 4}})
    assert list(full.mask) == [1, 2, 3, 4]


def test_point_and_nbhd_round_trip():
    p = jsonio.s1_point_from_json({"a": 2, "s": "3"})
    assert p == (2, 3)
    assert jsonio.s1_point_to_json(p) == {"a": 2, "s": 3}
    # no base has vector coordinates, so a list-valued s is not read, and
    # the reader's TypeError comes back as a usage error on the key s
    with pytest.raises(SuiteError, match="^s: .* is not an integer encoding"):
        jsonio.s1_point_from_json({"a": 1, "s": [0, 3]})
    n = jsonio.nbhd_from_json({"a": 2, "s": 3, "alpha": "4"})
    assert (n.a, n.s, n.alpha) == (2, 3, 4)
    assert jsonio.to_jsonable(n) == {"a": 2, "s": 3, "alpha": 4}
    # s past 2^53 is a decimal string, also past the int <-> str digit limit
    w14 = 2 ** 16384
    text = jsonio.int_to_str(w14)
    assert jsonio.s1_point_to_json((1, w14)) == {"a": 1, "s": text}
    assert jsonio.s1_point_to_json((1, -2 ** 53)) == {"a": 1,
                                                      "s": str(-2 ** 53)}
    assert jsonio.to_jsonable(BasicNbhd(1, w14, 2)) == {"a": 1, "s": text,
                                                        "alpha": 2}


def test_certificate_round_trip():
    T = TopologyInstance("z", WeightSequence.double_exp(6))
    w = T.weights
    seq = [(1, w.value(j)) for j in range(2, 7)]
    cert = check_convergence(T, seq, (2, 0), 3).witness
    doc = jsonio.certificate_to_json(cert)
    json.dumps(doc)
    assert cert.revalidate(T, seq)


def test_dyadic_point_round_trip():
    p = DyadicPoint((1, 3))
    doc = jsonio.dyadic_point_to_json(p)
    assert doc == {"exponents": [1, 3], "value": "5/8"}


def test_limit_functional_round_trip():
    phi = LimitFunctional.evens(10)
    doc = jsonio.to_jsonable(phi)
    assert doc == {"along": [2, 4, 6, 8, 10], "horizon": 10}
    assert jsonio.limit_functional_from_json(doc) == phi


@pytest.mark.parametrize("phi", [
    LimitFunctional.evens(10), LimitFunctional.odds(200),
    LimitFunctional((3, 7, 2 ** 40), 2 ** 53 - 1),
    LimitFunctional((1, 3), 2 ** 60),
    LimitFunctional((5, 2 ** 53), 2 ** 53)])
def test_a_limit_functional_is_written_as_a_dataclass(phi):
    # the direct writer against the generic dataclass conversion; a
    # horizon or index of 2**53 or more is a decimal string
    generic = {f.name: jsonio.to_jsonable(getattr(phi, f.name))
               for f in dataclasses.fields(phi)}
    assert jsonio.to_jsonable(phi) == generic
    assert jsonio.limit_functional_to_json(phi) == generic
    assert jsonio.limit_functional_from_json(json.loads(json.dumps(generic))) == phi


def test_to_jsonable():
    out = jsonio.to_jsonable({
        "frac": F(1, 2),
        "big": 2 ** 60,
        "small": 17,
        "inf": INF,
        "verdict": passed(witness={"n": 1}, detail="ok"),
        "set": {3, 1, 2},
        "map": PartialMap([(1, 2)]),
    })
    assert out["frac"] == "1/2"
    assert out["big"] == str(2 ** 60)
    assert out["small"] == 17
    assert out["inf"] == "INF"
    assert out["verdict"]["status"] == "PASS"
    assert out["set"] == [1, 2, 3]
    assert out["map"] == {"pairs": [[1, 2]]}
    json.dumps(out)


def test_to_jsonable_rejects_floats():
    with pytest.raises(TypeError):
        jsonio.to_jsonable({"x": 0.25})

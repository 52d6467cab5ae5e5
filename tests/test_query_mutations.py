"""Mutated query payloads end in the exit-code contract, never a traceback.

The seeded queries of the query-mix benchmark (``perfbench/querygen.py``,
loaded from its file and left untouched) each have one node of their
``--params`` JSON replaced by a hostile value: the wrong type, a value out
of range, or an integer far too large.  Four values per query make about
1,200 mutations.  Every mutated query must return an exit code of 0-3
from ``cli.main`` and raise nothing.
"""

import contextlib
import importlib.util
import io
import json
import random
from pathlib import Path

import pytest

from semitop import cli

_QUERYGEN = Path(__file__).resolve().parents[1] / "perfbench" / "querygen.py"

VALUES = [None, True, -1, 0, "x", [], {}, 1.5, 10**6, "1/0", 2**70]


def _queries() -> list:
    spec = importlib.util.spec_from_file_location("querygen", _QUERYGEN)
    querygen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(querygen)
    return querygen.generate(0, 300)


QUERIES = _queries()


def _paths(node, path=()):
    """The path of every node of a JSON document, the root included."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = dict(doc) if isinstance(doc, dict) else list(doc)
    doc[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return doc


def _mutations(value_index: int):
    """Query i takes the values 4i .. 4i+3 of the list, cyclically, each at
    one seeded node of its params; this yields the queries for one value."""
    rng = random.Random(f"query-mutations:{value_index}")
    for i, q in enumerate(QUERIES):
        if (value_index - 4 * i) % len(VALUES) >= 4:
            continue
        argv = list(q["argv"])
        at = argv.index("--params") + 1
        try:
            params = json.loads(argv[at])
        except ValueError:          # the malformed-JSON usage queries
            continue
        path = rng.choice(list(_paths(params)))
        argv[at] = json.dumps(_replaced(params, path, VALUES[value_index]))
        yield argv


@pytest.mark.parametrize("value_index", range(len(VALUES)),
                         ids=[repr(v) for v in VALUES])
def test_mutated_queries_keep_the_exit_contract(value_index):
    escapes = []
    for argv in _mutations(value_index):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # any escape fails
                escapes.append((argv, repr(exc)))
                continue
        if code not in (0, 1, 2, 3):
            escapes.append((argv, code))
    assert not escapes, escapes[:3]

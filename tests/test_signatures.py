"""The defaulted parameters of the public API, and the part of it that
nothing in the package calls, pinned by name.

Every default is one more configuration to reason about and to test, and
every export that only tests call is code to maintain for no caller, so
adding or removing either must show up here as a deliberate edit.
"""

import ast
import inspect
import re
from pathlib import Path

import semitop
from semitop import verdicts

# Exported functions, classes (their constructors) and the public methods
# of exported classes that take a default, with the defaulted names.
PINNED = {
    "BoundedFunction.c0_plus_const": ("mod", "const"),
    "DyadicPoint": ("exponents",),
    "L1Vector": ("coeffs",),
    "L1Vector.delta": ("coeff",),
    "PartialMap": ("mapping",),
    "TopologyInstance": ("mask",),
    "Verdict": ("witness", "detail"),
    "failed": ("witness", "detail"),
    "passed": ("witness", "detail"),
    "run_suite": ("params",),
    "verify_star_star": ("s_window",),
}


# Exports that no module under src/ calls, the package's __init__.py
# aside, each with the reason it stays.
UNCALLED = set()


def _defaulted(fn) -> tuple:
    return tuple(p.name for p in inspect.signature(fn).parameters.values()
                 if p.default is not inspect.Parameter.empty)


def _public_callables():
    for name, obj in sorted(vars(semitop).items()):
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            yield name, obj
            for attr, member in sorted(vars(obj).items()):
                fn = getattr(member, "__func__", member)
                if not attr.startswith("_") and inspect.isfunction(fn):
                    yield f"{name}.{attr}", fn


def test_defaulted_parameters_are_pinned():
    found = {name: _defaulted(fn) for name, fn in _public_callables()}
    assert {k: v for k, v in found.items() if v} == PINNED


def test_scan_reaches_the_public_api():
    names = {name for name, _ in _public_callables()}
    assert {"TopologyInstance.member", "TopologyInstance.basic_points",
            "WeightSequence.explicit", "interval_identity_sweep", "open_set_identity_sweep",
            "is_weakly_cancellative_window", "undetermined"} <= names


def _src_trees():
    for path in sorted(Path(semitop.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            yield ast.parse(path.read_text(encoding="utf-8"))


def _uses(node, cls=None, method=None):
    """(identifier, receiver, class, method) for each name and attribute
    under ``node``.  The receiver of an attribute is the bare name it is
    read from, or "" for any other expression; a name has receiver None.
    Class and method are the class body and the method of it that the use
    sits in."""
    if isinstance(node, ast.ClassDef):
        cls, method = node.name, None
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        if cls is not None and method is None:
            method = node.name
    elif isinstance(node, ast.Name):
        yield node.id, None, cls, method
    elif isinstance(node, ast.Attribute):
        receiver = node.value.id if isinstance(node.value, ast.Name) else ""
        yield node.attr, receiver, cls, method
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, cls, method)


def _uncalled_exports() -> set:
    """Exports that no use under src/ reaches.  A function or class counts
    as called when its name is used anywhere.  A method Cls.m counts when
    some attribute read .m comes neither from another class defined in
    src/ (``ReesElement.zero()`` is not ``L1Vector.zero``) nor from inside
    Cls's body, except from a public method of Cls that counts itself."""
    trees = list(_src_trees())
    others = {node.name for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef)}
    uses = [use for tree in trees for use in _uses(tree)]
    names = {name for name, _ in _public_callables()}
    used = {ident for ident, _, _, _ in uses}
    called = {name for name in names if "." not in name and name in used}
    grew = True
    while grew:
        grew = False
        for name in sorted(names - called):
            if "." not in name:
                continue
            owner, attr = name.split(".")
            for ident, receiver, cls, method in uses:
                if (ident != attr or receiver is None
                        or receiver in others - {owner}):
                    continue
                if cls == owner and (method is None or method.startswith("_")
                                     or f"{owner}.{method}" not in called):
                    continue
                called.add(name)
                grew = True
                break
    return names - called


def test_exports_nothing_under_src_calls_are_pinned():
    assert _uncalled_exports() == UNCALLED


def test_no_module_raises_arithmetic_error():
    # a self-check that disagrees returns a FAIL verdict with the
    # quantities that disagree; a raise escapes the CLI as a traceback
    raised = set()
    for path in Path(semitop.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ArithmeticError":
                    raised.add(path.name)
    assert not raised


def test_only_wap_imports_random():
    # the one seeded draw is wap.py's subsequence_pair_family, behind
    # waptest's --seed; a suite runs declared families, and a sampler
    # anywhere else makes a library result hang on a seed of its own
    importers = set()
    for path in sorted(Path(semitop.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "random" for m in modules):
                importers.add(path.name)
    assert importers == {"wap.py"}


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_oracles_stay_out_of_src():
    # a brute-force oracle is what a test holds a production path to; a
    # module under src/ that defines one, at any depth, or imports one
    # runs a second path
    oracles = {node.name for node in ast.parse(
        (Path(__file__).parent / "oracles.py").read_text(encoding="utf-8")
    ).body if isinstance(node, _DEFS)}
    assert {"member_bruteforce", "open_set_identity", "o_member",
            "OpenSetSpec"} <= oracles
    stray = []
    for path in sorted(Path(semitop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names
                    for name in (alias.name, alias.asname)}
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, _DEFS)}
        stray += [f"{path.name}: {name}"
                  for name in sorted((defined | imported) & oracles)]
    assert not stray


STATUSES = ("PASS", "FAIL", "UNDETERMINED", "NOT_APPLICABLE")


def _status_argument(call):
    if call.args:
        return call.args[0]
    return next((kw.value for kw in call.keywords if kw.arg == "status"), None)


def test_verdicts_have_four_statuses():
    # every verdict is PASS, FAIL, UNDETERMINED or NOT_APPLICABLE; a second
    # name for one of them would read as falsy where it means yes, or need
    # an exit code of its own
    assert {k: v for k, v in vars(verdicts).items()
            if k.isupper() and isinstance(v, str)} == {s: s for s in STATUSES}
    stray = []
    for path in sorted(Path(semitop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "Verdict"):
                continue
            # a status constant, or the status of a verdict being relayed
            arg = _status_argument(node)
            if not (isinstance(arg, ast.Name) and arg.id in STATUSES
                    or isinstance(arg, ast.Attribute) and arg.attr == "status"):
                stray.append(f"{path.name}:{node.lineno}")
    assert not stray


def test_retired_status_names_are_cli_answers_only():
    # the distinguish and waptest commands still answer in these words
    retired = re.compile(r"(?<![\w-])(FOUND|NOT_FOUND_AT_HORIZON|VACUOUS|"
                         r"DISTINCT|WAP-consistent|NOT-WAP)(?![\w-])")
    seen = sorted((path.name, m) for path in Path(semitop.__file__).parent
                  .glob("*.py")
                  for m in retired.findall(path.read_text(encoding="utf-8")))
    assert seen == [("cli.py", "DISTINCT"), ("cli.py", "NOT-WAP"),
                    ("cli.py", "WAP-consistent")]


def _int_calls(tree) -> set:
    return {node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "int"}


def test_only_the_json_codec_calls_int():
    # int() truncates a float, reads a bool as 0 or 1 and parses a string;
    # an integer argument goes through semigroups.positive_int instead, and
    # only the codec that reads and writes decimal strings may call int
    codec = {("jsonio", "int_from"), ("jsonio", "int_to_str")}
    stray = []
    for path in sorted(Path(semitop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = _int_calls(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef)
                    and (path.stem, node.name) in codec):
                calls -= _int_calls(node)
        stray += [f"{path.name}:{call.lineno}" for call in calls]
    assert not stray



def test_no_isinstance_bool_exclusion():
    # one integer rule: an exact int is `type(x) is int`, which refuses a
    # bool and every other int subclass, where isinstance(x, int) with a
    # bool excluded lets an IntEnum member through
    found = []
    for path in sorted(Path(semitop.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and len(node.args) == 2
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"):
                continue
            types = node.args[1]
            names = types.elts if isinstance(types, ast.Tuple) else [types]
            if any(isinstance(n, ast.Name) and n.id == "bool" for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found

def test_only_topologies_reads_the_base_name():
    # the arithmetic of S (identity, law, division, membership) belongs to
    # TopologyInstance; a caller that branches on the base's name decides
    # a fact of S a second time
    reads = []
    for path in sorted(Path(semitop.__file__).parent.glob("*.py")):
        if path.name == "topologies.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "base"]
    assert not reads


def _instance_classes(cls=semitop.SemigroupInstance):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("semitop."):
            yield sub
            yield from _instance_classes(sub)


def test_instances_declare_only_their_law():
    # product validates both operands once, in the base class; an instance
    # that overrode it would bring back its own copy of that check
    classes = set(_instance_classes())
    assert {cls.__name__ for cls in classes} >= {
        "ZPlusK", "FreeWords", "NatMul", "NatMax", "NatInfinity",
        "ZPlusTimesZ", "ReesMatrix", "PartialMaps"}
    assert not [cls for cls in classes if "product" in vars(cls)]
    assert not [cls for cls in classes
                if not cls.__name__.startswith("_") and "op" not in vars(cls)]

"""No public name in the runtime package is reached only by the tests.

The product is the ``mcflow`` command; a public function, class or method
that no code in ``src/mcflow`` names is surface that only tests keep
alive.  The rule is syntactic: a definition counts as used when a ``Name``
or ``Attribute`` node outside its own body carries its name.  Attributes
match by name alone, whatever object they are read from, so a method whose
name another class also defines could pass on the other class's use: such
methods must also run while the CLI serves a set of covering requests.
A private top-level function or class that no runtime code names outside
its own body is a leftover of deleted code, and fails the same way, as does
a parameter that its function or lambda never reads.
"""

import ast
import contextlib
import io
import sys
from collections import Counter, defaultdict
from pathlib import Path

from mcflow import systems
from mcflow.cli import main

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mcflow"


def _referenced(tree) -> Counter:
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def _public_definitions(tree):
    """(qualified name, node) of each top-level public function and class
    and of each public method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _private_definitions(tree):
    """(name, node) of each top-level private function and class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_") \
                and not node.name.endswith("__"):
            yield node.name, node


def _unreferenced(definitions=_public_definitions) -> set:
    """module.qualname of each of the definitions that no runtime code
    names outside its own body."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    everywhere = sum((_referenced(tree) for tree in trees.values()), Counter())
    unused = set()
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            if everywhere[node.name] - _referenced(node)[node.name] == 0:
                unused.add(f"{module}.{qualname}")
    return unused


def test_every_public_name_is_reached_by_runtime_code():
    assert sorted(_unreferenced()) == []


def test_every_private_helper_is_named_by_runtime_code():
    assert sorted(_unreferenced(_private_definitions)) == []


def _parameters(node) -> list:
    a = node.args
    return [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
            if p is not None]


def test_every_parameter_is_read():
    # dunder methods keep the signature of their protocol
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            if name.startswith("__") and name.endswith("__"):
                continue
            body = node.body if isinstance(node, ast.FunctionDef) else [node.body]
            read = {n.id for statement in body for n in ast.walk(statement)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.stem}.{name} (line {node.lineno}): {parameter}"
                       for parameter in _parameters(node) if parameter not in read]
    assert unread == []


def _fields(cls):
    """The names in the class's __slots__ and the attributes that its
    __init__ assigns on self."""
    for item in cls.body:
        if isinstance(item, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
        ):
            yield from ast.literal_eval(item.value)
        elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
            yield from (node.attr for node in ast.walk(item)
                        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self")


def test_every_record_field_is_read():
    # a field counts as read when any attribute load in src/mcflow carries
    # its name, whatever object it is read from
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted({f"{cls.name}.{field}" for tree in trees for cls in ast.walk(tree)
                     if isinstance(cls, ast.ClassDef) for field in _fields(cls)
                     if field not in read})
    assert unread == []


# The one normalisation policy: a rational function is reduced only by the
# RationalFunction constructor and the helpers of algebra.py behind it.
NORMALISERS = {"poly_gcd", "_normalize", "_raw"}


def test_only_algebra_normalises_rational_functions():
    named = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "algebra.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        hits = NORMALISERS & (imported | _referenced(tree).keys())
        if hits:
            named[path.stem] = sorted(hits)
    assert named == {}


# every built-in under every command, plus a sigma candidate
REQUESTS = [
    [command, system]
    for system in ("guillot", "dh_classic", "dh_symmetric", "heisenberg_example")
    for command in ("verify", "derive", "sample", "integrate")
] + [["verify", "guillot", "--rho=x + 1", "--f=y"]]


def _shared_methods() -> set:
    """module.Class.method for each public method of a top-level class whose
    name a public method of another class also carries."""
    owners = defaultdict(set)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualname, node in _public_definitions(tree):
            if "." in qualname:
                owners[node.name].add(f"{path.stem}.{qualname}")
    return {name for names in owners.values() if len(names) > 1 for name in names}


def _methods_run() -> set:
    """module.qualname of every function of src/mcflow that runs while the
    CLI serves REQUESTS."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_qualname))

    # a cached frame would skip the code that builds it
    systems.builtin.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in REQUESTS:
                main(argv)
    finally:
        sys.setprofile(previous)
    return {f"{Path(filename).stem}.{qualname}" for filename, qualname in seen
            if Path(filename).resolve().parent == PACKAGE}


def test_every_shared_method_name_runs():
    assert sorted(_shared_methods() - _methods_run()) == []

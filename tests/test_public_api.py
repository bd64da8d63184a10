"""No public name in the runtime package is reached only by the tests.

The product is the ``mcflow`` command; a public function, class or method
that no code in ``src/mcflow`` names is surface that only tests keep
alive.  The rule is syntactic: a definition counts as used when a ``Name``
or ``Attribute`` node outside its own body carries its name.  Attributes
match by name alone, whatever object they are read from, so a method whose
name another class also defines could pass on the other class's use: such
methods must also run while the CLI serves a set of covering requests.
A private top-level function or class that no runtime code names outside
its own body is a leftover of deleted code, and fails the same way.
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

# public names that no runtime code reaches, each kept for a stated reason
KEPT = {
    "numeric.convergence_order": "acceptance criterion 11 asserts the observed RK4 order",
    "algebra.Point3.exact": "exact reference evaluation at rational points in the tests",
    "parser.SystemSpec.integral": "acceptance criteria 4 and 11 look declared integrals up by name",
}


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
    assert sorted(_unreferenced() - KEPT.keys()) == []


def test_every_private_helper_is_named_by_runtime_code():
    assert sorted(_unreferenced(_private_definitions)) == []


def test_every_kept_name_is_still_unreferenced():
    # a kept name that runtime code now reaches no longer needs its entry
    assert sorted(KEPT.keys() - _unreferenced()) == []


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
    assert sorted(_shared_methods() - _methods_run() - KEPT.keys()) == []

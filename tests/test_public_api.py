"""No public name in the runtime package is reached only by the tests.

The product is the ``mcflow`` command; a public function, class or method
that no code in ``src/mcflow`` names is surface that only tests keep
alive.  The rule is syntactic: a definition counts as used when a ``Name``
or ``Attribute`` node outside its own body carries its name.  Attributes
match by name alone, whatever object they are read from.
"""

import ast
from collections import Counter
from pathlib import Path

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


def _unreferenced() -> set:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    everywhere = sum((_referenced(tree) for tree in trees.values()), Counter())
    unused = set()
    for module, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            if everywhere[node.name] - _referenced(node)[node.name] == 0:
                unused.add(f"{module}.{qualname}")
    return unused


def test_every_public_name_is_reached_by_runtime_code():
    assert sorted(_unreferenced() - KEPT.keys()) == []


def test_every_kept_name_is_still_unreferenced():
    # a kept name that runtime code now reaches no longer needs its entry
    assert sorted(KEPT.keys() - _unreferenced()) == []

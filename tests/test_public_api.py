"""No public name in the runtime package is reached only by the tests.

The product is the ``mcflow`` command; a public function, class or method
that no code in ``src/mcflow`` names is surface that only tests keep
alive.  The rule is syntactic: a function or class counts as used when a
``Name`` or ``Attribute`` node outside its own body carries its name, and a
method only when an ``Attribute`` node does (a local variable or a parameter
that shares a method's name is not a call of it).  Attributes
match by name alone, whatever object they are read from, so a method whose
name another class also defines could pass on the other class's use: every
function and method must also run while the CLI serves a set of covering
requests.
A private top-level function or class that no runtime code names outside
its own body is a leftover of deleted code, and fails the same way, as does
a parameter that its function or lambda never reads.
"""

import ast
import builtins
import contextlib
import functools
import importlib
import inspect
import io
import sys
import typing
from collections import Counter, defaultdict
from pathlib import Path

from mcflow import algebra, systems
from mcflow.cli import main

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mcflow"


def _referenced(tree, attributes_only=False) -> Counter:
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not attributes_only:
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
    everywhere = {method: sum((_referenced(tree, method) for tree in trees.values()), Counter())
                  for method in (False, True)}
    unused = set()
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            method = "." in qualname
            if everywhere[method][node.name] - _referenced(node, method)[node.name] == 0:
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


def _slots(cls) -> set:
    return {name for item in cls.body if isinstance(item, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets)
            for name in ast.literal_eval(item.value)}


def _fields(cls):
    """The names in the class's __slots__ and the attributes that its
    __init__ assigns on self."""
    yield from _slots(cls)
    for item in cls.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
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


def _is_alias_constructor(node) -> bool:
    """A classmethod whose body, after its docstring, is one
    ``return cls(...)``: another spelling of the class's own constructor."""
    if not any(isinstance(d, ast.Name) and d.id == "classmethod" for d in node.decorator_list):
        return False
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    return (len(body) == 1 and isinstance(body[0], ast.Return)
            and isinstance(body[0].value, ast.Call)
            and isinstance(body[0].value.func, ast.Name) and body[0].value.func.id == "cls")


def test_no_classmethod_only_renames_the_constructor():
    aliases = [f"{path.stem}.{cls.name}.{item.name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for cls in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(cls, ast.ClassDef)
               for item in cls.body
               if isinstance(item, ast.FunctionDef) and _is_alias_constructor(item)]
    assert aliases == []


def _scoped_nodes(node, scope=""):
    """(qualified name of the innermost enclosing class or function, node)
    of each node below node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield inner, child
        yield from _scoped_nodes(child, inner)


def test_only_the_trusted_rational_constructor_skips_init():
    # every class builds its values through __init__; RationalFunction._raw,
    # the trusted twin of the normalising constructor, is the one exception
    skips = {f"{path.stem}.{scope}"
             for path in sorted(PACKAGE.glob("*.py"))
             for scope, node in _scoped_nodes(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "__new__"}
    assert sorted(skips - {"algebra.RationalFunction._raw"}) == []


# algebra.py keeps each content, and each constant, as an integer pair: a
# Fraction is built only where an exact value goes out to a library caller;
# printing, constant_value() and compose read the pairs
FRACTION_BOUNDARY = {"Poly3.eval"}


def _annotations(node) -> list:
    """The annotations of a function's parameters and return, or of an
    annotated assignment."""
    if isinstance(node, ast.FunctionDef):
        a = node.args
        parts = [node.returns] + [p.annotation for p in (*a.posonlyargs, *a.args, a.vararg,
                                                          *a.kwonlyargs, a.kwarg) if p]
    elif isinstance(node, ast.AnnAssign):
        parts = [node.annotation]
    else:
        parts = []
    return [part for part in parts if part is not None]


def _types_only(tree):
    """id of each node in an annotation or in the type argument of an
    isinstance call: a name there builds and computes nothing."""
    for node in ast.walk(tree):
        parts = _annotations(node)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance" and len(node.args) == 2:
            parts = [node.args[1]]
        yield from (id(n) for part in parts for n in ast.walk(part))


def _type_checking_only(tree) -> set:
    """id of each node under an ``if TYPE_CHECKING:``, which never runs."""
    return {id(n) for node in ast.walk(tree)
            if isinstance(node, ast.If) and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING"
            for statement in node.body for n in ast.walk(statement)}


def test_algebra_builds_fractions_only_at_its_boundary():
    tree = ast.parse((PACKAGE / "algebra.py").read_text(encoding="utf-8"))
    exempt = set(_types_only(tree))
    outside = sorted(f"{scope or '<module>'} (line {node.lineno})"
                     for scope, node in _scoped_nodes(tree)
                     if isinstance(node, ast.Name) and node.id == "Fraction"
                     and id(node) not in exempt and scope not in FRACTION_BOUNDARY)
    assert outside == []


# the only places that import fractions, each inside the function that
# hands a Fraction out (or, for --from, reads one in); no module imports it
# when it is loaded
FRACTION_IMPORTS = {"algebra.Poly3.eval", "cli._parse_triple"}


def test_fractions_is_imported_only_at_the_boundary():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        static = _type_checking_only(tree)
        for scope, node in _scoped_nodes(tree):
            if id(node) in static:
                continue
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "fractions" in names:
                found.add(f"{path.stem}.{scope or '<module>'}")
    assert sorted(found) == sorted(FRACTION_IMPORTS)


def _module_bindings(body):
    """Each name that the statements bind at module level, in any branch
    of an if or a try: imports, functions, classes and assignment targets."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((alias.asname or alias.name).partition(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for target in targets for n in ast.walk(target)
                        if isinstance(n, ast.Name))
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse, getattr(node, "finalbody", []),
                          *(handler.body for handler in getattr(node, "handlers", []))):
                yield from _module_bindings(block)


def test_every_annotation_name_is_bound():
    # a static checker resolves each name of an annotation, quoted or not,
    # in the module's top-level bindings (type-checking imports included) or
    # in the builtins
    unbound = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set(_module_bindings(tree.body)) | set(dir(builtins))
        for node in ast.walk(tree):
            for annotation in _annotations(node):
                for part in ast.walk(annotation):
                    if isinstance(part, ast.Constant) and isinstance(part.value, str):
                        names = [n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                                 if isinstance(n, ast.Name)]
                    else:
                        names = [part.id] if isinstance(part, ast.Name) else []
                    unbound += [f"{path.stem} (line {annotation.lineno}): {name}"
                                for name in names if name not in bound]
    assert unbound == []


def _package_functions():
    """(module.qualname, function) of each function, method, class method
    and property getter that a module of the package defines."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(
            "mcflow" if path.stem == "__init__" else f"mcflow.{path.stem}")
        scopes = [(path.stem, vars(module))] + [
            (f"{path.stem}.{name}", vars(value)) for name, value in vars(module).items()
            if inspect.isclass(value) and value.__module__ == module.__name__]
        for prefix, namespace in scopes:
            for name, value in namespace.items():
                value = getattr(value, "__func__", getattr(value, "fget", value))
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    yield f"{prefix}.{name}", value


def test_every_annotation_resolves_at_run_time():
    # typing.get_type_hints evaluates each annotation in its module's
    # namespace, so a name bound only for static checkers raises NameError
    unresolved = []
    for qualname, function in _package_functions():
        try:
            typing.get_type_hints(function)
        except NameError as exc:
            unresolved.append(f"{qualname}: {exc}")
    assert unresolved == []


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


# every built-in under every command; sigma candidates, one of which reaches
# the PRS; each option converter; and the error paths that a request can reach
REQUESTS = [
    [command, system]
    for system in ("guillot", "dh_classic", "dh_symmetric", "heisenberg_example")
    for command in ("verify", "derive", "sample", "integrate")
] + [
    ["verify", "guillot", "--rho=x + 1", "--f=y"],
    ["verify", "guillot", "--rho=x*z - y^2", "--f=y/(x + z)"],
    ["sample", "dh_symmetric", "--rho=x - 2", "--f=y", "--check=sigma.integrability",
     "--points=3", "--seed=1", "--box=-2,2", "--tol=1e-9"],
    ["verify", "guillot", "--rho=(x/y)^2"],  # the parser raises a quotient to a power
    ["verify", "guillot", "--rho=x^20000"],  # exit 2: the degree limit
    ["integrate", "guillot", "--t=5", "--h=0.01"],  # exit 3: aborted at t = 0.51
    ["integrate", "guillot", "--eps=-1", "--from=1,1,1"],  # exit 3: a log argument vanishes
]
# what no in-process request can enter: the comparison and printing that
# pytest's assertions read, and the console entry, which ends the process
UNREACHED_NAMES = {"__eq__", "__str__", "__repr__"}
UNREACHED = {"cli.console_main"}


def _functions(node, prefix=""):
    """The code object qualname of each function and method below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.FunctionDef):
            yield f"{prefix}{child.name}"
            yield from _functions(child, f"{prefix}{child.name}.<locals>.")
        else:
            yield from _functions(child, prefix)


@functools.cache
def _functions_run() -> frozenset:
    """module.qualname of every function of src/mcflow that runs while the
    CLI serves REQUESTS."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_qualname))

    # a cached frame, spec or gcd, or a learned factor, left by another test,
    # would skip the code that computes it
    systems.builtin.cache_clear()
    systems._shipped_spec.cache_clear()
    algebra._gcd_memo.clear()
    algebra._factor_base.clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in REQUESTS:
                main(argv)
    finally:
        sys.setprofile(previous)
    return frozenset(f"{Path(filename).stem}.{qualname}" for filename, qualname in seen
                     if Path(filename).resolve().parent == PACKAGE)


def test_every_function_runs_while_the_cli_serves_requests():
    defined = {f"{path.stem}.{qualname}" for path in sorted(PACKAGE.glob("*.py"))
               for qualname in _functions(ast.parse(path.read_text(encoding="utf-8")))}
    unreached = {name for name in defined - _functions_run()
                 if name.rsplit(".", 1)[1] not in UNREACHED_NAMES}
    assert sorted(unreached) == sorted(UNREACHED)


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


def test_every_shared_method_name_runs():
    # the public-name guard matches attributes by name alone, so it cannot
    # tell these methods apart
    assert sorted(_shared_methods() - _functions_run()) == []


def test_every_operator_method_runs():
    defined = {f"{path.stem}.{cls.name}.{item.name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(cls, ast.ClassDef)
               for item in cls.body
               if isinstance(item, ast.FunctionDef) and item.name.startswith("__")
               and item.name.endswith("__") and item.name not in UNREACHED_NAMES}
    assert sorted(defined - _functions_run()) == []


def _attribute_writes(function):
    """(attribute name or None, line) of each attribute that the function
    stores or deletes, or sets or deletes through setattr/delattr; None
    stands for a name that is not a literal."""
    for node in ast.walk(function):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("setattr", "delattr") and len(node.args) >= 2:
            name = node.args[1]
            literal = isinstance(name, ast.Constant) and isinstance(name.value, str)
            yield (name.value if literal else None), node.lineno


def test_no_code_assigns_a_record_field_after_construction():
    # records hold no runtime freeze: outside an __init__, no function stores
    # to or deletes an attribute named like a field of a Record subclass
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    fields = {name for tree in trees.values() for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef)
              and any(isinstance(b, ast.Name) and b.id == "Record" for b in cls.bases)
              for name in _slots(cls)}
    assert fields

    writes = []

    def visit(node, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name != "__init__":
                    writes.extend(
                        f"{module}:{line} {name}" for name, line in _attribute_writes(child)
                        if name is None or name in fields)
            else:
                visit(child, module)

    for module, tree in trees.items():
        visit(tree, module)
    assert writes == []

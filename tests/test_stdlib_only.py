"""The runtime package imports nothing outside the standard library.

Test and benchmark dependencies (sympy among them) are importable wherever
the tests run, so a stray third-party import in src/mcflow would otherwise
pass unnoticed.  Every import statement must be relative (the package
itself) or name a top-level module in ``sys.stdlib_module_names``.

Every request is a fresh process, so import weight is start-up time:
``dataclasses`` (which pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``) is not imported at all, nor ``argparse`` (with ``gettext`` and
``locale``), and ``json`` only by ``--json``.
The shipped ``.sys`` files are read with ``open``: ``importlib.resources``
would bring ``zipfile``, ``tempfile`` and ``pathlib`` with it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mcflow"
SOURCES = sorted(PACKAGE.glob("*.py"))
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "argparse", "gettext", "locale",
         "json")


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_sources_found():
    assert PACKAGE / "algebra.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_relative_or_stdlib(path):
    foreign = [
        f"{path.name}:{line}: {name}"
        for line, name in _absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_dataclasses_import(path):
    assert [
        f"{path.name}:{line}"
        for line, name in _absolute_imports(path)
        if name.partition(".")[0] == "dataclasses"
    ] == []


def test_cli_import_loads_no_heavy_module():
    # modules that site already loaded do not count, only what the import adds
    probe = (
        "import sys; before = set(sys.modules); import mcflow.cli; "
        f"print(sorted((set(sys.modules) - before) & set({HEAVY!r})))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [["verify", "guillot"], ["derive", "guillot", "--json"]],
                         ids=["verify", "derive-json"])
def test_request_loads_no_heavy_module(argv):
    # a whole request in a fresh interpreter: json only for --json
    heavy = tuple(name for name in HEAVY if name != "json" or "--json" not in argv)
    probe = (
        "import contextlib, io, sys; before = set(sys.modules); from mcflow.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main({argv!r})\n"
        f"print(sorted((set(sys.modules) - before) & set({heavy!r})))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_cli_import_without_site_loads_no_importlib_resources():
    # with -S, site has not imported importlib.resources on the package's behalf
    probe = "import sys, mcflow.cli; print('importlib.resources' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("argv, loaded", [
    (["derive", "guillot"], False),
    (["verify", "guillot"], False),
    (["sample", "guillot"], False),
    (["verify", "dh_symmetric", "--rho=x - 2", "--f=y"], True),
    (["integrate", "guillot"], True),
    (["verify", "guillot", "--box=-1,1"], False),
], ids=["derive-False", "verify-False", "sample-False", "verify-failing-candidate-True",
        "integrate-True", "verify-box-False"])
def test_only_the_commands_that_use_the_oracle_import_it(argv, loaded):
    # derive neither samples nor integrates, and an exact zero residual's
    # oracle row is derived, not drawn: only a nonzero residual (the failing
    # candidate) or a trajectory compiles mcflow.numeric, not a --box alone
    probe = (
        "import contextlib, io, sys; from mcflow.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main({argv!r})\n"
        "print('mcflow.numeric' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == str(loaded)

"""The runtime package imports nothing outside the standard library.

Test and benchmark dependencies (sympy among them) are importable wherever
the tests run, so a stray third-party import in src/mcflow would otherwise
pass unnoticed.  Every import statement must be relative (the package
itself) or name a top-level module in ``sys.stdlib_module_names``.

Every request is a fresh process, so import weight is start-up time:
``dataclasses`` (which pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``) is not imported at all, and ``json`` only by ``--json``.
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
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json")


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


def test_cli_import_without_site_loads_no_importlib_resources():
    # with -S, site has not imported importlib.resources on the package's behalf
    probe = "import sys, mcflow.cli; print('importlib.resources' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"

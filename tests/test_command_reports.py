"""Every built-in and every tests/golden/*.sys, under every command, with and
without --json, keeps its report.

Each request runs through `cli.main`; its exit code and the sha256 of its
stdout and of its stderr are compared with tests/golden/command_digests.json.
A `.sys` input is named there by its file name.  A change that only
simplifies or speeds up the code must leave every row exactly as it is.

    PYTHONPATH=src python3 tests/test_command_reports.py

rewrites the digest file from the current source.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from mcflow.cli import main
from mcflow.systems import BUILTIN_NAMES

GOLDEN = Path(__file__).parent / "golden"
DIGESTS = GOLDEN / "command_digests.json"
DATA = Path(__file__).resolve().parent.parent / "src" / "mcflow" / "data"
COMMANDS = ("verify", "derive", "integrate", "sample", "check-file")
TARGETS = tuple(BUILTIN_NAMES) + tuple(sorted(p.name for p in GOLDEN.glob("*.sys")))


def _path(target: str) -> Path:
    return GOLDEN / target if target.endswith(".sys") else DATA / f"{target}.sys"


def _libm(argv: list[str]) -> bool:
    """integrate of a system with a log integral: its drift digits depend on
    the platform's libm log, so only its exit code is compared."""
    return argv[0] == "integrate" and "log(" in _path(argv[1]).read_text(encoding="utf-8")


ARGVS = [[command, target] + flag for target in TARGETS for command in COMMANDS
         for flag in ([], ["--json"])]


def _report(argv: list[str]) -> dict:
    stdout, stderr = StringIO(), StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([str(GOLDEN / a) if a.endswith(".sys") else a for a in argv])
    row = {"argv": argv, "exit": code}
    if not _libm(argv):
        for name, stream in (("stdout", stdout), ("stderr", stderr)):
            row[f"{name}_sha256"] = hashlib.sha256(stream.getvalue().encode("utf-8")).hexdigest()
    return row


@pytest.mark.parametrize("argv", ARGVS, ids=["-".join(x.lstrip("-") for x in a) for a in ARGVS])
def test_command_report_matches_its_digest(argv):
    expected = {tuple(row["argv"]): row for row in json.loads(DIGESTS.read_text(encoding="utf-8"))}
    assert _report(argv) == expected[tuple(argv)]


# tests/golden/heisenberg_copy.sys is a byte copy of the shipped
# heisenberg_example.sys: the algebra is read off the brackets, not the name
@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("flag", [[], ["--json"]], ids=["text", "json"])
def test_a_copy_of_a_builtin_reports_as_the_builtin(command, flag):
    builtin_command = "verify" if command == "check-file" else command
    copy = _report([command, "heisenberg_copy.sys", *flag])
    shipped = _report([builtin_command, "heisenberg_example", *flag])
    assert {**copy, "argv": None} == {**shipped, "argv": None}


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps([_report(a) for a in ARGVS], indent=1) + "\n", encoding="utf-8")

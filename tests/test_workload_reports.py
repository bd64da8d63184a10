"""Every request of the benchmark's three workloads, at seed 1, keeps its report.

perfbench/gen.py writes each workload's inputs under a temporary directory;
every request then runs through `cli.main`, and the sha256 of its stdout and
its exit code are compared with tests/golden/workload_digests.json.  A change
that only makes a request faster must leave both exactly as they are.

    PYTHONPATH=src python3 tests/test_workload_reports.py

rewrites the digest file from the current source.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from mcflow.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).parent / "golden" / "workload_digests.json"
WORKLOADS = ("builtins", "conjugated", "candidates")
SEED = 1
# its drift digits depend on the platform's libm log, so only its exit code is
# compared (tests/test_golden.py leaves it out for the same reason)
LIBM = (["integrate", "guillot"],)


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reports(workload: str, out: Path) -> list[dict]:
    """argv, exit code and stdout digest of each request, in manifest order;
    a `.sys` input is named relative to `out`, as in the manifest."""
    rows = []
    for request in _load_gen().generate(workload, SEED, out, ROOT):
        argv = request["argv"]
        stdout = StringIO()
        with redirect_stdout(stdout):
            code = main([str(out / a) if a.endswith(".sys") else a for a in argv])
        digest = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
        rows.append({"argv": argv, "exit": code, "stdout_sha256": digest})
    return rows


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_match_their_digests(workload, tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[workload]
    got = _reports(workload, tmp_path)
    for row in got + expected:
        if row["argv"] in LIBM:
            del row["stdout_sha256"]
    assert got == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        table = {w: _reports(w, Path(scratch) / w) for w in WORKLOADS}
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")

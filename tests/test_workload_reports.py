"""Every request of the benchmark's three workloads, at seeds 1 to 3, keeps its report.

perfbench/gen.py writes each workload's inputs under a temporary directory;
every request then runs through `cli.main`, and the sha256 of its stdout and
its exit code are compared with tests/golden/workload_digests.json, which is
keyed by seed, then by workload.  A change that only makes a request faster
must leave both exactly as they are.

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
SEEDS = (1, 2, 3)
# its drift digits depend on the platform's libm log, so only its exit code is
# compared (tests/test_golden.py leaves it out for the same reason)
LIBM = (["integrate", "guillot"],)


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reports(workload: str, seed: int, out: Path) -> list[dict]:
    """argv, exit code and stdout digest of each request, in manifest order;
    a `.sys` input is named relative to `out`, as in the manifest."""
    rows = []
    for request in _load_gen().generate(workload, seed, out, ROOT):
        argv = request["argv"]
        stdout = StringIO()
        with redirect_stdout(stdout):
            code = main([str(out / a) if a.endswith(".sys") else a for a in argv])
        digest = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
        rows.append({"argv": argv, "exit": code, "stdout_sha256": digest})
    return rows


# seed 1 keeps the plain workload name as its test id
@pytest.mark.parametrize("workload, seed", [
    pytest.param(w, s, id=w if s == 1 else f"{w}-seed{s}") for s in SEEDS for w in WORKLOADS
])
def test_workload_reports_match_their_digests(workload, seed, tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[str(seed)][workload]
    got = _reports(workload, seed, tmp_path)
    for row in got + expected:
        if row["argv"] in LIBM:
            del row["stdout_sha256"]
    assert got == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        table = {str(s): {w: _reports(w, s, Path(scratch) / f"{w}{s}") for w in WORKLOADS}
                 for s in SEEDS}
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")

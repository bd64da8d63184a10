"""Tests of the benchmark's own code: generator, verdict checks, span arithmetic.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from mcflow.calculus import VectorField3  # noqa: E402
from mcflow.parser import parse_rational, parse_system  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    gen.generate(workload, 7, tmp_path / "a", ROOT)
    gen.generate(workload, 7, tmp_path / "b", ROOT)
    gen.generate(workload, 8, tmp_path / "c", ROOT)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_generator_never_imports_mcflow():
    source = (BENCH / "gen.py").read_text(encoding="utf-8")
    assert "import mcflow" not in source and "from mcflow" not in source


@pytest.mark.parametrize("seed", range(3))
def test_conjugates_parse_with_their_base_chart(tmp_path, seed):
    requests = gen.generate("conjugated", seed, tmp_path, ROOT)
    assert len(requests) == sum(len(draws) for _, draws in gen.CONJUGATED_DRAWS)
    for request in requests:
        spec = parse_system((tmp_path / request["argv"][1]).read_text(encoding="utf-8"))
        base = parse_system(
            (ROOT / "src" / "mcflow" / "data" / f"{spec.name.split('_conj')[0]}.sys")
            .read_text(encoding="utf-8"))
        assert spec.variables == base.variables
        assert spec.u is not None and spec.w is not None and spec.multiplier_hint is not None
        assert [name for name, _ in spec.integrals] == [name for name, _ in base.integrals]


def test_candidates_parse_with_their_base_chart(tmp_path):
    for request in gen.generate("candidates", 0, tmp_path, ROOT):
        _, base, rho, f = request["argv"]
        chart = ("x", "y", "z")
        assert not parse_rational(rho.removeprefix("--rho="), chart).is_zero()
        parse_rational(f.removeprefix("--f="), chart)
        assert base in ("guillot", "dh_symmetric")


def test_text_conjugation_matches_the_test_suite_helper():
    spec_path = ROOT / "tests" / "test_mcframe.py"
    loader = importlib.util.spec_from_file_location("_mcframe_tests", spec_path)
    helpers = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(helpers)
    for base in ("guillot", "dh_symmetric"):
        source = (ROOT / "src" / "mcflow" / "data" / f"{base}.sys").read_text(encoding="utf-8")
        original = parse_system(source)
        matrix = gen.draw_dense(random.Random(base), 2, 2)
        conjugated = parse_system(gen.conjugate_text(source, matrix, "c"))
        fractions = [[helpers.Fraction(e) for e in row] for row in matrix]
        inverse = helpers._adjugate_inverse(fractions)
        for key in ("v", "u", "w"):
            field = VectorField3(*getattr(original, key), original.variables)
            expected = helpers._conjugate(field, fractions, inverse)
            assert VectorField3(*getattr(conjugated, key), original.variables) == expected


def test_one_cheap_seed_meets_its_known_answers(tmp_path):
    _, requests = run.setup("candidates", 0, tmp_path, run.SpeedProbe())
    client = run.Client(tmp_path)
    cheap = [r for r in requests if r["argv"][1] == "guillot"]
    assert {r["expect"]["sigma_holds"] for r in cheap} == {True, False}
    for request in cheap:
        client.request(request, traced=False)
    client.request(cheap[0], traced=True)
    assert (client.wrong, client.failed, client.attempted) == (0, 0, len(cheap) + 1)
    assert all(r["same_output_every_time"] for r in client.records.values())
    metrics = run.layer_metrics(client.traces)
    assert metrics["mcframe.sigma_residual.calls"] == (1, "count")
    assert metrics["mcframe.potential_from_gamma.calls"] == (2, "count")


GUILLOT_TEXT = """\
A = (-1, 0, 0)   scale s = 2
PASS sl2.uv                             [u,v] - 2v = 0
PASS bihamiltonian.decomposition[H2_plus] dH2 ^ dH1 = c M iota_v(dx^dy^dz), c = -2
oracle sl2.uv                             pass (25 points, max |residual| = 0.0)
exit 0
"""


def test_judge_accepts_the_known_answer_and_flags_each_deviation():
    expect = {"exit": 0, "all_hold": True, "scale": "2", "c": "-2"}
    assert run.judge(GUILLOT_TEXT, 0, expect) == []
    assert run.judge(GUILLOT_TEXT, 1, expect)
    assert run.judge(GUILLOT_TEXT.replace("PASS sl2", "FAIL sl2"), 0, expect)
    assert run.judge(GUILLOT_TEXT.replace("s = 2", "s = 4"), 0, expect)
    assert run.judge(GUILLOT_TEXT.replace("c = -2", "c = 2"), 0, expect)
    assert run.judge(GUILLOT_TEXT.replace(" pass (", " fail ("), 0, expect)


def test_speed_probe_scales_by_the_probes_on_either_side(monkeypatch):
    readings = iter([0.02, 0.02, 0.005])
    monkeypatch.setattr(run, "reference_s", lambda: next(readings))
    probe = run.SpeedProbe()
    assert probe.scale(1.0) == pytest.approx(run.REFERENCE_S / 0.02)
    assert probe.scale(1.0) == pytest.approx(run.REFERENCE_S / 0.0125)


def test_self_time_subtracts_the_union_of_child_intervals():
    # root [0, 100) has children [10, 30) and [20, 50) (overlapping: 40
    # covered) and [60, 70); the first child has a grandchild [12, 18).
    parent = [-1, 0, 0, 0, 1]
    start = [0, 10, 20, 60, 12]
    end = [100, 30, 50, 70, 18]
    assert spans.self_times(parent, start, end) == [50, 14, 30, 10, 6]


def test_self_time_of_sequential_children_and_leaves():
    parent = [-1, 0, 1, 1, -1]
    start = [0, 5, 6, 9, 200]
    end = [20, 15, 8, 14, 210]
    assert spans.self_times(parent, start, end) == [10, 3, 2, 5, 10]

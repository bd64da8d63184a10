import gc
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
import types
from pathlib import Path

import jsonschema
import pytest
from hypothesis import assume, given, settings, strategies as st

import mcflow
from mcflow.cli import main, run
from mcflow.systems import BUILTIN_NAMES, system_source


@pytest.fixture(scope="module")
def schema():
    from importlib import resources

    return json.loads(
        resources.files("mcflow.data").joinpath("report.schema.json").read_text()
    )


def run_json(argv):
    document, status, diagnostic = run(argv)
    assert diagnostic is None, diagnostic
    return document, status


def child_env(**extra):
    """The environment of an mcflow child process, stdout buffered."""
    env = dict(os.environ, PYTHONPATH=str(Path(mcflow.__file__).parent.parent), **extra)
    env.pop("PYTHONUNBUFFERED", None)
    return env


class TestVerify:
    def test_guillot_exits_clean(self, schema):
        document, status = run_json(["verify", "guillot"])
        assert status == 0
        assert document["exit_status"] == 0
        assert document["sections"]["multiplier"]["M"] == "1/(2*y^3*z)"
        jsonschema.validate(document, schema)
        failing = [c for c in document["sections"]["checks"] if c["status"] == "fails"]
        assert failing == []

    def test_guillot_oracle_rows_cover_checks(self):
        document, _ = run_json(["verify", "guillot", "--points", "5"])
        samples = document["sections"]["numeric"]["samples"]
        assert samples, "oracle section must not be empty"
        assert all(row["verdict"] == "pass" for row in samples)
        assert all(row["agrees_with_symbolic"] for row in samples)

    def test_dh_symmetric_concordance_flags_gamma_dx(self, schema):
        document, status = run_json(["verify", "dh_symmetric"])
        assert status == 0
        jsonschema.validate(document, schema)
        mismatches = [
            (row["form"], row["component"])
            for row in document["sections"]["concordance"]
            if row["status"] == "mismatch"
        ]
        assert mismatches == [("gamma", "dx")]

    def test_dh_classic_runs_reduction(self):
        document, status = run_json(["verify", "dh_classic"])
        assert status == 0
        names = [c["check"] for c in document["sections"]["checks"]]
        assert "reduction.xdot" in names

    def test_heisenberg(self):
        document, status = run_json(["verify", "heisenberg_example"])
        assert status == 0
        names = {c["check"] for c in document["sections"]["checks"]}
        assert "heisenberg.domega2" in names

    def test_sigma_candidate_failure_is_exit_1(self):
        # rho = 1, f = 0 leaves the non-integrable potential untouched
        document, status = run_json(["verify", "guillot", "--rho", "1", "--f", "0"])
        assert status == 1
        sigma = next(
            c for c in document["sections"]["checks"] if c["check"] == "sigma.integrability"
        )
        assert sigma["status"] == "fails"
        agreement = next(
            c for c in document["sections"]["checks"]
            if c["check"] == "sigma.factored_agreement"
        )
        assert agreement["status"] == "holds"

    @pytest.mark.parametrize("system", ["dh_classic", "heisenberg_example",
                                        str(Path(__file__).parent / "golden" / "partial.sys"),
                                        str(Path(__file__).parent / "golden" / "broken.sys")],
                             ids=lambda system: Path(system).stem)
    def test_candidate_on_a_system_without_an_sl2_frame(self, system):
        # the candidate is parsed as on guillot, then gets one N/A row
        for command in ("verify", "sample"):
            for option, text in [("--rho", ")("), ("--rho", "1/0"), ("--f", ")(")]:
                on_guillot = run([command, "guillot", f"{option}={text}"])
                assert run([command, system, f"{option}={text}"]) == on_guillot
                assert on_guillot[1] == 2
            document, _, diagnostic = run([command, system, "--rho=2", "--f=1"])
            assert diagnostic is None
            rows = [row for row in document["sections"]["checks"]
                    if row["check"].startswith(("sigma.", "conformal."))]
            assert rows == [{"system": document["system"], "check": "sigma.integrability",
                             "anchor": "no sl(2) frame carries the candidate (rho, f)",
                             "status": "not_applicable", "residual": None}]

    @pytest.mark.parametrize("argv", [
        ["verify", "guillot", "--rho=0"],
        ["verify", "guillot", "--rho=x-x"],
        ["sample", "guillot", "--rho=0", "--check=sl2.uv"],
    ])
    def test_vanishing_rho_is_singular(self, argv):
        # the conformal transform rejects rho = 0 before any row divides by it
        assert run(argv) == (None, 3, "degenerate or singular input: "
                                      "conformal factor rho vanishes identically")

    def test_vanishing_rho_without_an_sl2_frame_is_not_applicable(self):
        document, status = run_json(["verify", "heisenberg_example", "--rho=0"])
        assert status == 0
        rows = [row for row in document["sections"]["checks"]
                if row["check"].startswith(("sigma.", "conformal."))]
        assert rows == [{"system": "heisenberg_example", "check": "sigma.integrability",
                         "anchor": "no sl(2) frame carries the candidate (rho, f)",
                         "status": "not_applicable", "residual": None}]

    def test_overflowing_sample_box_is_inconclusive(self):
        document, status, diagnostic = run(
            ["verify", "guillot", "--rho=x + 1", "--f=y", "--box", "1e300,1e301"]
        )
        assert (status, diagnostic) == (1, None)
        oracle = {row["check"]: row for row in document["sections"]["numeric"]["samples"]}
        assert oracle["sigma.integrability"]["verdict"] == "inconclusive"

    def test_eps_branch_selection(self):
        plus, _ = run_json(["verify", "guillot", "--eps", "+1", "--points", "2"])
        names = {c["check"] for c in plus["sections"]["checks"]}
        assert "bihamiltonian.decomposition[H2_plus]" in names
        assert "bihamiltonian.decomposition[H2_minus]" not in names
        minus, _ = run_json(["verify", "guillot", "--eps", "-1", "--points", "2"])
        names = {c["check"] for c in minus["sections"]["checks"]}
        assert "bihamiltonian.decomposition[H2_minus]" in names

    @pytest.mark.parametrize("label, eps, kept", [
        ("H1_minusx", "+1", True),
        ("H1_plusx", "-1", True),
        ("H1_minus", "+1", False),
        ("H1_minus", "-1", True),
    ])
    def test_eps_drops_only_the_other_suffix(self, tmp_path, label, eps, kept):
        # a branch is named by its suffix, not by a substring of the name
        path = tmp_path / "partial.sys"
        path.write_text(PARTIAL_SYS.replace("integral H1:", f"integral {label}:"))
        names = check_names(["verify", str(path), f"--eps={eps}"])
        assert (f"integral.{label}" in names) == kept


class TestDerive:
    def test_guillot_forms(self):
        document, status = run_json(["derive", "guillot"])
        assert status == 0
        forms = document["sections"]["forms"]
        assert forms["beta"] == ["0", "1/(2*y^3)", "1/(2*y^2*z)"]
        assert forms["potential"]["scale"] == "2"
        assert forms["potential"]["A"][0] == "-1"

    def test_heisenberg_prints_omegas(self):
        document, status = run_json(["derive", "heisenberg_example"])
        assert status == 0
        assert document["sections"]["forms"]["omega2"] == ["0", "1", "-x"]


class TestIntegrate:
    def test_guillot_drift(self):
        document, status = run_json(["integrate", "guillot"])
        assert status == 0
        integration = document["sections"]["numeric"]["integration"]
        assert integration["steps"] == 200
        assert integration["drift"]["H1"] < 1e-8
        assert integration["drift"]["H2_plus"] < 1e-7
        assert "H2_minus" not in integration["drift"]

    def test_eps_minus_from_off_diagonal_point(self):
        document, status = run_json(
            ["integrate", "guillot", "--eps", "-1", "--from", "1,2,1", "--t", "0.1"]
        )
        assert status == 0
        assert document["sections"]["numeric"]["integration"]["drift"]["H2_minus"] < 1e-7

    @pytest.mark.parametrize("argv", [
        ["integrate", "guillot", "--t", "1"],
        ["integrate", "dh_symmetric", "--t", "5"],
    ])
    def test_finite_time_blow_up_is_singular(self, argv):
        document, status, diagnostic = run(argv)
        assert status == 3
        assert document is None
        assert "last safe time" in diagnostic

    def test_integral_singular_at_the_start_is_singular(self):
        # the oracle's errors are singular inputs, mapped to exit 3 as such
        document, status, diagnostic = run(["integrate", "guillot", "--from", "1,0,1"])
        assert (document, status) == (None, 3)
        assert diagnostic == ("degenerate or singular input: singular evaluation at t = 0.0: "
                              "denominator y^2 vanishes at (1.0, 0.0, 1.0)")

    def test_integral_that_overflows_is_singular(self, tmp_path):
        # x*y is inf along the trajectory, and inf - inf once read as no drift
        path = tmp_path / "lift.sys"
        path.write_text("name: lift\nvariables: x, y, z\nv: 0; 0; 1\nintegral H: x*y\n")
        document, status, diagnostic = run(["integrate", str(path), "--from", "1e200,1e200,1"])
        assert (document, status) == (None, 3)
        assert diagnostic == ("degenerate or singular input: singular evaluation at t = 0.0: "
                              "the value inf is not finite")


class TestSample:
    def test_single_check(self):
        document, status = run_json(
            ["sample", "guillot", "--check", "structure.dgamma", "--points", "10"]
        )
        assert status == 0
        samples = document["sections"]["numeric"]["samples"]
        assert len(samples) == 1
        assert samples[0]["check"] == "structure.dgamma"
        assert samples[0]["points"] == 10

    def test_unknown_check_is_a_usage_error(self):
        # an empty name is a name like any other, not "no --check"; the
        # diagnostic names the option and no position in any text
        document, _ = run_json(["verify", "guillot", "--json"])
        available = ", ".join(sorted(row["check"] for row in document["sections"]["checks"]))
        for name in ("nope", ""):
            _, status, diagnostic = run(["sample", "guillot", f"--check={name}"])
            assert status == 2
            assert diagnostic == (f"parse error: --check: unknown check {name!r}; "
                                  f"available: {available}")

    @pytest.mark.parametrize("argv, name", [
        # expects a nonzero residual, has no exact residual, is not applicable
        (["sample", "guillot", "--check=frobenius.alpha"], "frobenius.alpha"),
        (["sample", "dh_symmetric", "--check=grading.alpha"], "grading.alpha"),
        (["sample", "dh_classic", "--f=t1", "--check=sigma.integrability"],
         "sigma.integrability"),
    ])
    def test_a_check_without_an_oracle_row_is_a_usage_error(self, argv, name):
        document, status, diagnostic = run(argv)
        assert (document, status) == (None, 2)
        assert diagnostic == (f"parse error: --check: {name!r} has no oracle row: only an "
                              "applicable check that expects an exact zero residual is sampled")

    def test_determinism(self):
        first, _ = run_json(["sample", "guillot", "--seed", "3", "--points", "7"])
        second, _ = run_json(["sample", "guillot", "--seed", "3", "--points", "7"])
        assert json.dumps(first) == json.dumps(second)


def sampled_rows(checks, args, names=None):
    """The oracle rows with every row drawn by numeric.sample_identity, the
    exact zero residuals too: the reference for cli._sample_checks."""
    from mcflow.mcframe import HOLDS, NOT_APPLICABLE, ZERO
    from mcflow.numeric import sample_identity

    rows = []
    all_pass = True
    for check in checks:
        if names is not None and check.name not in names:
            continue
        if check.residual_obj is None:
            continue
        if check.status == NOT_APPLICABLE or check.expect != ZERO:
            continue
        points, worst = sample_identity(
            check.residual_obj, n=args.points, box=args.box, seed=args.seed, name=check.name)
        if points == 0:
            rows.append({"check": check.name, "points": 0, "max_residual": None,
                         "verdict": "inconclusive"})
            all_pass = False
            continue
        passed = worst < args.tol
        agrees = passed == (check.status == HOLDS)
        rows.append({"check": check.name, "points": points, "max_residual": worst,
                     "verdict": "pass" if passed else "fail",
                     "agrees_with_symbolic": agrees})
        if not agrees:
            all_pass = False
    return rows, all_pass


GOLDEN_SYSTEMS = sorted(str(path) for path in (Path(__file__).parent / "golden").glob("*.sys"))
ORACLE_REQUESTS = [
    *([command, system, *extra] for system in [*BUILTIN_NAMES, *GOLDEN_SYSTEMS]
      for command in ("verify", "sample") for extra in ([], ["--json"])),
    ["verify", "guillot", "--rho=x + 1", "--f=y"],
    ["verify", "dh_symmetric", "--rho=x - 2", "--f=y"],
]


class TestDerivedOracleRows:
    """An exact zero residual's oracle row is derived, not drawn; the
    report must be the one that sampling every row gives."""

    @pytest.mark.parametrize("argv", ORACLE_REQUESTS,
                             ids=[" ".join(Path(a).name for a in argv) for argv in ORACLE_REQUESTS])
    def test_report_equals_the_sampled_report(self, argv, monkeypatch, capsys):
        import mcflow.cli

        status = main(argv)
        shipped = capsys.readouterr()
        monkeypatch.setattr(mcflow.cli, "_sample_checks", sampled_rows)
        assert main(argv) == status
        assert capsys.readouterr() == shipped


class TestArgumentValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "guillot", "--points", "0"],
            ["sample", "guillot", "--points", "-2"],
            ["integrate", "guillot", "--t", "nan"],
            ["integrate", "guillot", "--t", "-1"],
            ["integrate", "guillot", "--t", "0"],
            ["integrate", "guillot", "--h", "inf"],
            ["integrate", "guillot", "--h", "nan"],
            ["integrate", "guillot", "--h", "-0.001"],
            ["sample", "guillot", "--tol", "nan"],
            ["sample", "guillot", "--tol", "0"],
            ["sample", "guillot", "--tol", "-1"],
        ],
    )
    def test_bad_numeric_argument_is_a_usage_error(self, argv, capsys):
        document, status, _ = run(argv)
        assert (document, status) == (None, 2)
        assert "expected a" in capsys.readouterr().err

    @pytest.mark.parametrize("box", ["nan,nan", "-inf,inf", "-1e308,1e308", "0,inf"])
    def test_box_bound_off_the_sampling_grid_is_a_usage_error(self, box, capsys):
        # the sampler draws integers between bound * 8: these are not finite
        document, status, _ = run(["sample", "guillot", f"--box={box}", "--points", "2"])
        assert (document, status) == (None, 2)
        assert "box bounds must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sample", "verify"])
    @pytest.mark.parametrize("box", ["0.01,0.1", "-0.1,-0.01"])
    def test_box_without_a_grid_point_is_a_usage_error(self, command, box, capsys):
        # ceil(0.08) = 1 > floor(0.8) = 0: the sampler would have no index to draw
        document, status, _ = run([command, "guillot", f"--box={box}"])
        assert (document, status) == (None, 2)
        assert capsys.readouterr().err == usage_error(
            "argument --box: box holds no point of the 1/8 sampling grid")

    @pytest.mark.parametrize("option, column", [
        ("--rho=" + "(" * 200 + "x" + ")" * 200, 101),
        ("--f=" + "-" * 1000 + "x", 101),
        ("--f=x^" + "(" * 1000 + "2" + ")" * 1000, 103),
    ], ids=["parentheses", "unary_minus", "exponent"])
    def test_deeply_nested_candidate_is_a_parse_error(self, option, column):
        document, status, diagnostic = run(["verify", "guillot", "--points", "1", option])
        assert (document, status) == (None, 2)
        assert diagnostic == (f"parse error: {option.split('=')[0]}: nesting deeper than "
                              f"100 levels (line 1, column {column})")

    @pytest.mark.parametrize("option", ["--rho=\u00b2", "--f=x + 2\u2460"])
    def test_digit_that_is_not_decimal_in_a_candidate(self, option):
        document, status, diagnostic = run(["verify", "guillot", option])
        assert (document, status) == (None, 2)
        assert diagnostic.startswith(f"parse error: {option.split('=')[0]}: unexpected character")

    @pytest.mark.parametrize(
        "option, diagnostic",
        [
            ("--rho=1/(x-x)", "--rho: reciprocal of zero (line 1, column 1)"),
            ("--f=  y*(x-x)^-1", "--f: reciprocal of zero (line 1, column 3)"),
        ],
        ids=["rho", "f"],
    )
    def test_zero_divisor_in_a_candidate_names_the_option(self, option, diagnostic, capsys):
        status = main(["verify", "guillot", option])
        captured = capsys.readouterr()
        assert (status, captured.out) == (2, "")
        assert captured.err == f"parse error: {diagnostic}\n"

    def test_a_candidate_past_the_term_pair_limit_exits_2_quickly(self):
        start = time.process_time()
        document, status, diagnostic = run(["verify", "guillot", "--rho=(x + y + z)^300"])
        assert time.process_time() - start < 1
        assert (document, status) == (None, 2)
        assert diagnostic == ("parse error: --rho: a product of 4601025 term pairs exceeds the "
                              "limit of 1000000 (line 1, column 12)")

    def test_a_constant_power_with_a_cancelling_variable_exits_2_quickly(self):
        # the base is the constant 10 however it is spelled
        start = time.process_time()
        document, status, diagnostic = run(["verify", "guillot", "--rho=(x - x + 10)^10000000"])
        assert time.process_time() - start < 1
        assert (document, status) == (None, 2)
        assert diagnostic == ("parse error: --rho: constant power exceeds the limit of "
                              f"{sys.get_int_max_str_digits()} digits (line 1, column 1)")

    @pytest.mark.parametrize(
        "option, diagnostic",
        [
            ("--rho=x^4294967296", "--rho: product exponents up to (2147483648, 0, 0) too large "
                                   "(line 1, column 2)"),
            ("--f=y*x^2147483647*x", "--f: product exponents up to (2147483648, 1, 0) too large "
                                     "(line 1, column 15)"),
            ("--rho=1/x^2000000000 + x^2000000000", "--rho: product exponents up to "
                                                    "(4000000000, 0, 0) too large (line 1, column 16)"),
        ],
        ids=["power", "product", "sum"],
    )
    def test_exponent_overflow_in_a_candidate_is_a_parse_error(self, option, diagnostic):
        document, status, message = run(["verify", "guillot", option])
        assert (document, status) == (None, 2)
        assert message == f"parse error: {diagnostic}"

    @pytest.mark.parametrize(
        "argv, diagnostic",
        [
            (["--rho=y", "--f=x^2000000000"], "--f: degree 2000000000"),
            (["--rho=x^2000000000"], "--rho: degree 2000000000"),
        ],
        ids=["f", "rho"],
    )
    def test_candidate_of_too_high_degree_is_a_parse_error(self, argv, diagnostic):
        # the gcd would image x^2000000000 as a dense list of 2*10^9 + 1
        # coefficients; a 2 GiB address space turns that into a MemoryError
        # instead of exhausting the machine's memory
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        done = subprocess.run([sys.executable, "-m", "mcflow.cli", "verify", "dh_symmetric",
                               *argv], env=child_env(), capture_output=True, text=True,
                              preexec_fn=limit_memory)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (f"parse error: {diagnostic} in one variable exceeds the limit "
                               "of 10000 (line 1, column 1)\n")

    def test_quotient_of_too_high_degree_is_a_parse_error(self):
        # the operands are refused at the '/' before the gcd images them;
        # under a 2 GiB address space that gcd ended in a MemoryError
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        done = subprocess.run([sys.executable, "-m", "mcflow.cli", "verify", "guillot",
                               "--rho=(x^2000000000 + y)/(x^2000000000 + z)"],
                              env=child_env(), capture_output=True, text=True,
                              preexec_fn=limit_memory)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == ("parse error: --rho: degree 2000000000 in one variable exceeds "
                               "the limit of 20000 (line 1, column 19)\n")

    @pytest.mark.parametrize("start", ["1e400,1,1", "1/0,1,1", "1,2", "a,b,c"])
    def test_start_point_that_is_not_three_floats_is_a_usage_error(self, start, capsys):
        document, status, _ = run(["integrate", "guillot", f"--from={start}"])
        assert (document, status) == (None, 2)
        assert "argument --from: expected three comma-separated finite numbers" in \
            capsys.readouterr().err

    def test_step_count_past_the_limit_is_a_usage_error_found_quickly(self, capsys):
        start = time.process_time()
        document, status, _ = run(["integrate", "guillot", "--t=1e10", "--h=1e-10"])
        assert time.process_time() - start < 1
        assert (document, status) == (None, 2)
        assert capsys.readouterr().err.endswith(
            "argument --t/--h: --t=10000000000.0 over --h=1e-10 exceeds the limit of "
            f"{mcflow.cli.MAX_STEPS} steps\n")

    def test_point_count_past_the_limit_is_a_usage_error_found_quickly(self, capsys):
        limit = mcflow.cli.MAX_POINTS
        assert mcflow.cli._point_count(str(limit)) == limit
        start = time.process_time()
        document, status, _ = run(["verify", "guillot", f"--points={limit + 1}"])
        assert time.process_time() - start < 1
        assert (document, status) == (None, 2)
        assert capsys.readouterr().err.endswith(
            f"argument --points: {limit + 1} exceeds the limit of {limit} points\n")

    def test_step_count_past_the_float_range_is_a_usage_error(self, capsys):
        document, status, _ = run(["integrate", "guillot", "--t=1e300", "--h=1e-300"])
        assert (document, status) == (None, 2)
        err = capsys.readouterr().err
        assert "--t=1e+300" in err and "--h=1e-300" in err


USAGE = """\
usage: mcflow [-h] [--version] [--json] [--eps {+1,-1}] [--rho RHO] [--f F]
              [--points POINTS] [--h H] [--t T] [--from START] [--seed SEED]
              [--box BOX] [--tol TOL] [--check CHECK]
              {check-file,derive,integrate,sample,verify} system
"""
HELP = USAGE + """
exact structural verification of 3D flows with companion frames

positional arguments:
  {check-file,derive,integrate,sample,verify}
  system                built-in system name or path to a .sys file

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
  --json                emit one JSON document
  --eps {+1,-1}         select the +1 or -1 branch of paired integrals
  --rho RHO             conformal factor candidate (expression)
  --f F                 perturbation candidate for the potential (expression)
  --points POINTS       oracle sample points per check
  --h H                 integration step size
  --t T                 integration horizon
  --from START          initial point x,y,z
  --seed SEED           oracle sampling seed
  --box BOX             sampling box LO,HI (applied to each axis)
  --tol TOL             oracle zero tolerance
  --check CHECK         restrict `sample` to one named check
"""


def usage_error(message):
    return USAGE + f"mcflow: error: {message}\n"


class TestCommandLine:
    """(exit code, stdout, stderr) of main() for each form of the command
    line; where stdout is an argv, the report that argv prints."""

    @pytest.mark.parametrize("argv, status, out, err", [
        (["-h"], 0, HELP, ""),
        (["--help"], 0, HELP, ""),
        (["--version"], 0, f"mcflow {mcflow.__version__}\n", ""),
        (["derive", "guillot", "--jso"], 0, ["derive", "guillot", "--json"], ""),
        (["sample", "guillot", "--poi", "2"], 0, ["sample", "guillot", "--points=2"], ""),
        (["verify", "guillot", "--rho", "-x"], 2, "",
         usage_error("argument --rho: expected one argument")),
        (["derive", "guillot", "--json=1"], 2, "",
         usage_error("argument --json: ignored explicit argument '1'")),
        (["verify", "guillot", "--eps", "0"], 2, "",
         usage_error("argument --eps: invalid choice: '0' (choose from '+1', '-1')")),
        (["sample", "guillot", "--seed", "x"], 2, "",
         usage_error("argument --seed: invalid int value: 'x'")),
        (["prove", "guillot"], 2, "",
         usage_error("argument command: invalid choice: 'prove' (choose from 'check-file', "
                     "'derive', 'integrate', 'sample', 'verify')")),
        (["verify"], 2, "", usage_error("the following arguments are required: system")),
        (["derive", "guillot", "extra"], 2, "", usage_error("unrecognized arguments: extra")),
        (["derive", "--", "guillot"], 0, ["derive", "guillot"], ""),
        (["derive", "guillot", "-x"], 2, "", usage_error("unrecognized arguments: -x")),
        (["sample", "guillot", "--points=3", "--points", "2"], 0,
         ["sample", "guillot", "--points=2"], ""),
        # a '--' is dropped while a positional is missing or right after
        # the system; a later '--' is a positional
        (["derive", "guillot", "--", "x"], 2, "", usage_error("unrecognized arguments: x")),
        (["--", "derive", "guillot"], 0, ["derive", "guillot"], ""),
        (["derive", "--", "--", "guillot"], 2, "",
         usage_error("unrecognized arguments: guillot")),
        (["derive", "guillot", "x", "--", "y"], 2, "",
         usage_error("unrecognized arguments: x -- y")),
        # -h takes no value, so the letters after it are more options
        (["-hh"], 0, HELP, ""),
        (["-hx"], 2, "", usage_error("argument -h/--help: ignored explicit argument 'x'")),
        (["--=x"], 2, "",
         usage_error("ambiguous option: --=x could match --help, --version, --json, --eps, "
                     "--rho, --f, --points, --h, --t, --from, --seed, --box, --tol, --check")),
        (["sample", "guillot", "--box=a,b"], 2, "",
         usage_error("argument --box: expected LO,HI as two finite numbers, got 'a,b'")),
        (["sample", "guillot", "--box=,1"], 2, "",
         usage_error("argument --box: expected LO,HI as two finite numbers, got ',1'")),
        # an option that the command does not read is refused, whatever its value
        (["integrate", "guillot", "--f=(("], 2, "",
         usage_error("argument --f: not read by integrate")),
        (["derive", "guillot", "--rho=x"], 2, "",
         usage_error("argument --rho: not read by derive")),
        (["verify", "guillot", "--check=nope"], 2, "",
         usage_error("argument --check: not read by verify")),
        (["check-file", "guillot", "--check", "structure.dgamma"], 2, "",
         usage_error("argument --check: not read by check-file")),
        (["derive", "guillot", "--f="], 2, "", usage_error("argument --f: not read by derive")),
        (["derive", "guillot", "--points=3"], 2, "",
         usage_error("argument --points: not read by derive")),
        (["verify", "guillot", "--t=5"], 2, "", usage_error("argument --t: not read by verify")),
        (["sample", "guillot", "--from=1,2,3"], 2, "",
         usage_error("argument --from: not read by sample")),
        (["integrate", "guillot", "--tol=1"], 2, "",
         usage_error("argument --tol: not read by integrate")),
        (["derive", "guillot", "--eps=-1"], 2, "",
         usage_error("argument --eps: not read by derive")),
        # wherever it stands, with its default value, and by a prefix
        (["--points=3", "derive", "guillot"], 2, "",
         usage_error("argument --points: not read by derive")),
        (["derive", "guillot", "--points=25"], 2, "",
         usage_error("argument --points: not read by derive")),
        (["derive", "guillot", "--poi=3"], 2, "",
         usage_error("argument --points: not read by derive")),
    ], ids=["-h", "--help", "--version", "prefix", "prefix-two-tokens", "dash-value",
            "flag-value", "eps-choice", "seed-int", "unknown-command", "missing-system",
            "extra-positional", "separator", "unknown-option", "repeated-option",
            "separator-after-system", "separator-first", "second-separator",
            "separator-among-extras", "-hh", "-hx", "empty-long-option", "box-not-numbers",
            "box-empty-bound", "f-on-integrate", "rho-on-derive", "check-on-verify",
            "check-on-check-file", "empty-f-on-derive", "points-on-derive", "t-on-verify",
            "from-on-sample", "tol-on-integrate", "eps-on-derive", "option-before-command",
            "default-on-derive", "prefix-on-derive"])
    def test_command_line(self, argv, status, out, err, capsys):
        if isinstance(out, list):
            assert main(out) == status
            out = capsys.readouterr().out
        assert main(argv) == status
        assert capsys.readouterr() == (out, err)


# a valid value of each option, so that only its scope can refuse it
VALID_VALUES = {"--eps": "-1", "--rho": "x", "--f": "y", "--points": "3", "--h": "0.01",
                "--t": "0.1", "--from": "1,2,3", "--seed": "1", "--box": "-1,1", "--tol": "1e-9",
                "--check": "structure.dgamma"}
# the (command, option) pairs outside each option's readers
UNREAD = [(command, option) for option, (_, _, _, readers) in mcflow.cli._OPTIONS.items()
          for command in mcflow.cli._COMMANDS if command not in readers]
GOLDEN = Path(__file__).parent / "golden"
# per command, requests that between them reach every read of the parsed
# arguments: a nonzero residual is sampled in each oracle command
COVERING = {
    "verify": ([["verify", "guillot"], 0],
               [["verify", "dh_symmetric", "--rho=x - 2", "--f=y"], 1]),
    "sample": ([["sample", "dh_symmetric", "--rho=x - 2", "--f=y",
                 "--check=sigma.integrability"], 0],),
    "check-file": ([["check-file", str(GOLDEN / "broken.sys")], 1],),
    "integrate": ([["integrate", "guillot"], 0],),
    "derive": ([["derive", "guillot", "--json"], 0],),
}


class TestOptionScope:
    """Each option is accepted only by the commands that read it."""

    def test_unread_pairs(self):
        assert len(UNREAD) == 29

    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    @pytest.mark.parametrize("command, option", UNREAD)
    def test_an_unread_option_is_a_usage_error(self, command, option, before, capsys):
        given = [f"{option}={VALID_VALUES[option]}"] if option in VALID_VALUES else [option]
        argv = [*given, command, "guillot"] if before else [command, "guillot", *given]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", usage_error(f"argument {option}: not read by {command}"))

    @pytest.mark.parametrize("command", sorted(COVERING))
    def test_each_command_reads_exactly_the_options_it_accepts(self, command, monkeypatch,
                                                               capsys):
        reads = set()

        class Recording(types.SimpleNamespace):
            def __getattribute__(self, name):
                if not name.startswith("__"):
                    reads.add(name)
                return object.__getattribute__(self, name)

        parse = mcflow.cli._parse_args
        monkeypatch.setattr(mcflow.cli, "_parse_args", lambda argv: Recording(**vars(parse(argv))))
        for argv, status in COVERING[command]:
            assert main(argv) == status
        capsys.readouterr()
        granted = {dest for dest, _, _, readers in mcflow.cli._OPTIONS.values()
                   if dest is not None and command in readers}
        assert reads == granted | {"command", "system"}

    def test_usage_and_help_name_the_table_in_order(self):
        usage = re.findall(r"\[(-[-\w]+)", mcflow.cli._USAGE)
        options = mcflow.cli._HELP.split("\noptions:\n")[1]
        helped = re.findall(r"^  (?:-h, )?(--\w+)", options, re.MULTILINE)
        table = list(mcflow.cli._OPTIONS)
        assert ["--help" if name == "-h" else name for name in usage] == table
        assert helped == table


class TestCheckFile:
    def test_valid_file(self, tmp_path):
        path = tmp_path / "guillot_copy.sys"
        path.write_text(system_source("guillot"))
        document, status = run_json(["check-file", str(path)])
        assert status == 0
        assert document["system"] == "guillot"

    def test_broken_brackets_exit_1(self, tmp_path):
        path = tmp_path / "broken.sys"
        path.write_text(BROKEN_SYS)
        document, status, diagnostic = run(["check-file", str(path)])
        assert status == 1
        rows = {c["check"]: c for c in document["sections"]["checks"]}
        assert rows["sl2.uv"]["status"] == "fails" or rows["sl2.vw"]["status"] == "fails"
        failing = [c for c in document["sections"]["checks"] if c["status"] == "fails"]
        assert all(c["residual"] for c in failing)

    def test_degenerate_heisenberg_triple_is_singular(self, tmp_path):
        # v = 0, u = e_x, w = e_y closes the Heisenberg relations, and its
        # triple product (v x u).w vanishes, so no command gets a report
        path = tmp_path / "flat.sys"
        path.write_text("name: flat\nvariables: x, y, z\nv: 0; 0; 0\nu: 1; 0; 0\nw: 0; 1; 0\n")
        for command in ("verify", "derive", "integrate", "sample", "check-file"):
            assert run([command, str(path)]) == (
                None, 3, "degenerate or singular input: (v x u).w vanishes identically")

    def test_malformed_file_exit_2(self, tmp_path):
        path = tmp_path / "bad.sys"
        path.write_text("name: bad\nvariables: x, y, z\nv: x +; 0; 0\n")
        _, status, diagnostic = run(["check-file", str(path)])
        assert status == 2
        assert "line 3" in diagnostic

    @pytest.mark.parametrize(
        "v_line, message",
        [
            # the power has 30103 digits, more than Python converts to str
            ("v: 2^100000*x; y; z", "constant power exceeds"),
            # int() refuses a literal this long
            ("v: " + "7" * 5000 + "*x; y; z", "integer literal of 5000 digits"),
        ],
        ids=["constant_power", "literal"],
    )
    def test_oversized_integer_is_a_parse_error(self, tmp_path, v_line, message):
        path = tmp_path / "big.sys"
        path.write_text(f"name: big\nvariables: x, y, z\n{v_line}\n")
        for command in ("verify", "check-file"):
            document, status, diagnostic = run([command, str(path)])
            assert (document, status) == (None, 2)
            assert message in diagnostic and "line 3" in diagnostic

    @pytest.mark.parametrize(
        "lines, position",
        [("v: x^4294967296; y; z", "line 3, column 5"),
         ("v: x; y; z\nintegral H: log(x^3000000000)", "line 4, column 18")],
        ids=["value", "integral"],
    )
    def test_exponent_overflow_is_a_parse_error(self, tmp_path, lines, position):
        path = tmp_path / "big.sys"
        path.write_text(f"name: big\nvariables: x, y, z\n{lines}\n")
        document, status, diagnostic = run(["verify", str(path)])
        assert (document, status) == (None, 2)
        assert diagnostic == ("parse error: product exponents up to (2147483648, 0, 0) too "
                              f"large ({position})")

    # log names the logarithm in every expression, so a variable so named is
    # refused on its line, whether or not a value uses it
    @pytest.mark.parametrize("v_line", ["v: y; -log; 0", "v: 1; 0; 0"], ids=["used", "unused"])
    def test_a_variable_named_log_is_a_parse_error(self, tmp_path, v_line):
        path = tmp_path / "log.sys"
        path.write_text(f"name: t\nvariables: log, y, z\n{v_line}\n")
        assert run(["verify", str(path)]) == (
            None, 2, "parse error: variables must be 3 distinct identifiers other than log "
                     "(line 2, column 1)")

    # lines end at \r\n, \r and \n only, as in text mode; the lexer reads
    # the other breaks of str.splitlines inside a value as spaces
    @pytest.mark.parametrize("space", ["\f", "\x85"], ids=["form_feed", "next_line"])
    def test_a_break_that_text_mode_keeps_is_a_space_in_a_value(self, tmp_path, space):
        plain, spaced = tmp_path / "plain.sys", tmp_path / "spaced.sys"
        source = system_source("guillot")
        plain.write_bytes(source.encode("utf-8"))
        spaced.write_bytes(source.replace("x*y; ", f"x*y;{space} ", 1).encode("utf-8"))
        assert spaced.read_bytes() != plain.read_bytes()
        assert run(["verify", str(spaced)]) == run(["verify", str(plain)])

    def test_a_fault_after_a_line_separator_reports_the_text_mode_line(self, tmp_path):
        path = tmp_path / "separator.sys"
        path.write_bytes("name: t\nvariables: x, y, z\nv: x;\u2028 y; z$\n".encode("utf-8"))
        assert run(["verify", str(path)]) == (
            None, 2, "parse error: unexpected character '$' (line 3, column 12)")

    @pytest.mark.parametrize("command", [["derive"], ["verify"], ["derive", "--json"]],
                             ids=["derive", "verify", "derive_json"])
    def test_oversized_product_is_a_parse_error(self, tmp_path, command, capsys):
        # each factor has 3001 digits, their product 6001
        path = tmp_path / "big.sys"
        path.write_text("name: big\nvariables: x, y, z\nv: 10^3000*10^3000*x + y; y; z\n")
        status = main([*command, str(path)])
        captured = capsys.readouterr()
        assert status == 2 and captured.out == ""
        limit = sys.get_int_max_str_digits()
        assert captured.err == (f"parse error: a coefficient exceeds the limit of {limit} "
                                "digits (line 3, column 4)\n")

    @pytest.mark.parametrize("command", [["verify"], ["verify", "--json"], ["derive"]],
                             ids=["verify", "verify_json", "derive"])
    def test_derived_integer_past_the_digit_limit_prints_exactly(self, tmp_path, command,
                                                                  capsys):
        # every value has 2201 digits; iota_v dH = (10^4400 + 10^2200)*x*y
        path = tmp_path / "big.sys"
        path.write_text("name: big\nvariables: x, y, z\nv: 10^2200*x; y; z\n"
                        "integral H: 10^2200*x*y\n")
        status = main([*command, str(path)])
        captured = capsys.readouterr()
        assert captured.err == ""
        if command == ["derive"]:
            assert status == 0  # no frame: derive reports no residual
            return
        assert status == 1
        residual = "1" + "0" * 2199 + "1" + "0" * 2200 + "*x*y"
        if "--json" in command:
            rows = json.loads(captured.out)["sections"]["checks"]
            assert [c["residual"] for c in rows if c["check"] == "integral.H"] == [residual]
        else:
            assert f"residual: {residual}\n" in captured.out

    def test_derived_bracket_residual_past_the_digit_limit(self, tmp_path, capsys):
        # u is 10^2200 times guillot's, so [u,v] - 2v has 4401-digit coefficients
        path = tmp_path / "big.sys"
        path.write_text("name: big\nvariables: x, y, z\nv: 10^2200*x^2 + y^4; x*y; 2*y^2*z - x*z\n"
                        "u: 2*10^2200*x; 10^2200*y; -10^2200*z\nw: -1; 0; 0\n")
        status = main(["derive", str(path)])
        captured = capsys.readouterr()
        assert (status, captured.err) == (1, "")
        assert "FAIL sl2.uv" in captured.out

    @pytest.mark.parametrize(
        "lines, diagnostic",
        [
            ("v: x; y; z\nintegral H: x*log(y)",
             "log may only be scaled by rational constants (line 4, column 13)"),
            ("v: x; y/(x-x); z", "reciprocal of zero (line 3, column 7)"),
            # found while checking the size of a constant power
            ("v: x; y; (1/0)^2", "reciprocal of zero (line 3, column 10)"),
            ("v: x; y; z\nintegral H: log(x - x)",
             "log argument is identically zero (line 4, column 13)"),
        ],
        ids=["log_integral", "zero_divisor", "zero_power_base", "zero_log_argument"],
    )
    def test_evaluation_error_reports_the_value_position(self, tmp_path, lines, diagnostic,
                                                         capsys):
        path = tmp_path / "bad.sys"
        path.write_text(f"name: bad\nvariables: x, y, z\n{lines}\n")
        status = main(["verify", str(path)])
        captured = capsys.readouterr()
        assert (status, captured.out) == (2, "")
        assert captured.err == f"parse error: {diagnostic}\n"

    @pytest.mark.parametrize("v_line, column", [("v: \u00b2; y; z", 4), ("v: x; y; 3\u2460", 11)])
    def test_digit_that_is_not_decimal_is_a_parse_error(self, tmp_path, v_line, column):
        path = tmp_path / "digits.sys"
        path.write_text(f"name: digits\nvariables: x, y, z\n{v_line}\n", encoding="utf-8")
        document, status, diagnostic = run(["verify", str(path)])
        assert (document, status) == (None, 2)
        assert diagnostic.startswith("parse error: unexpected character")
        assert diagnostic.endswith(f"(line 3, column {column})")

    def test_deeply_nested_value_is_a_parse_error(self, tmp_path):
        path = tmp_path / "deep.sys"
        path.write_text("name: deep\nvariables: x, y, z\nv: " + "(" * 300 + "x" + ")" * 300
                        + "; y; z\n")
        document, status, diagnostic = run(["verify", str(path)])
        assert (document, status) == (None, 2)
        assert diagnostic == "parse error: nesting deeper than 100 levels (line 3, column 104)"

    def test_missing_file_exit_2(self):
        _, status, diagnostic = run(["check-file", "/nonexistent/f.sys"])
        assert status == 2

    def test_unreadable_file_exit_2(self, tmp_path):
        _, status, diagnostic = run(["check-file", str(tmp_path)])
        assert (status, diagnostic) == (
            2, f"parse error: cannot read {str(tmp_path)!r}: Is a directory (line 1, column 1)")
        path = tmp_path / "latin1.sys"
        path.write_bytes("name: caf\xe9\n".encode("latin-1"))
        _, status, diagnostic = run(["check-file", str(path)])
        assert (status, diagnostic) == (
            2, f"parse error: {str(path)!r} is not UTF-8 text: invalid continuation byte at "
               "byte 9 (line 1, column 1)")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.sys", tmp_path / "marked.sys"
        plain.write_text(system_source("guillot"), encoding="utf-8")
        marked.write_text(system_source("guillot"), encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        document, status, diagnostic = run(["check-file", str(marked)])
        assert (status, diagnostic) == (0, None)
        assert document == run(["check-file", str(plain)])[0]

    def test_bad_byte_after_a_byte_order_mark_is_reported_at_its_file_offset(self, tmp_path):
        # the mark takes bytes 0-2, so the 0xff of "name: a\xff" sits at byte 10
        path = tmp_path / "marked.sys"
        path.write_bytes(b"\xef\xbb\xbfname: a\xff\n")
        _, status, diagnostic = run(["check-file", str(path)])
        assert (status, diagnostic) == (
            2, f"parse error: {str(path)!r} is not UTF-8 text: invalid start byte at "
               "byte 10 (line 1, column 1)")

    def test_byte_order_mark_with_crlf_lines_verifies(self, tmp_path):
        plain, marked = tmp_path / "plain.sys", tmp_path / "marked.sys"
        plain.write_text(system_source("guillot"), encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + system_source("guillot").replace("\n", "\r\n")
                           .encode("utf-8"))
        document, status, diagnostic = run(["check-file", str(marked)])
        assert (status, diagnostic) == (0, None)
        assert document == run(["check-file", str(plain)])[0]

    def test_builtin_name_rejected(self):
        _, status, diagnostic = run(["check-file", "guillot"])
        assert status == 2

    def test_partial_file_checks_integrals(self, tmp_path):
        path = tmp_path / "partial.sys"
        path.write_text(PARTIAL_SYS)
        document, status = run_json(["check-file", str(path)])
        assert status == 0
        names = {c["check"] for c in document["sections"]["checks"]}
        assert names == {"integral.H1", "multiplier.invariance"}


FRAME_CHECKS = [
    "sl2.uv", "sl2.uw", "sl2.vw",
    "multiplier.matches_hint",
    "duality.v_alpha", "duality.v_beta", "duality.v_gamma",
    "duality.u_alpha", "duality.u_beta", "duality.u_gamma",
    "duality.w_alpha", "duality.w_beta", "duality.w_gamma",
    "structure.dbeta", "structure.dalpha", "structure.dgamma", "structure.dalpha_nonzero",
    "curl.v_cross_u", "curl.u_cross_w", "curl.v_cross_w",
    "divergence.mv", "divergence.mu", "divergence.mw",
    "frobenius.gamma", "frobenius.beta", "frobenius.alpha",
    "potential.curl_scale",
]
GUILLOT_CHECKS = FRAME_CHECKS + [
    "bihamiltonian.integral_h1[H2_plus]", "bihamiltonian.integral_h2[H2_plus]",
    "bihamiltonian.divergence[H2_plus]", "bihamiltonian.decomposition[H2_plus]",
]
BROKEN_SYS = (
    "name: broken\nvariables: x, y, z\n"
    "v: x^2 + y^4; x*y; 2*y^2*z - x*z\n"
    "u: 2*x; y; z\n"  # wrong sign on the z component
    "w: -1; 0; 0\n"
)
PARTIAL_SYS = (
    "name: partial\nvariables: x, y, z\n"
    "v: x^2 + y^4; x*y; 2*y^2*z - x*z\n"
    "integral H1: x^2/y^2 - y^2\n"
    "multiplier: 1/(2*y^3*z)\n"
)


def declared_fields(source):
    """The name, variables and vector field lines of a system's source: no
    declared multiplier or integral."""
    keep = ("name:", "variables:", "v:", "u:", "w:")
    return "".join(line + "\n" for line in source.splitlines() if line.startswith(keep))


class TestDeclaredDataOnEveryKindOfSystem:
    """A declared multiplier and a declared integral are checked whatever the
    triple builds: no frame, a triple that closes neither algebra, an sl(2)
    frame or a Heisenberg frame."""

    KINDS = {
        "no_companion_fields": (declared_fields(PARTIAL_SYS), "multiplier.invariance"),
        "closes_neither_algebra": (BROKEN_SYS, "multiplier.invariance"),
        "sl2_frame": (declared_fields(system_source("guillot")), "multiplier.matches_hint"),
        "heisenberg_frame": (declared_fields(system_source("heisenberg_example")),
                             "multiplier.matches_hint"),
    }

    def statuses(self, tmp_path, source, *options):
        path = tmp_path / "declared.sys"
        path.write_text(source)
        document, status = run_json(["verify", str(path), "--points", "1", *options])
        return status, {c["check"]: c["status"] for c in document["sections"]["checks"]}

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_wrong_multiplier_fails(self, tmp_path, kind):
        fields, row = self.KINDS[kind]
        status, rows = self.statuses(tmp_path, fields + "multiplier: 7*x\n")
        assert (status, rows[row]) == (1, "fails")

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_single_integral_that_is_not_conserved_fails(self, tmp_path, kind):
        # iota_v dy = v_y, which no kind's field makes vanish
        fields, _ = self.KINDS[kind]
        status, rows = self.statuses(tmp_path, fields + "integral H: y\n")
        assert (status, rows["integral.H"]) == (1, "fails")

    @pytest.mark.parametrize("eps, selected, status", [("+1", "H_plus", 1), ("-1", "H_minus", 0)])
    def test_eps_selects_one_of_a_pair_on_a_heisenberg_frame(self, tmp_path, eps, selected,
                                                             status):
        fields, _ = self.KINDS["heisenberg_frame"]
        got, rows = self.statuses(tmp_path, fields + "integral H_plus: y\nintegral H_minus: x\n",
                                  f"--eps={eps}")
        assert got == status
        assert [name for name in rows if name.startswith("integral.")] == [f"integral.{selected}"]
        assert rows[f"integral.{selected}"] == ("fails" if status else "holds")

    def test_the_golden_heisenberg_file_passes_its_declared_rows(self):
        path = Path(__file__).parent / "golden" / "heisenberg_declared.sys"
        document, status = run_json(["verify", str(path), "--points", "1"])
        rows = {c["check"]: c["status"] for c in document["sections"]["checks"]}
        assert status == 0
        assert [rows.get(name) for name in ("multiplier.matches_hint", "integral.H1",
                                            "integral.H2")] == ["holds"] * 3


def check_names(argv):
    document, _, diagnostic = run(argv + ["--points", "1"])
    assert diagnostic is None, diagnostic
    return [c["check"] for c in document["sections"]["checks"]]


# pieces of expressions, with digits and letters outside ASCII
PIECES = ["x", "y", "z", "t", "0", "1", "2", "10", "\u00b2", "\u2460", "\u0663", "\u00e9",
          "\u00df", "log", "+", "-", "*", "/", "^", "(", ")", ",", ";", ":", "#", " ",
          "x*y", "1/(x-x)", "log(y)", "^-1"]
# values that nest past the parser's limit of 100 levels
NESTED_SHAPES = [lambda n: "(" * n + "x" + ")" * n, lambda n: "-" * n + "x",
                 lambda n: "x^" + "(" * n + "2" + ")" * n]
expression_texts = st.one_of(st.lists(st.sampled_from(PIECES), max_size=8).map("".join),
                             st.text(max_size=10),
                             st.builds(lambda shape, n: shape(n), st.sampled_from(NESTED_SHAPES),
                                       st.integers(150, 1200)))
system_lines = st.one_of(
    st.builds("{}: {}; {}; {}".format, st.sampled_from("vuw"),
              expression_texts, expression_texts, expression_texts),
    st.builds("{}: {}".format,
              st.sampled_from(["name", "variables", "v", "multiplier", "integral H",
                               "integral", "colour", ""]),
              expression_texts),
    st.just("variables: x, y, z"),
    st.text(max_size=20),
)


# option values: mostly valid or on a boundary, then one or two of garbage
OPTION_VALUES = {
    "--eps": ["+1", "-1", "0"],
    "--rho": ["x + 1", "y", "x*z - y^2", "1/(x-x)", "(x + y + z)^300", "\u00b2"],
    "--f": ["y", "x*z", "y/(x + z)", "", "1/(x-x)", ")"],
    "--points": ["1", "2", "3", "0"],
    "--h": ["0.01", "0.1", "1e-300", "1e300", "0", "x"],
    "--t": ["0.1", "0.02", "1e-300", "1e300", "nan"],
    "--from": ["1,1,1", "0.5,1,2", "0,0,0", "1e308,1e308,1e308", "1e400,1,1", "1/0,1,1",
               "1,2"],
    "--seed": ["0", "7", "-3", "99999999999999999999", "x"],
    "--box": ["-3,3", "-1,1", "0,0", "-1e300,1e300", "1,0", "0.01,0.1", "-0.1,-0.01"],
    "--tol": ["1e-12", "1e-3", "1e308", "0"],
    "--check": ["structure.dgamma", "integral.H1", "nope"],
}
LONG_OPTIONS = [*OPTION_VALUES, "--json", "--help", "--version"]


def spellings(option):
    """option and each prefix of it that names no other long option."""
    prefixes = [option[:k] for k in range(3, len(option))]
    return [p for p in prefixes if sum(o.startswith(p) for o in LONG_OPTIONS) == 1] + [option]


options = st.one_of(
    st.sampled_from(spellings("--json")).map(lambda o: [o]),
    *(st.builds(lambda o, v, joined: [f"{o}={v}"] if joined else [o, v],
                st.sampled_from(spellings(option)), st.sampled_from(values), st.booleans())
      for option, values in OPTION_VALUES.items()),
    # free text never starts an option, which could set --t or --h unseen
    st.text(min_size=1, max_size=8).filter(lambda t: not t.startswith("--")).map(lambda t: [t]),
)
MAX_STEPS = 1000


def _last_value(argv, option, default):
    """The last value given as option=VALUE or as option VALUE (--t and --h
    have no shorter spelling)."""
    values = [a.split("=", 1)[1] if a != option else b
              for a, b in zip(argv, [*argv[1:], None])
              if a.startswith(f"{option}=") or (a == option and b is not None)]
    return values[-1] if values else default


def _too_many_steps(argv) -> bool:
    """True if --t and --h are both valid and integrate would take more than
    MAX_STEPS finite steps: such a request is valid but slow."""
    try:
        t, h = float(_last_value(argv, "--t", "0.2")), float(_last_value(argv, "--h", "1e-3"))
    except ValueError:
        return False
    return t > 0 and h > 0 and MAX_STEPS < t / h < math.inf


class TestExitCodeContract:
    """Whatever the input, a request ends in one of the four exit codes."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(system_lines, max_size=6))
    def test_any_system_file(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("fuzz") / "any.sys"
        path.write_text("name: fuzz\n" + "\n".join(lines) + "\n", encoding="utf-8")
        _, status, _ = run(["verify", str(path), "--points", "2"])
        assert status in (0, 1, 2, 3)

    @settings(max_examples=40, deadline=None)
    @given(expression_texts, expression_texts)
    def test_any_candidate(self, rho, f):
        _, status, _ = run(["verify", "guillot", f"--rho={rho}", f"--f={f}", "--points", "2"])
        assert status in (0, 1, 2, 3)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["verify", "derive", "integrate", "sample", "check-file"]),
           st.sampled_from(["guillot", "heisenberg_example", "dh_classic",
                            str(Path(__file__).parent / "golden" / "partial.sys")]),
           st.lists(options, max_size=4).map(lambda parts: sum(parts, [])))
    def test_any_argv(self, command, system, rest):
        argv = [command, system, *rest]
        assume(not _too_many_steps(argv))
        _, status, _ = run(argv)
        assert status in (0, 1, 2, 3)


class TestCheckTable:
    @pytest.mark.parametrize(
        "argv, names",
        [
            (["verify", "guillot"], GUILLOT_CHECKS),
            (
                ["verify", "guillot", "--rho", "1", "--f", "0"],
                GUILLOT_CHECKS + [
                    "sigma.integrability", "sigma.factored_agreement",
                    "conformal.structure.dbeta", "conformal.structure.dalpha",
                    "conformal.structure.dgamma", "conformal.structure.dalpha_nonzero",
                ],
            ),
            (
                ["verify", "dh_symmetric"],
                FRAME_CHECKS + [
                    "reduction.xdot", "reduction.ydot", "reduction.zdot",
                    "grading.multiplier", "grading.alpha", "grading.beta", "grading.gamma",
                ],
            ),
            (["verify", "dh_classic"], ["reduction.xdot", "reduction.ydot", "reduction.zdot"]),
            (["verify", "dh_classic", "--f=t1"],
             ["sigma.integrability", "reduction.xdot", "reduction.ydot", "reduction.zdot"]),
            (
                ["verify", "heisenberg_example"],
                [
                    "heisenberg.domega1", "heisenberg.domega3", "heisenberg.domega2",
                    "heisenberg.vw", "heisenberg.vu", "heisenberg.wu",
                    "heisenberg.w_omega1", "heisenberg.v_omega2", "heisenberg.u_omega3",
                    "heisenberg.volume",
                ],
            ),
        ],
    )
    def test_builtin_check_order(self, argv, names):
        assert check_names(argv) == names

    @pytest.mark.parametrize(
        "text, names",
        [
            (BROKEN_SYS, ["sl2.uv", "sl2.uw", "sl2.vw"]),
            (PARTIAL_SYS, ["integral.H1", "multiplier.invariance"]),
        ],
    )
    def test_file_check_order(self, tmp_path, text, names):
        path = tmp_path / "system.sys"
        path.write_text(text)
        assert check_names(["verify", str(path)]) == names

    def test_brackets_verified_once_per_request(self, tmp_path, monkeypatch):
        import mcflow.cli
        import mcflow.mcframe
        import mcflow.systems

        original = mcflow.mcframe.verify_sl2
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (mcflow.mcframe, mcflow.systems, mcflow.cli):
            if vars(module).get("verify_sl2") is original:
                monkeypatch.setattr(module, "verify_sl2", counting)
        path = tmp_path / "guillot_copy.sys"
        path.write_text(system_source("guillot"))
        _, status = run_json(["verify", str(path), "--points", "1"])
        assert status == 0
        assert len(calls) == 1

    def test_each_one_form_differentiated_once_per_request(self, tmp_path, monkeypatch):
        from mcflow.calculus import KForm

        original = KForm._derivative
        grades = []

        def counting(self):
            grades.append(self.grade)
            return original(self)

        monkeypatch.setattr(KForm, "_derivative", counting)
        path = tmp_path / "guillot_copy.sys"
        path.write_text(system_source("guillot"))
        _, status = run_json(["verify", str(path), "--points", "1"])
        assert status == 0
        # d(alpha), d(beta), d(gamma), shared by every check family
        assert grades.count(1) == 3

    def test_divergence_of_mv_computed_once_per_request(self, monkeypatch):
        import mcflow.mcframe
        from mcflow.systems import builtin

        frame = builtin("guillot").frame
        mv = frame.v.scale(frame.M)
        original = mcflow.mcframe.div
        fields = []

        def counting(field):
            fields.append(field)
            return original(field)

        monkeypatch.setattr(mcflow.mcframe, "div", counting)
        document, status = run_json(["verify", "guillot", "--points", "1"])
        assert status == 0
        # divergence.mv and bihamiltonian.divergence[H2_plus] share one div(M v)
        assert sum(field == mv for field in fields) == 1
        names = [c["check"] for c in document["sections"]["checks"]]
        assert "divergence.mv" in names and "bihamiltonian.divergence[H2_plus]" in names

    def test_frameless_builtin_builds_no_frame(self, monkeypatch):
        import mcflow.cli
        import mcflow.mcframe
        import mcflow.systems

        original = mcflow.mcframe.build_frame
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (mcflow.mcframe, mcflow.systems, mcflow.cli):
            if vars(module).get("build_frame") is original:
                monkeypatch.setattr(module, "build_frame", counting)
        # a built-in without companion fields, and a file whose brackets fail
        broken = str(Path(__file__).parent / "golden" / "broken.sys")
        mcflow.systems.builtin.cache_clear()
        try:
            statuses = [run_json(["verify", system, "--points", "1"])[1]
                        for system in ("dh_classic", broken)]
        finally:
            mcflow.systems.builtin.cache_clear()
        assert statuses == [0, 1]
        assert calls == []

    def test_shipped_spec_parsed_once_per_request(self, monkeypatch, capsys):
        import mcflow.cli
        import mcflow.parser
        import mcflow.systems

        original = mcflow.parser.parse_system
        text = system_source("dh_symmetric")
        parses = []

        def counting(source, *args, **kwargs):
            parses.append(source == text)
            return original(source, *args, **kwargs)

        for module in (mcflow.parser, mcflow.systems, mcflow.cli):
            if vars(module).get("parse_system") is original:
                monkeypatch.setattr(module, "parse_system", counting)
        caches = [f for f in vars(mcflow.systems).values() if hasattr(f, "cache_clear")]
        for cache in caches:
            cache.cache_clear()
        try:
            status = main(["verify", "dh_symmetric", "--points", "1"])
        finally:
            for cache in caches:
                cache.cache_clear()
        capsys.readouterr()
        assert status == 0
        # the frame, the reduction check and the grading row share one parse
        assert parses.count(True) == 1

    def test_candidate_request_rarely_reaches_the_prs(self, monkeypatch, capsys):
        # the gcds of a sigma candidate are mostly factors of one denominator,
        # which the factor base peels off by trial division
        status, entries = kernel_entries(
            monkeypatch, capsys, "_int_prs_gcd", ["verify", "dh_symmetric", "--rho=x - 2", "--f=y"])
        assert status == 1
        assert entries <= 10

    def test_content_order_keeps_a_pushed_frame_off_the_prs(self, monkeypatch, capsys):
        # the content gcd takes the main-variable coefficients fewest terms
        # first; in term-map order this request entered the PRS 4 times
        path = Path(__file__).parent / "golden" / "guillot_conj0_tri2.sys"
        status, entries = kernel_entries(monkeypatch, capsys, "_int_prs_gcd", ["verify", str(path)])
        assert status == 0
        assert entries <= 3

    def test_guillot_candidate_rarely_reaches_the_prs(self, monkeypatch, capsys):
        # a shared monomial used to defeat the image test, and the PRS then
        # found only content, which the factor base does not learn
        status, entries = kernel_entries(
            monkeypatch, capsys, "_int_prs_gcd",
            ["verify", "guillot", "--rho=x*z - y^2", "--f=y/(x + z)"])
        assert status == 1
        assert entries <= 4

    def test_candidate_request_computes_each_gcd_once(self, monkeypatch, capsys):
        # 356 kernel entries without the memo, for 124 distinct pairs of maps
        status, entries = kernel_entries(
            monkeypatch, capsys, "_int_gcd", ["verify", "dh_symmetric", "--rho=x - 2", "--f=y"])
        assert status == 1
        assert entries <= 124

    def test_nonzero_checks_are_never_sampled(self, capsys):
        status = main(["sample", "guillot"])
        out = capsys.readouterr().out
        assert status == 0
        assert "PASS frobenius.alpha" in out
        assert not [line for line in out.splitlines()
                    if line.startswith("oracle frobenius.alpha ")]


def kernel_entries(monkeypatch, capsys, name, argv):
    """(exit status, calls of algebra.<name> made while no call of it is
    running) for one request that starts with no built-in system, gcd memo
    or factor base."""
    from mcflow import algebra

    original = getattr(algebra, name)
    depth, calls = [0], []

    def counting(*args):
        if not depth[0]:
            calls.append(None)
        depth[0] += 1
        try:
            return original(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(algebra, name, counting)
    monkeypatch.setattr(algebra, "_factor_base", [], raising=False)
    monkeypatch.setattr(algebra, "_gcd_memo", {}, raising=False)
    mcflow.systems.builtin.cache_clear()
    try:
        status = main(argv)
    finally:
        mcflow.systems.builtin.cache_clear()
    capsys.readouterr()
    return status, len(calls)


class TestDocumentStability:
    def test_byte_identical_reports(self):
        a, _ = run_json(["verify", "guillot", "--points", "3"])
        b, _ = run_json(["verify", "guillot", "--points", "3"])
        assert json.dumps(a, indent=2) == json.dumps(b, indent=2)

    def test_schema_covers_all_commands(self, schema):
        for argv in (
            ["verify", "dh_symmetric", "--points", "2"],
            ["derive", "dh_symmetric"],
            ["integrate", "dh_symmetric", "--t", "0.05"],
            ["sample", "heisenberg_example", "--points", "2"],
        ):
            document, _ = run_json(argv)
            jsonschema.validate(document, schema)


class TestEntryPoint:
    def test_main_prints_text(self, capsys):
        status = main(["verify", "guillot", "--points", "2"])
        captured = capsys.readouterr()
        assert status == 0
        assert "M = 1/(2*y^3*z)" in captured.out
        assert "PASS" in captured.out
        assert "MISMATCH" in captured.out  # concordance lines are informational

    def test_main_json_mode(self, capsys):
        status = main(["derive", "guillot", "--json"])
        captured = capsys.readouterr()
        document = json.loads(captured.out)
        assert status == 0
        assert document["command"] == "derive"

    def test_main_json_flag_abbreviation(self, capsys):
        # a unique prefix names its option; the output must follow the flag
        status = main(["derive", "guillot", "--jso"])
        document = json.loads(capsys.readouterr().out)
        assert status == 0
        assert document["command"] == "derive"

    def test_main_parses_argv_once(self, monkeypatch, capsys):
        # main() renders --json from the request run() parsed, prefix and all
        parses = []
        parse = mcflow.cli._parse_args

        def counting(argv):
            parses.append(list(argv))
            return parse(argv)

        monkeypatch.setattr(mcflow.cli, "_parse_args", counting)
        status = main(["derive", "guillot", "--jso"])
        assert status == 0 and capsys.readouterr().out.startswith("{")
        assert parses == [["derive", "guillot", "--jso"]]

    def test_module_invocation(self, capsys):
        # the console entry prints what main() prints, byte for byte
        for argv in (["verify", "guillot"], ["verify", "guillot", "--json"],
                     ["integrate", "heisenberg_example"]):
            status = main(argv)
            expected = capsys.readouterr().out.encode()
            result = subprocess.run([sys.executable, "-m", "mcflow.cli", *argv],
                                    env=child_env(), capture_output=True)
            assert (result.returncode, result.stdout) == (status, expected)

    @pytest.mark.parametrize("call, collecting", [("console_main()", False),
                                                  ("raise SystemExit(main())", True)],
                             ids=["console_main", "main"])
    def test_only_the_console_entry_turns_the_collector_off(self, call, collecting, capsys):
        # the console entry runs without the collector and ends without
        # interpreter teardown, yet its atexit callbacks run and what they
        # write reaches both streams; main() leaves the collector on
        argv = ["verify", "guillot", "--rho=x + 1", "--f=y"]
        status = main(argv)
        report = capsys.readouterr().out
        probe = (
            "import atexit, gc, sys\n"
            "atexit.register(lambda: (print('atexit'),\n"
            "                         sys.stderr.write(f'collector on: {gc.isenabled()}')))\n"
            f"sys.argv[1:] = {argv!r}\n"
            "from mcflow.cli import console_main, main\n"
            f"{call}\n"
        )
        done = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                              capture_output=True, text=True)
        assert status == 1
        assert (done.returncode, done.stderr) == (status, f"collector on: {collecting}")
        assert done.stdout == report + "atexit\n"


class TestWithoutTheCollector:
    """A console request runs with the cyclic collector off, which is sound
    while no request leaves a garbage cycle behind."""

    GOLDEN = Path(__file__).parent / "golden"
    REQUESTS = [
        *([command, name] for name in BUILTIN_NAMES for command in sorted(mcflow.cli._COMMANDS)),
        ["derive", "guillot", "--json"],
        ["verify", str(GOLDEN / "guillot_conj0_tri2.sys")],
        ["verify", "guillot", "--rho=x + 1", "--f=y"],
        ["verify", "guillot", "--rho=x +"],
        ["integrate", "guillot", "--from", "0,0,0"],
        ["verify", "guillot", "--points", "0"],
    ]

    def test_no_request_leaves_a_garbage_cycle(self, capsys):
        statuses = set()
        gc.collect()
        gc.disable()
        try:
            for argv in self.REQUESTS:
                # the standard library's indented JSON encoder leaves a cycle
                # of its own closures behind on every call; run() of the same
                # request without --json is one of the other rows
                left = 0
                if "--json" in argv:
                    json.dumps(run(argv)[0], indent=2)
                    left = gc.collect()
                statuses.add(main(argv))
                capsys.readouterr()
                assert (argv, gc.collect()) == (argv, left)
        finally:
            gc.enable()
        assert statuses == {0, 1, 2, 3}


class TestUnwritableReport:
    """A report that cannot be written exits 1 with one line on stderr."""

    @staticmethod
    def assert_one_line(done, reason):
        assert done.returncode == 1
        assert done.stderr == f"mcflow: cannot write the report: {reason}\n"

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["verify", "guillot"], ["derive", "heisenberg_example"]],
                             ids=["verify", "derive"])
    def test_closed_pipe(self, argv, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = child_env(**({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
        try:
            done = subprocess.run([sys.executable, "-m", "mcflow.cli", *argv], env=env,
                                  stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        self.assert_one_line(done, "[Errno 32] Broken pipe")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device(self):
        with open("/dev/full", "wb") as full:
            done = subprocess.run([sys.executable, "-m", "mcflow.cli", "verify", "guillot"],
                                  env=child_env(), stdout=full, stderr=subprocess.PIPE,
                                  text=True)
        self.assert_one_line(done, "[Errno 28] No space left on device")

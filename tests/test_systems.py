from fractions import Fraction

import pytest

from mcflow.algebra import Poly3, RationalFunction
from mcflow.mcframe import (
    FrameError,
    all_hold,
    bihamiltonian_verify,
    curl_identities,
    heisenberg_verify,
    potential_from_gamma,
    verify_duality,
    verify_maurer_cartan,
    verify_sl2,
)
from mcflow.parser import _parse_value, parse_rational, parse_system
from mcflow.systems import (
    BUILTIN_NAMES,
    UnknownSystemError,
    builtin,
    concordance,
    dh_reduction_check,
    grading_check,
    system_source,
)

X = Poly3.variable("x")
Y = Poly3.variable("y")
Z = Poly3.variable("z")


def rf(num, den=1):
    return RationalFunction(num, den)


class TestBuiltins:
    def test_unknown_name(self):
        with pytest.raises(UnknownSystemError):
            builtin("lorenz")

    def test_guillot_flow(self):
        system = builtin("guillot")
        assert system.spec.v == (
            rf(X**2 + Y**4),
            rf(X * Y),
            rf(2 * Y**2 * Z - X * Z),
        )
        assert system.frame is not None
        assert system.frame.M == rf(Poly3.const(1), 2 * Z * Y**3)
        assert {name for name, _ in system.spec.integrals} == {"H1", "H2_plus", "H2_minus"}

    def test_guillot_multiplier_hint_consistent(self):
        system = builtin("guillot")
        assert system.spec.multiplier_hint == system.frame.M

    def test_dh_symmetric_flow(self):
        system = builtin("dh_symmetric")
        assert system.spec.v == (rf(Y, 2), rf(3 * Z), rf(4 * X * Z - Y**2, 2))
        assert system.spec.integrals == ()
        delta = (
            72 * X * Y * Z - 16 * Y**3 + 4 * X**2 * Y**2 - 16 * X**3 * Z - 108 * Z**2
        )
        assert system.frame.M == rf(Poly3.const(1)) / rf(delta)

    def test_dh_classic_has_t_chart_and_no_frame(self):
        system = builtin("dh_classic")
        assert system.spec.variables == ("t1", "t2", "t3")
        assert system.frame is None
        assert system.spec.u is None and system.spec.w is None

    def test_heisenberg_frame(self):
        system = builtin("heisenberg_example")
        assert system.frame is None
        assert system.heisenberg is not None
        assert all_hold(heisenberg_verify(system.heisenberg))

    def test_every_builtin_round_trips_through_the_file_format(self):
        # every component and integral re-parses from its printed form
        for name in BUILTIN_NAMES:
            spec = builtin(name).spec
            chart = spec.variables
            for value in (*spec.v, *(spec.u or ()), *(spec.w or ()), spec.multiplier_hint):
                if value is not None:
                    assert parse_rational(str(value), chart) == value
            for _, h in spec.integrals:
                assert _parse_value(str(h), chart, 1, 1, allow_log=True) == h

    def test_shipped_sources_parse_to_the_builtins(self):
        for name in BUILTIN_NAMES:
            assert parse_system(system_source(name)) == builtin(name).spec


class TestFullPipelines:
    def test_guillot_full_suite(self):
        system = builtin("guillot")
        frame = system.frame
        assert all_hold(verify_sl2(frame.v, frame.u, frame.w))
        assert all_hold(verify_duality(frame))
        assert all_hold(verify_maurer_cartan(frame.alpha, frame.beta, frame.gamma))
        assert all_hold(curl_identities(frame))
        assert potential_from_gamma(frame) == Fraction(2)
        integrals = dict(system.spec.integrals)
        for label in ("H2_plus", "H2_minus"):
            checks = bihamiltonian_verify(
                frame.v, frame.M, integrals["H1"], integrals[label], label
            )
            assert all_hold(checks)

    def test_dh_symmetric_full_suite(self):
        frame = builtin("dh_symmetric").frame
        assert all_hold(verify_sl2(frame.v, frame.u, frame.w))
        assert all_hold(verify_duality(frame))
        assert all_hold(verify_maurer_cartan(frame.alpha, frame.beta, frame.gamma))
        assert all_hold(curl_identities(frame))
        assert potential_from_gamma(frame) == Fraction(2)


class TestConcordance:
    def test_guillot_mismatch_pattern(self):
        rows = concordance(builtin("guillot"))
        by_key = {(row["form"], row["component"]): row["status"] for row in rows}
        assert by_key[("alpha", "dx")] == "match"
        assert by_key[("alpha", "dy")] == "match"
        assert by_key[("alpha", "dz")] == "match"
        assert by_key[("beta", "dy")] == "match"
        assert by_key[("beta", "dz")] == "match"
        assert by_key[("gamma", "dx")] == "match"
        assert by_key[("gamma", "dy")] == "mismatch"
        assert by_key[("gamma", "dz")] == "mismatch"
        assert by_key[("potential", "dy")] == "mismatch"

    def test_rows_carry_the_report_keys_in_order(self):
        for row in concordance(builtin("guillot")):
            assert list(row) == ["form", "component", "status", "computed", "printed",
                                 "difference"]

    def test_guillot_gamma_dy_mismatch_is_a_sign_flip(self):
        rows = {(row["form"], row["component"]): row for row in concordance(builtin("guillot"))}
        row = rows[("gamma", "dy")]
        computed = rf(Y**4 + 4 * X * Y**2 - X**2, 2 * Y**3)
        assert row["computed"] == str(computed)
        assert row["difference"] == str(computed * 2)

    def test_dh_mismatch_only_in_gamma_dx(self):
        rows = concordance(builtin("dh_symmetric"))
        mismatches = [(row["form"], row["component"]) for row in rows
                      if row["status"] == "mismatch"]
        assert mismatches == [("gamma", "dx")]

    def test_heisenberg_has_no_concordance_section(self):
        assert concordance(builtin("heisenberg_example")) == []


class TestReduction:
    def test_all_three_components_reduce(self):
        checks = dh_reduction_check()
        assert all_hold(checks)
        assert [c.name for c in checks] == [
            "reduction.xdot",
            "reduction.ydot",
            "reduction.zdot",
        ]


class TestGrading:
    def test_dh_symmetric_weights(self):
        checks = grading_check(builtin("dh_symmetric"))
        assert all_hold(checks)
        assert [c.status for c in checks] == ["holds"] * 4

    def test_guillot_not_applicable(self):
        checks = grading_check(builtin("guillot"))
        assert [c.status for c in checks] == ["not_applicable"]
        assert all_hold(checks)

    def test_frameless_system_rejected(self):
        with pytest.raises(FrameError):
            grading_check(builtin("dh_classic"))

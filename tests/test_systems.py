from fractions import Fraction

import pytest

from mcflow.algebra import Poly3, RationalFunction
from mcflow.mcframe import (
    FrameError,
    bihamiltonian_verify,
    curl_identities,
    heisenberg_verify,
    potential_from_gamma,
    verify_duality,
    verify_maurer_cartan,
    verify_sl2,
)
from mcflow.parser import parse_system, serialize_system
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
        assert heisenberg_verify(system.heisenberg).ok

    def test_every_builtin_round_trips_through_the_file_format(self):
        for name in BUILTIN_NAMES:
            spec = builtin(name).spec
            assert parse_system(serialize_system(spec)) == spec

    def test_shipped_sources_parse_to_the_builtins(self):
        for name in BUILTIN_NAMES:
            assert parse_system(system_source(name)) == builtin(name).spec


class TestFullPipelines:
    def test_guillot_full_suite(self):
        system = builtin("guillot")
        frame = system.frame
        assert verify_sl2(frame.v, frame.u, frame.w).ok
        assert verify_duality(frame).ok
        assert verify_maurer_cartan(frame.alpha, frame.beta, frame.gamma).ok
        assert curl_identities(frame).ok
        assert potential_from_gamma(frame).scale == Fraction(2)
        h1 = system.spec.integral("H1")
        for label in ("H2_plus", "H2_minus"):
            report = bihamiltonian_verify(
                frame.v, frame.M, h1, system.spec.integral(label), "guillot", label
            )
            assert report.ok

    def test_dh_symmetric_full_suite(self):
        frame = builtin("dh_symmetric").frame
        assert verify_sl2(frame.v, frame.u, frame.w).ok
        assert verify_duality(frame).ok
        assert verify_maurer_cartan(frame.alpha, frame.beta, frame.gamma).ok
        assert curl_identities(frame).ok
        assert potential_from_gamma(frame).scale == Fraction(2)


class TestConcordance:
    def test_guillot_mismatch_pattern(self):
        entries = concordance(builtin("guillot"))
        by_key = {(e.form, e.component): e for e in entries}
        assert by_key[("alpha", "dx")].status == "match"
        assert by_key[("alpha", "dy")].status == "match"
        assert by_key[("alpha", "dz")].status == "match"
        assert by_key[("beta", "dy")].status == "match"
        assert by_key[("beta", "dz")].status == "match"
        assert by_key[("gamma", "dx")].status == "match"
        assert by_key[("gamma", "dy")].status == "mismatch"
        assert by_key[("gamma", "dz")].status == "mismatch"
        assert by_key[("potential", "dy")].status == "mismatch"

    def test_guillot_gamma_dy_mismatch_is_a_sign_flip(self):
        entries = {(e.form, e.component): e for e in concordance(builtin("guillot"))}
        entry = entries[("gamma", "dy")]
        computed = rf(Y**4 + 4 * X * Y**2 - X**2, 2 * Y**3)
        assert entry.computed == str(computed)
        assert entry.difference == str(computed * 2)

    def test_dh_mismatch_only_in_gamma_dx(self):
        entries = concordance(builtin("dh_symmetric"))
        mismatches = [(e.form, e.component) for e in entries if e.status == "mismatch"]
        assert mismatches == [("gamma", "dx")]

    def test_heisenberg_has_no_concordance_section(self):
        assert concordance(builtin("heisenberg_example")) == ()


class TestReduction:
    def test_all_three_components_reduce(self):
        report = dh_reduction_check()
        assert report.ok
        assert [c.name for c in report.checks] == [
            "reduction.xdot",
            "reduction.ydot",
            "reduction.zdot",
        ]


class TestGrading:
    def test_dh_symmetric_weights(self):
        report = grading_check(builtin("dh_symmetric"))
        assert report.ok
        assert [c.status for c in report.checks] == ["holds"] * 4

    def test_guillot_not_applicable(self):
        report = grading_check(builtin("guillot"))
        assert [c.status for c in report.checks] == ["not_applicable"]
        assert report.ok

    def test_frameless_system_rejected(self):
        with pytest.raises(FrameError):
            grading_check(builtin("dh_classic"))

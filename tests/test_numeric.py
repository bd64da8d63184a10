import math
from fractions import Fraction

import pytest

from mcflow.algebra import Point3, Poly3, RationalFunction
from mcflow.calculus import KForm, LogIntegral, VectorField3
from mcflow.mcframe import build_frame, potential_from_gamma, verify_sl2
from mcflow.numeric import (
    InconclusiveSample,
    SingularityAbort,
    conservation_drift,
    convergence_order,
    finite_difference_check,
    rk4_integrate,
    sample_agreement,
    sample_identity,
)

X = Poly3.variable("x")
Y = Poly3.variable("y")
Z = Poly3.variable("z")


def rf(num, den=1):
    return RationalFunction(num, den)


def guillot_frame():
    return build_frame(
        VectorField3(X**2 + Y**4, X * Y, 2 * Y**2 * Z - X * Z),
        VectorField3(2 * X, Y, -Z),
        VectorField3(-1, 0, 0),
        name="guillot",
    )


def guillot_h1():
    return LogIntegral(rf(X**2, Y**2) - rf(Y**2), [])


def guillot_h2_plus():
    return LogIntegral(
        rf(Poly3.zero()),
        [
            (Fraction(1), rf(X + Y**2)),
            (Fraction(-3, 2), rf(Y)),
            (Fraction(-1, 2), rf(Z)),
        ],
    )


class TestRk4:
    def test_harmonic_oscillator_period(self):
        field = VectorField3(Y, -X, 0)
        trajectory = rk4_integrate(field, Point3.real(1, 0, 0), 2 * math.pi, 1e-3)
        final = trajectory.states[-1]
        assert abs(final[0] - 1.0) < 1e-8
        assert abs(final[1]) < 1e-8

    def test_zero_field_is_constant(self):
        trajectory = rk4_integrate(VectorField3.zero(), Point3.real(2, 3, 4), 1.0, 0.1)
        assert all(state == (2.0, 3.0, 4.0) for state in trajectory.states)

    def test_uniform_step_grid(self):
        trajectory = rk4_integrate(VectorField3.zero(), Point3.real(0, 0, 0), 0.01, 1e-3)
        assert len(trajectory.times) == 11
        diffs = {
            round(b - a, 12)
            for a, b in zip(trajectory.times, trajectory.times[1:])
        }
        assert diffs == {1e-3}

    def test_singularity_abort(self):
        field = VectorField3(rf(Poly3.const(1), Y), rf(Poly3.const(-1)), 0)
        with pytest.raises(SingularityAbort) as info:
            rk4_integrate(field, Point3.real(0, 1, 0), 2.0, 1e-3)
        assert 0.9 < info.value.last_safe_time <= 1.01

    def test_finite_time_blow_up_aborts(self):
        # x' = x^2 from x = 1 reaches infinity at t = 1; the float
        # evaluation overflows instead of meeting a vanishing denominator
        with pytest.raises(SingularityAbort) as info:
            rk4_integrate(VectorField3(X**2, 0, 0), Point3.real(1, 0, 0), 2.0, 1e-3)
        assert 0.9 < info.value.last_safe_time <= 1.01


class TestConservationDrift:
    def test_guillot_invariants(self):
        frame = guillot_frame()
        trajectory = rk4_integrate(frame.v, Point3.real(1, 1, 1), 0.2, 1e-3)
        assert conservation_drift(guillot_h1(), trajectory) < 1e-8
        assert conservation_drift(guillot_h2_plus(), trajectory) < 1e-7

    def test_constant_on_frozen_flow(self):
        trajectory = rk4_integrate(VectorField3.zero(), Point3.real(1, 2, 3), 1.0, 0.1)
        assert conservation_drift(LogIntegral(rf(X), []), trajectory) == 0.0

    def test_convergence_order(self):
        frame = guillot_frame()
        order = convergence_order(frame.v, Point3.real(1, 1, 1), 0.2, 2e-3)
        assert abs(order - 4.0) <= 0.3


class TestSampleIdentity:
    def test_exact_zero_residual_passes(self):
        v = VectorField3(X**2 + Y**4, X * Y, 2 * Y**2 * Z - X * Z)
        u = VectorField3(2 * X, Y, -Z)
        w = VectorField3(-1, 0, 0)
        report = verify_sl2(v, u, w)
        verdict = sample_identity(report.checks[0].residual_obj, n=25, name="sl2.uv")
        assert verdict.passed
        assert verdict.points_tried == 25
        assert verdict.max_abs_residual == 0.0

    def test_constant_residual_fails(self):
        alpha = KForm.one_form(1, 0, 0)
        beta = KForm.one_form(0, 1, 0)
        residual = beta.d() + alpha.wedge(beta).scale(2)
        verdict = sample_identity(residual, n=25, name="structure.dbeta")
        assert not verdict.passed
        assert verdict.max_abs_residual == pytest.approx(2.0)

    def test_singular_draws_skipped(self):
        verdict = sample_identity(rf(Poly3.const(1), Y), n=10, name="pole")
        assert verdict.points_tried == 10
        assert not verdict.passed

    def test_determinism(self):
        residual = rf(X * Y - Z)
        a = sample_identity(residual, n=25, seed=7, name="probe")
        b = sample_identity(residual, n=25, seed=7, name="probe")
        assert a == b
        c = sample_identity(residual, n=25, seed=8, name="probe")
        assert c != a

    def test_all_singular_is_inconclusive(self):
        with pytest.raises(InconclusiveSample):
            sample_identity(rf(Poly3.const(1), Y), n=5, box=(0.0, 0.0), name="stuck")

    def test_overflowing_draws_are_skipped(self):
        # x^2 overflows a float on this box, so no draw can be evaluated
        with pytest.raises(InconclusiveSample):
            sample_identity(rf(X**2), n=5, box=(1e300, 1e301), name="huge")

    @pytest.mark.parametrize("residual, box", [
        # 10^300 x^2 and 10^300 y^2 are inf on this box, so the float value
        # is inf - inf = nan although the residual is far from zero
        (rf(10**300 * X**2 - 10**300 * Y**2 + 1), (1e5, 2e5)),
        # x*y*z is inf on this box, so 1/(x*y*z) would read 0
        (rf(Poly3.const(1), X * Y * Z), (1e150, 1e151)),
    ])
    def test_non_finite_residual_never_passes(self, residual, box):
        try:
            verdict = sample_identity(residual, n=25, box=box, name="non-finite")
        except InconclusiveSample:
            return
        assert not verdict.passed

    def test_failed_identity_has_visible_witness(self):
        v = VectorField3(X**2 + Y**4, X * Y, 2 * Y**2 * Z - X * Z)
        report = verify_sl2(v, v, v)
        residual = report.checks[0].residual_obj
        verdict = sample_identity(residual, n=100, name="bad")
        assert verdict.max_abs_residual > 1e-6


class TestSampleAgreement:
    def test_structure_equation_sides_agree(self):
        frame = guillot_frame()
        verdict = sample_agreement(
            frame.beta.d(), frame.alpha.wedge(frame.beta).scale(-2), name="dbeta"
        )
        assert verdict.passed
        assert verdict.max_abs_residual == 0.0

    def test_disagreement_detected(self):
        lhs = KForm.one_form(rf(X), 0, 0)
        rhs = KForm.one_form(rf(X + Y), 0, 0)
        verdict = sample_agreement(lhs, rhs, name="mismatch")
        assert not verdict.passed


class TestFiniteDifference:
    def test_guillot_potential_curl(self):
        frame = guillot_frame()
        potential = potential_from_gamma(frame)
        error = finite_difference_check("curl", potential.A, Point3.real(1, 1, 1), 1e-4)
        assert error < 1e-6

    def test_gradient_of_constant(self):
        error = finite_difference_check("grad", rf(Poly3.const(3)), Point3.real(1, 2, 3), 1e-4)
        assert error < 1e-12

    def test_second_order_accuracy(self):
        f = rf(X**3 * Y + Z**2 * X) + rf(Y**3, X)
        coarse = finite_difference_check("grad", f, Point3.real(1.3, 0.7, 0.9), 1e-3)
        fine = finite_difference_check("grad", f, Point3.real(1.3, 0.7, 0.9), 5e-4)
        assert coarse / fine == pytest.approx(4.0, rel=0.35)

    def test_div_and_d_kinds(self):
        field = VectorField3(X**2 * Y, Y * Z, Z**2 * X)
        assert finite_difference_check("div", field, Point3.real(1, 1, 1), 1e-4) < 1e-6
        form = KForm.one_form(rf(X * Y), rf(Y * Z), rf(Z * X))
        assert finite_difference_check("d", form, Point3.real(1, 1, 1), 1e-4) < 1e-6


class TestOracleAgreementAcrossModules:
    def test_every_guillot_identity_passes_the_oracle(self):
        from mcflow.mcframe import (
            curl_identities,
            verify_duality,
            verify_maurer_cartan,
        )

        frame = guillot_frame()
        report = (
            verify_sl2(frame.v, frame.u, frame.w, "guillot")
            .merged(verify_duality(frame))
            .merged(verify_maurer_cartan(frame.alpha, frame.beta, frame.gamma, "guillot"))
            .merged(curl_identities(frame))
        )
        for check in report.checks:
            if check.status != "holds" or check.residual_obj is None:
                continue
            if check.name == "structure.dalpha_nonzero":
                continue  # witness object is intentionally nonzero
            verdict = sample_identity(check.residual_obj, n=25, name=check.name)
            assert verdict.passed, check.name

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mcflow.algebra import Poly3, RationalFunction
from mcflow.calculus import KForm, LogIntegral, VectorField3
from mcflow.mcframe import build_frame, potential_from_gamma, verify_sl2
from mcflow.numeric import (
    GRID_DENOMINATOR,
    SingularEvaluation,
    SingularityAbort,
    conservation_drift,
    rk4_integrate,
    sample_identity,
)
from test_acceptance import convergence_order

X = Poly3.variable("x")
Y = Poly3.variable("y")
Z = Poly3.variable("z")

# the default --tol: a sampled value below it counts as zero
TOLERANCE = 1e-12
# the default --box
BOX = (-3.0, 3.0)


def last_safe_time(abort: SingularityAbort) -> float:
    return float(str(abort).rsplit(" ", 1)[1])


def rf(num, den=1):
    return RationalFunction(num, den)


def guillot_frame():
    return build_frame(
        VectorField3(X**2 + Y**4, X * Y, 2 * Y**2 * Z - X * Z),
        VectorField3(2 * X, Y, -Z),
        VectorField3(-1, 0, 0),
    )


def guillot_h1():
    return LogIntegral(rf(X**2, Y**2) - rf(Y**2), [])


def guillot_h2_plus():
    return LogIntegral(
        rf(Poly3.const(0)),
        [
            (Fraction(1), rf(X + Y**2)),
            (Fraction(-3, 2), rf(Y)),
            (Fraction(-1, 2), rf(Z)),
        ],
    )


class TestRk4:
    def test_harmonic_oscillator_period(self):
        field = VectorField3(Y, -X, 0)
        _, states = rk4_integrate(field, (1.0, 0.0, 0.0), 2 * math.pi, 1e-3)
        final = states[-1]
        assert abs(final[0] - 1.0) < 1e-8
        assert abs(final[1]) < 1e-8

    def test_zero_field_is_constant(self):
        _, states = rk4_integrate(VectorField3(0, 0, 0), (2.0, 3.0, 4.0), 1.0, 0.1)
        assert all(state == (2.0, 3.0, 4.0) for state in states)

    def test_uniform_step_grid(self):
        times, _ = rk4_integrate(VectorField3(0, 0, 0), (0.0, 0.0, 0.0), 0.01, 1e-3)
        assert len(times) == 11
        diffs = {round(b - a, 12) for a, b in zip(times, times[1:])}
        assert diffs == {1e-3}

    def test_singularity_abort(self):
        field = VectorField3(rf(Poly3.const(1), Y), rf(Poly3.const(-1)), 0)
        with pytest.raises(SingularityAbort) as info:
            rk4_integrate(field, (0.0, 1.0, 0.0), 2.0, 1e-3)
        assert 0.9 < last_safe_time(info.value) <= 1.01

    def test_finite_time_blow_up_aborts(self):
        # x' = x^2 from x = 1 reaches infinity at t = 1; the float
        # evaluation overflows instead of meeting a vanishing denominator
        with pytest.raises(SingularityAbort) as info:
            rk4_integrate(VectorField3(X**2, 0, 0), (1.0, 0.0, 0.0), 2.0, 1e-3)
        assert 0.9 < last_safe_time(info.value) <= 1.01

    def test_four_field_evaluations_per_step(self, monkeypatch):
        # the slope where a step lands is the next step's first stage, so
        # 200 steps take one evaluation at the start and four per step
        from mcflow import numeric

        original = numeric._finite_values
        calls = []

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(numeric, "_finite_values", counting)
        times, _ = rk4_integrate(guillot_frame().v, (1.0, 1.0, 1.0), 0.2, 1e-3)
        assert len(times) == 201
        assert len(calls) == 801


class TestConservationDrift:
    def test_guillot_invariants(self):
        frame = guillot_frame()
        trajectory = rk4_integrate(frame.v, (1.0, 1.0, 1.0), 0.2, 1e-3)
        assert conservation_drift(guillot_h1(), *trajectory) < 1e-8
        assert conservation_drift(guillot_h2_plus(), *trajectory) < 1e-7

    def test_constant_on_frozen_flow(self):
        trajectory = rk4_integrate(VectorField3(0, 0, 0), (1.0, 2.0, 3.0), 1.0, 0.1)
        assert conservation_drift(LogIntegral(rf(X), []), *trajectory) == 0.0

    def test_value_that_overflows_is_singular(self):
        # x*y is inf on this trajectory: inf - inf is nan, which max() passes over
        trajectory = rk4_integrate(VectorField3(0, 0, 1), (1e200, 1e200, 1.0), 0.2, 1e-3)
        with pytest.raises(SingularEvaluation):
            conservation_drift(LogIntegral(rf(X * Y), []), *trajectory)

    def test_convergence_order(self):
        frame = guillot_frame()
        order = convergence_order(frame.v, (1.0, 1.0, 1.0), 0.2, 2e-3)
        assert abs(order - 4.0) <= 0.3


# the exact zero of each type a check residual has
ZERO_RESIDUALS = [RationalFunction.const(0), VectorField3(0, 0, 0),
                  *(KForm(grade, (0,) * math.comb(3, grade)) for grade in range(4))]
# every box that --box accepts with bounds up to 1e300 in magnitude
grid_boxes = st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2).map(sorted).filter(
    lambda box: math.ceil(box[0] * GRID_DENOMINATOR) <= math.floor(box[1] * GRID_DENOMINATOR))


class TestSampleIdentity:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(ZERO_RESIDUALS), st.integers(1, 400), grid_boxes, st.integers(),
           st.text())
    def test_an_exact_zero_evaluates_to_zero_at_every_point(self, zero, n, box, seed, name):
        # the row cli derives for an exact zero residual, without drawing
        assert repr(sample_identity(zero, n=n, box=tuple(box), seed=seed, name=name)) \
            == repr((n, 0.0))

    def test_exact_zero_residual_passes(self):
        v = VectorField3(X**2 + Y**4, X * Y, 2 * Y**2 * Z - X * Z)
        u = VectorField3(2 * X, Y, -Z)
        w = VectorField3(-1, 0, 0)
        checks = verify_sl2(v, u, w)
        assert sample_identity(checks[0].residual_obj, n=25, box=BOX, seed=0, name="sl2.uv") \
            == (25, 0.0)

    def test_constant_residual_fails(self):
        alpha = KForm(1, (1, 0, 0))
        beta = KForm(1, (0, 1, 0))
        residual = beta.d() + alpha.wedge(beta).scale(2)
        points, worst = sample_identity(residual, n=25, box=BOX, seed=0, name="structure.dbeta")
        assert points == 25
        assert worst == pytest.approx(2.0)

    def test_singular_draws_skipped(self):
        points, worst = sample_identity(rf(Poly3.const(1), Y), n=10, box=BOX, seed=0, name="pole")
        assert points == 10
        assert worst >= TOLERANCE

    def test_determinism(self):
        residual = rf(X * Y - Z)
        a = sample_identity(residual, n=25, seed=7, box=BOX, name="probe")
        b = sample_identity(residual, n=25, seed=7, box=BOX, name="probe")
        assert a == b
        c = sample_identity(residual, n=25, seed=8, box=BOX, name="probe")
        assert c != a

    def test_all_singular_is_inconclusive(self):
        assert sample_identity(rf(Poly3.const(1), Y), n=5, box=(0.0, 0.0), seed=0, name="stuck") \
            == (0, 0.0)

    def test_overflowing_draws_are_skipped(self):
        # x^2 overflows a float on this box, so no draw can be evaluated
        assert sample_identity(rf(X**2), n=5, box=(1e300, 1e301), seed=0, name="huge") == (0, 0.0)

    @pytest.mark.parametrize("residual, box", [
        # 10^300 x^2 and 10^300 y^2 are inf on this box, so the float value
        # is inf - inf = nan although the residual is far from zero
        (rf(10**300 * X**2 - 10**300 * Y**2 + 1), (1e5, 2e5)),
        # x*y*z is inf on this box, so 1/(x*y*z) would read 0
        (rf(Poly3.const(1), X * Y * Z), (1e150, 1e151)),
    ])
    def test_non_finite_residual_never_passes(self, residual, box):
        points, worst = sample_identity(residual, n=25, box=box, seed=0, name="non-finite")
        assert points == 0 or worst >= TOLERANCE

    def test_failed_identity_has_visible_witness(self):
        v = VectorField3(X**2 + Y**4, X * Y, 2 * Y**2 * Z - X * Z)
        residual = verify_sl2(v, v, v)[0].residual_obj
        _, worst = sample_identity(residual, n=100, box=BOX, seed=0, name="bad")
        assert worst > 1e-6


class TestSampleAgreement:
    # both sides evaluated exactly at rational points, with no symbolic
    # cancellation between them
    POINTS = (
        (Fraction(1, 2), Fraction(3), Fraction(-2)),
        (Fraction(-1), Fraction(5, 8), Fraction(7, 3)),
        (Fraction(2), Fraction(-1), Fraction(1)),
    )

    def test_structure_equation_sides_agree(self):
        frame = guillot_frame()
        lhs = frame.beta.d()
        rhs = frame.alpha.wedge(frame.beta).scale(-2)
        for point in self.POINTS:
            assert [c.eval(point) for c in lhs.coeffs] == [c.eval(point) for c in rhs.coeffs]

    def test_disagreement_detected(self):
        lhs = KForm(1, (rf(X), 0, 0))
        rhs = KForm(1, (rf(X + Y), 0, 0))
        assert any(lhs.coeffs[0].eval(p) != rhs.coeffs[0].eval(p) for p in self.POINTS)


def _central_difference(f, coords, axis, h):
    forward, backward = list(coords), list(coords)
    forward[axis] += h
    backward[axis] -= h
    return (f.eval(tuple(map(float, forward))) - f.eval(tuple(map(float, backward)))) / (2 * h)


def finite_difference_error(form, coords, h):
    """Max |d(form) - its central-difference approximation| at a point, for a
    form of grade 0 (gradient), 1 (curl) or 2 (divergence)."""
    c = form.coeffs

    def partial(f, axis):
        return _central_difference(f, coords, axis, h)

    if form.grade == 0:
        approx = [partial(c[0], axis) for axis in range(3)]
    elif form.grade == 1:
        approx = [partial(c[2], 1) - partial(c[1], 2),
                  partial(c[0], 2) - partial(c[2], 0),
                  partial(c[1], 0) - partial(c[0], 1)]
    else:
        approx = [partial(c[0], 0) + partial(c[1], 1) + partial(c[2], 2)]
    exact = [f.eval(tuple(map(float, coords))) for f in form.d().coeffs]
    return max(abs(e - a) for e, a in zip(exact, approx))


class TestFiniteDifference:
    def test_guillot_potential_curl(self):
        # the potential A is the covector of gamma; its scale must exist
        frame = guillot_frame()
        assert potential_from_gamma(frame) == 2
        error = finite_difference_error(KForm(1, frame.gamma.covector().components), (1, 1, 1),
                                        1e-4)
        assert error < 1e-6

    def test_gradient_of_constant(self):
        error = finite_difference_error(KForm(0, (rf(Poly3.const(3)),)), (1, 2, 3), 1e-4)
        assert error < 1e-12

    def test_second_order_accuracy(self):
        f = KForm(0, (rf(X**3 * Y + Z**2 * X) + rf(Y**3, X),))
        coarse = finite_difference_error(f, (1.3, 0.7, 0.9), 1e-3)
        fine = finite_difference_error(f, (1.3, 0.7, 0.9), 5e-4)
        assert coarse / fine == pytest.approx(4.0, rel=0.35)

    def test_div_and_d_kinds(self):
        flux = KForm(2, (X**2 * Y, Y * Z, Z**2 * X))
        assert finite_difference_error(flux, (1, 1, 1), 1e-4) < 1e-6
        form = KForm(1, (rf(X * Y), rf(Y * Z), rf(Z * X)))
        assert finite_difference_error(form, (1, 1, 1), 1e-4) < 1e-6


class TestOracleAgreementAcrossModules:
    def test_every_guillot_identity_passes_the_oracle(self):
        from mcflow.mcframe import curl_identities, verify_duality

        frame = guillot_frame()
        alpha, beta, gamma = frame.alpha, frame.beta, frame.gamma
        residuals = [
            (check.name, check.residual_obj)
            for check in verify_sl2(frame.v, frame.u, frame.w) + verify_duality(frame)
        ] + [
            ("structure.dbeta", beta.d() + alpha.wedge(beta).scale(2)),
            ("structure.dalpha", alpha.d() - gamma.wedge(beta)),
            ("structure.dgamma", gamma.d() - alpha.wedge(gamma).scale(2)),
        ] + [(check.name, check.residual_obj) for check in curl_identities(frame)]
        for name, residual in residuals:
            points, worst = sample_identity(residual, n=25, box=BOX, seed=0, name=name)
            assert points > 0 and worst < TOLERANCE, name

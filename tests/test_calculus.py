import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mcflow.algebra import Point3, Poly3, RationalFunction
from mcflow.calculus import (
    GradeError,
    KForm,
    LogIntegral,
    VectorField3,
    ZeroLogArgumentError,
    cross,
    div,
    dot,
    flux_form,
    lie_bracket,
    triple,
)

X = Poly3.variable("x")
Y = Poly3.variable("y")
Z = Poly3.variable("z")


def rf(num, den=1):
    return RationalFunction(num, den)


DX = KForm.one_form(1, 0, 0)
DY = KForm.one_form(0, 1, 0)
DZ = KForm.one_form(0, 0, 1)

GUILLOT_V = VectorField3(X**2 + Y**4, X * Y, 2 * Y**2 * Z - X * Z)
GUILLOT_U = VectorField3(2 * X, Y, -Z)
GUILLOT_W = VectorField3(-1, 0, 0)
GUILLOT_M = rf(Poly3.const(1), 2 * Z * Y**3)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(
    lambda c: c != 0
)
exponents = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


@st.composite
def polys(draw, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        terms[draw(exponents)] = draw(coefficients)
    return Poly3(terms)


@st.composite
def poly_functions(draw):
    return rf(draw(polys()))


@st.composite
def one_forms(draw):
    return KForm.one_form(draw(poly_functions()), draw(poly_functions()), draw(poly_functions()))


@st.composite
def two_forms(draw):
    return KForm.two_form(draw(poly_functions()), draw(poly_functions()), draw(poly_functions()))


@st.composite
def fields(draw):
    return VectorField3(draw(polys()), draw(polys()), draw(polys()))


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------


class TestWedge:
    def test_dx_wedge_dx_vanishes(self):
        assert DX.wedge(DX).is_zero()

    def test_antisymmetry_on_basis(self):
        assert DX.wedge(DY) == KForm.two_form(0, 0, 1)
        assert DY.wedge(DX) == KForm.two_form(0, 0, -1)

    def test_grade_overflow(self):
        vol = KForm.volume(1)
        with pytest.raises(GradeError):
            vol.wedge(DX)

    def test_one_wedge_two_is_dot_times_volume(self):
        a = KForm.one_form(rf(X), rf(Y), rf(Z))
        b = KForm.two_form(rf(Y), rf(Z), rf(X))
        assert a.wedge(b) == KForm.volume(rf(X * Y + Y * Z + Z * X))
        assert b.wedge(a) == a.wedge(b)

    @settings(max_examples=40, deadline=None)
    @given(one_forms(), one_forms())
    def test_one_forms_anticommute(self, a, b):
        assert a.wedge(b) == -(b.wedge(a))

    @settings(max_examples=40, deadline=None)
    @given(one_forms(), one_forms(), one_forms())
    def test_associativity_to_volume(self, a, b, c):
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


# ---------------------------------------------------------------------------
# exterior derivative
# ---------------------------------------------------------------------------


class TestExteriorDerivative:
    def test_scalar_gradient(self):
        f = KForm.scalar(rf(X**2 * Y))
        assert f.d() == KForm.one_form(rf(2 * X * Y), rf(X**2), 0)

    def test_heisenberg_omega2(self):
        omega2 = KForm.one_form(0, 1, rf(-X))
        omega1 = DX
        omega3 = DZ
        assert omega2.d() == omega3.wedge(omega1)
        assert omega2.d() == KForm.two_form(0, 1, 0)

    def test_volume_input_rejected(self):
        with pytest.raises(GradeError):
            KForm.volume(1).d()

    @settings(max_examples=40, deadline=None)
    @given(poly_functions())
    def test_dd_scalar_is_zero(self, f):
        assert KForm.scalar(f).d().d().is_zero()

    @settings(max_examples=40, deadline=None)
    @given(one_forms())
    def test_dd_one_form_is_zero(self, omega):
        assert omega.d().d().is_zero()

    def test_dd_bulk_sweep(self):
        # 500 seeded instances across grades 0 and 1, degree <= 4
        rng = random.Random(41)

        def poly():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                terms[(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))] = (
                    Fraction(rng.randint(-5, 5)) or Fraction(1)
                )
            return rf(Poly3(terms))

        for k in range(500):
            if k % 2:
                assert KForm.scalar(poly()).d().d().is_zero()
            else:
                assert KForm.one_form(poly(), poly(), poly()).d().d().is_zero()

    @settings(max_examples=30, deadline=None)
    @given(one_forms(), one_forms())
    def test_graded_leibniz_1_1(self, a, b):
        assert a.wedge(b).d() == a.d().wedge(b) - a.wedge(b.d())

    @settings(max_examples=30, deadline=None)
    @given(poly_functions(), one_forms())
    def test_graded_leibniz_0_1(self, f, omega):
        fa = KForm.scalar(f)
        assert fa.wedge(omega).d() == fa.d().wedge(omega) + fa.wedge(omega.d())

    @settings(max_examples=30, deadline=None)
    @given(two_forms())
    def test_chart_dictionary_div(self, beta):
        assert beta.d() == KForm.volume(div(beta.covector()))


# ---------------------------------------------------------------------------
# interior product
# ---------------------------------------------------------------------------


class TestInteriorProduct:
    def test_basis_contractions(self):
        ddx = VectorField3(1, 0, 0)
        assert DX.interior(ddx) == KForm.scalar(rf(Poly3.const(1)))
        assert DY.interior(ddx) == KForm.scalar(rf(Poly3.zero()))

    def test_guillot_duality_pairing(self):
        beta = KForm.one_form(0, rf(Poly3.const(1), 2 * Y**3), rf(Poly3.const(1), 2 * Z * Y**2))
        assert beta.interior(GUILLOT_V) == KForm.scalar(rf(Poly3.const(1)))

    def test_volume_contraction_is_flux(self):
        contracted = KForm.volume(1).interior(GUILLOT_V)
        assert contracted == KForm.two_form(X**2 + Y**4, X * Y, 2 * Y**2 * Z - X * Z)
        assert contracted == flux_form(GUILLOT_V)

    def test_scalar_input_rejected(self):
        with pytest.raises(GradeError):
            KForm.scalar(1).interior(GUILLOT_V)

    @settings(max_examples=30, deadline=None)
    @given(fields(), two_forms())
    def test_nilpotent_on_two_forms(self, x, beta):
        assert beta.interior(x).interior(x).is_zero()

    @settings(max_examples=30, deadline=None)
    @given(fields(), one_forms(), one_forms())
    def test_graded_derivation_1_1(self, x, a, b):
        lhs = a.wedge(b).interior(x)
        rhs = b.scale(a.interior(x).coeffs[0]) - a.scale(b.interior(x).coeffs[0])
        assert lhs == rhs

    @settings(max_examples=30, deadline=None)
    @given(fields(), one_forms(), two_forms())
    def test_graded_derivation_1_2(self, x, a, beta):
        lhs = a.wedge(beta).interior(x)
        rhs = beta.scale(a.interior(x).coeffs[0]) - a.wedge(beta.interior(x))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Lie bracket and Lie derivative
# ---------------------------------------------------------------------------


class TestLieBracket:
    def test_guillot_uv_bracket(self):
        assert lie_bracket(GUILLOT_U, GUILLOT_V) == GUILLOT_V.scale(2)

    def test_self_bracket_vanishes(self):
        assert lie_bracket(GUILLOT_V, GUILLOT_V).is_zero()

    def test_heisenberg_commutator(self):
        u = VectorField3(0, X, 1)
        v = VectorField3(0, 1, 0)
        w = VectorField3(1, 0, 0)
        assert lie_bracket(w, u) == v
        assert lie_bracket(v, w).is_zero()
        assert lie_bracket(v, u).is_zero()

    @settings(max_examples=15, deadline=None)
    @given(fields(), fields(), fields())
    def test_jacobi_identity(self, x, y, z):
        total = (
            lie_bracket(x, lie_bracket(y, z))
            + lie_bracket(y, lie_bracket(z, x))
            + lie_bracket(z, lie_bracket(x, y))
        )
        assert total.is_zero()

    @settings(max_examples=20, deadline=None)
    @given(fields(), fields())
    def test_antisymmetry(self, x, y):
        assert lie_bracket(x, y) == -lie_bracket(y, x)


class TestLieDerivative:
    # Cartan's formula L_X = d iota_X + iota_X d, written out in d and interior
    def test_volume_expansion_rate(self):
        expanded = KForm.volume(1).interior(GUILLOT_V).d()
        assert expanded == KForm.volume(rf(2 * X + 2 * Y**2))
        assert div(GUILLOT_V) == rf(2 * X + 2 * Y**2)

    def test_scalar_case_is_directional_derivative(self):
        f = rf(X * Y + Z)
        assert KForm.scalar(f).d().interior(GUILLOT_V) == KForm.scalar(GUILLOT_V.apply(f))

    def test_invariant_volume_is_killed(self):
        invariant = KForm.volume(GUILLOT_M)
        assert invariant.interior(GUILLOT_V).d().is_zero()

    @settings(max_examples=20, deadline=None)
    @given(fields(), one_forms())
    def test_matches_coordinate_formula_on_one_forms(self, x, omega):
        # independent formula: (L_X w)_i = X^j d_j w_i + w_j d_i X^j
        names = omega.chart
        comps = []
        for i in range(3):
            total = x.apply(omega.coeffs[i])
            for j in range(3):
                total = total + omega.coeffs[j] * x.components[j].diff(names[i])
            comps.append(total)
        assert omega.interior(x).d() + omega.d().interior(x) == KForm.one_form(*comps)


# ---------------------------------------------------------------------------
# vector calculus
# ---------------------------------------------------------------------------


class TestVectorCalc:
    def test_guillot_invariant_divergence(self):
        assert div(GUILLOT_V.scale(GUILLOT_M)).is_zero()

    def test_dh_symmetric_volume(self):
        v = VectorField3(rf(Y, 2), 3 * Z, rf(4 * X * Z - Y**2, 2))
        u = VectorField3(2 * X, 4 * Y, 6 * Z)
        w = VectorField3(-6, -4 * X, -2 * Y)
        expected = (
            72 * X * Y * Z - 16 * Y**3 + 4 * X**2 * Y**2 - 16 * X**3 * Z - 108 * Z**2
        )
        assert triple(v, u, w) == rf(expected)

    def test_curl_of_gradient(self):
        assert KForm.scalar(rf(X**2 * Y + Z)).d().d().is_zero()

    @settings(max_examples=25, deadline=None)
    @given(poly_functions())
    def test_curl_grad_always_zero(self, f):
        assert KForm.scalar(f).d().d().is_zero()

    @settings(max_examples=25, deadline=None)
    @given(fields())
    def test_div_curl_always_zero(self, x):
        assert div(KForm.from_covector(x).d().covector()).is_zero()

    @settings(max_examples=25, deadline=None)
    @given(fields(), fields())
    def test_cross_is_antisymmetric(self, a, b):
        assert cross(a, b) == -cross(b, a)
        assert dot(cross(a, b), a).is_zero()


# ---------------------------------------------------------------------------
# log-combination integrals
# ---------------------------------------------------------------------------


class TestLogIntegral:
    def test_dlog_x(self):
        h = LogIntegral(rf(Poly3.zero()), [(Fraction(1), rf(X))])
        assert h.differential() == KForm.one_form(rf(Poly3.const(1), X), 0, 0)

    def test_guillot_h1_differential(self):
        h1 = LogIntegral(rf(X**2, Y**2) - rf(Y**2), [])
        d = h1.differential()
        assert d == KForm.one_form(
            rf(2 * X, Y**2), rf(-2 * X**2, Y**3) - rf(2 * Y), 0
        )

    def test_guillot_h2_differential(self):
        h2 = LogIntegral(
            rf(Poly3.zero()),
            [
                (Fraction(1), rf(X + Y**2)),
                (Fraction(-3, 2), rf(Y)),
                (Fraction(-1, 2), rf(Z)),
            ],
        )
        d = h2.differential()
        expected = (
            KForm.one_form(rf(Poly3.const(1), X + Y**2), rf(2 * Y, X + Y**2), 0)
            + KForm.one_form(0, rf(Poly3.const(-3), 2 * Y), 0)
            + KForm.one_form(0, 0, rf(Poly3.const(-1), 2 * Z))
        )
        assert d == expected

    def test_zero_argument_rejected(self):
        with pytest.raises(ZeroLogArgumentError):
            LogIntegral(rf(X), [(Fraction(1), rf(Poly3.zero()))])

    def test_first_integral_contraction(self):
        h1 = LogIntegral(rf(X**2, Y**2) - rf(Y**2), [])
        assert h1.differential().interior(GUILLOT_V).is_zero()

    def test_float_evaluation(self):
        h = LogIntegral(rf(X), [(Fraction(2), rf(Y))])
        import math

        value = h.eval_float(Point3.real(0.5, 3.0, 1.0))
        assert value == pytest.approx(0.5 + 2 * math.log(3.0))

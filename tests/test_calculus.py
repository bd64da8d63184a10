import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mcflow.algebra import ChartMismatchError, Poly3, RationalFunction, as_rational
from mcflow.calculus import (
    GradeError,
    KForm,
    LogIntegral,
    VectorField3,
    ZeroLogArgumentError,
    cross,
    div,
    dot,
    lie_bracket,
)

X = Poly3.variable("x")
Y = Poly3.variable("y")
Z = Poly3.variable("z")


def rf(num, den=1):
    return RationalFunction(num, den)


def poly(terms, chart=("x", "y", "z")):
    """The sum of c * x^a * y^b * z^e over the term map {(a, b, e): c}."""
    x, y, z = (Poly3.variable(name, chart) for name in chart)
    total = Poly3.const(0, chart)
    for (a, b, e), c in terms.items():
        total = total + Poly3.const(c, chart) * x**a * y**b * z**e
    return total


DX = KForm(1, (1, 0, 0))
DY = KForm(1, (0, 1, 0))
DZ = KForm(1, (0, 0, 1))

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
@st.composite
def polys(draw, max_terms=4, degree=2):
    exponents = st.tuples(*[st.integers(0, degree)] * 3)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        terms[draw(exponents)] = draw(coefficients)
    return poly(terms)


@st.composite
def poly_functions(draw):
    return rf(draw(polys()))


@st.composite
def one_forms(draw):
    return KForm(1, (draw(poly_functions()), draw(poly_functions()), draw(poly_functions())))


@st.composite
def two_forms(draw):
    return KForm(2, (draw(poly_functions()), draw(poly_functions()), draw(poly_functions())))


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
        assert DX.wedge(DY) == KForm(2, (0, 0, 1))
        assert DY.wedge(DX) == KForm(2, (0, 0, -1))

    def test_grade_overflow(self):
        vol = KForm(3, (1,))
        with pytest.raises(GradeError):
            vol.wedge(DX)

    def test_one_wedge_two_is_dot_times_volume(self):
        a = KForm(1, (rf(X), rf(Y), rf(Z)))
        b = KForm(2, (rf(Y), rf(Z), rf(X)))
        assert a.wedge(b) == KForm(3, (rf(X * Y + Y * Z + Z * X),))
        assert b.wedge(a) == a.wedge(b)

    @settings(max_examples=40, deadline=None)
    @given(one_forms(), one_forms())
    def test_one_forms_anticommute(self, a, b):
        assert a.wedge(b) == b.wedge(a).scale(-1)

    @settings(max_examples=40, deadline=None)
    @given(one_forms(), one_forms(), one_forms())
    def test_associativity_to_volume(self, a, b, c):
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


# ---------------------------------------------------------------------------
# exterior derivative
# ---------------------------------------------------------------------------


class TestExteriorDerivative:
    def test_scalar_gradient(self):
        f = KForm(0, (rf(X**2 * Y),))
        assert f.d() == KForm(1, (rf(2 * X * Y), rf(X**2), 0))

    def test_heisenberg_omega2(self):
        omega2 = KForm(1, (0, 1, rf(-X)))
        omega1 = DX
        omega3 = DZ
        assert omega2.d() == omega3.wedge(omega1)
        assert omega2.d() == KForm(2, (0, 1, 0))

    def test_volume_input_rejected(self):
        with pytest.raises(GradeError):
            KForm(3, (1,)).d()

    @settings(max_examples=40, deadline=None)
    @given(poly_functions())
    def test_dd_scalar_is_zero(self, f):
        assert KForm(0, (f,)).d().d().is_zero()

    @settings(max_examples=40, deadline=None)
    @given(one_forms())
    def test_dd_one_form_is_zero(self, omega):
        assert omega.d().d().is_zero()

    def test_dd_bulk_sweep(self):
        # 500 seeded instances across grades 0 and 1, degree <= 4
        rng = random.Random(41)

        def random_function():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                terms[(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))] = (
                    Fraction(rng.randint(-5, 5)) or Fraction(1)
                )
            return rf(poly(terms))

        for k in range(500):
            if k % 2:
                assert KForm(0, (random_function(),)).d().d().is_zero()
            else:
                omega = KForm(1, (random_function(), random_function(), random_function()))
                assert omega.d().d().is_zero()

    @settings(max_examples=30, deadline=None)
    @given(one_forms(), one_forms())
    def test_graded_leibniz_1_1(self, a, b):
        assert a.wedge(b).d() == a.d().wedge(b) - a.wedge(b.d())

    @settings(max_examples=30, deadline=None)
    @given(poly_functions(), one_forms())
    def test_graded_leibniz_0_1(self, f, omega):
        # d(f omega) = df ^ omega + f d(omega)
        df = KForm(0, (f,)).d()
        assert omega.scale(f).d() == df.wedge(omega) + omega.d().scale(f)

    @settings(max_examples=30, deadline=None)
    @given(two_forms())
    def test_chart_dictionary_div(self, beta):
        assert beta.d() == KForm(3, (div(beta.covector()),))


# ---------------------------------------------------------------------------
# interior product
# ---------------------------------------------------------------------------


class TestInteriorProduct:
    def test_basis_contractions(self):
        ddx = VectorField3(1, 0, 0)
        assert DX.interior(ddx) == KForm(0, (rf(Poly3.const(1)),))
        assert DY.interior(ddx) == KForm(0, (rf(Poly3.const(0)),))

    def test_guillot_duality_pairing(self):
        beta = KForm(1, (0, rf(Poly3.const(1), 2 * Y**3), rf(Poly3.const(1), 2 * Z * Y**2)))
        assert beta.interior(GUILLOT_V) == KForm(0, (rf(Poly3.const(1)),))

    def test_scalar_input_rejected(self):
        with pytest.raises(GradeError):
            KForm(0, (1,)).interior(GUILLOT_V)

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
        assert lie_bracket(x, y) == lie_bracket(y, x).scale(-1)


class TestLieDerivative:
    # Cartan's formula L_X = d iota_X + iota_X d, written out in d and interior;
    # iota_X (rho dx^dy^dz) is the 2-form with coefficients rho X
    def test_volume_expansion_rate(self):
        expanded = KForm(2, GUILLOT_V.components).d()
        assert expanded == KForm(3, (rf(2 * X + 2 * Y**2),))
        assert div(GUILLOT_V) == rf(2 * X + 2 * Y**2)

    def test_scalar_case_is_directional_derivative(self):
        f = rf(X * Y + Z)
        assert KForm(0, (f,)).d().interior(GUILLOT_V) == KForm(0, (GUILLOT_V.apply(f),))

    def test_invariant_volume_is_killed(self):
        assert KForm(2, GUILLOT_V.scale(GUILLOT_M).components).d().is_zero()

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
        assert omega.interior(x).d() + omega.d().interior(x) == KForm(1, comps)


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
        assert dot(cross(v, u), w) == rf(expected)

    def test_curl_of_gradient(self):
        assert KForm(0, (rf(X**2 * Y + Z),)).d().d().is_zero()

    @settings(max_examples=25, deadline=None)
    @given(poly_functions())
    def test_curl_grad_always_zero(self, f):
        assert KForm(0, (f,)).d().d().is_zero()

    @settings(max_examples=25, deadline=None)
    @given(fields())
    def test_div_curl_always_zero(self, x):
        assert div(KForm(1, x.components).d().covector()).is_zero()

    @settings(max_examples=25, deadline=None)
    @given(fields(), fields())
    def test_cross_is_antisymmetric(self, a, b):
        assert cross(a, b) == cross(b, a).scale(-1)
        assert dot(cross(a, b), a).is_zero()


# ---------------------------------------------------------------------------
# the operators against per-coefficient rational arithmetic
# ---------------------------------------------------------------------------

# Each reference chains RationalFunction *, + and diff coefficient by
# coefficient, normalising every step; the operators build each coefficient
# over one common denominator and normalise it once.  Canonical forms are
# unique, so the two must agree exactly.


def ref_cross(p, q):
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def ref_dot(p, q):
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def ref_d(form):
    x, y, z = form.chart
    a = form.coeffs
    if form.grade == 0:
        return (a[0].diff(x), a[0].diff(y), a[0].diff(z))
    if form.grade == 1:
        return (a[2].diff(y) - a[1].diff(z), a[0].diff(z) - a[2].diff(x),
                a[1].diff(x) - a[0].diff(y))
    return (a[0].diff(x) + a[1].diff(y) + a[2].diff(z),)


def ref_apply(field, f):
    total = RationalFunction.const(0, field.chart)
    for comp, name in zip(field.components, field.chart):
        if not comp.is_zero():
            total = total + comp * f.diff(name)
    return total


def ref_bracket(a, b):
    return tuple(ref_apply(a, q) - ref_apply(b, p) for p, q in zip(a.components, b.components))


# degree at most 1 per axis keeps the products of denominators small
small_polys = polys(max_terms=3, degree=1)
nonzero_small_polys = small_polys.filter(lambda p: not p.is_zero())


@st.composite
def rational_triples(draw):
    """Coefficients over the denominators the operators meet: one shared D
    and its square, an unrelated E, their product, constants, and zeros."""
    shared, unrelated = draw(nonzero_small_polys), draw(nonzero_small_polys)
    denominators = st.sampled_from([Poly3.const(1), Poly3.const(3), shared, shared**2,
                                    unrelated, shared * unrelated])
    return tuple(rf(draw(small_polys), draw(denominators)) for _ in range(3))


class TestCommonDenominatorOperators:
    @settings(max_examples=60, deadline=None)
    @given(rational_triples(), rational_triples())
    def test_cross_and_dot(self, p, q):
        a, b = VectorField3(*p), VectorField3(*q)
        assert cross(a, b).components == ref_cross(p, q)
        assert dot(a, b) == ref_dot(p, q)
        assert KForm(1, p).wedge(KForm(1, q)).coeffs == ref_cross(p, q)
        assert KForm(2, p).interior(b).coeffs == ref_cross(p, q)
        assert KForm(1, p).wedge(KForm(2, q)).coeffs == (ref_dot(p, q),)

    @settings(max_examples=60, deadline=None)
    @given(rational_triples())
    def test_exterior_derivative_and_divergence(self, p):
        for form in (KForm(0, (p[0],)), KForm(1, p), KForm(2, p)):
            assert form.d().coeffs == ref_d(form)
        assert div(VectorField3(*p)) == ref_d(KForm(2, p))[0]

    @settings(max_examples=40, deadline=None)
    @given(rational_triples(), rational_triples())
    def test_directional_derivative_and_bracket(self, p, q):
        a, b = VectorField3(*p), VectorField3(*q)
        for f in q:
            assert a.apply(f) == ref_apply(a, f)
        assert lie_bracket(a, b).components == ref_bracket(a, b)

    def test_equal_and_power_denominators(self):
        d = X + Y * Z
        p = (rf(X, d), rf(Y, d**2), rf(Poly3.const(0), 1))
        q = (rf(1, d), rf(Z, 1), rf(X - Y, 2))
        a, b = VectorField3(*p), VectorField3(*q)
        assert cross(a, b).components == ref_cross(p, q)
        assert KForm(1, p).d().coeffs == ref_d(KForm(1, p))
        assert lie_bracket(a, b).components == ref_bracket(a, b)

    def test_charts_must_match(self):
        other = ("u", "v", "w")
        a = VectorField3(rf(X, Y + 1), Y, 0)
        b = VectorField3(rf(Poly3.variable("u", other), Poly3.variable("w", other) + 2), 1, 0)
        with pytest.raises(ChartMismatchError):
            cross(a, b)
        with pytest.raises(ChartMismatchError):
            dot(a, b)
        with pytest.raises(ChartMismatchError):
            KForm(1, a.components).interior(b)
        # the same variables in another order are another chart
        chart = ("y", "x", "z")
        swapped = VectorField3(rf(Poly3.variable("y", chart), Poly3.variable("x", chart) + 1),
                               1, Poly3.variable("z", chart))
        with pytest.raises(ChartMismatchError):
            lie_bracket(a, swapped)

    def test_the_chart_comes_from_the_coefficients(self):
        # all-constant coefficients take the default chart
        assert VectorField3(1, 0, Fraction(1, 2)).chart == ("x", "y", "z")
        assert KForm(3, (2,)).chart == ("x", "y", "z")
        # the first coefficient that carries a chart sets it for the rest
        t_chart = ("t1", "t2", "t3")
        t1 = rf(Poly3.variable("t1", t_chart))
        field = VectorField3(0, t1, 1)
        assert field.chart == t_chart
        assert all(c.chart == t_chart for c in field.components)
        form = KForm(1, (1, t1, 0))
        assert all(c.chart == t_chart for c in form.coeffs)
        # a Poly3 or RationalFunction on another chart is refused
        for stranger in (X, rf(X)):
            with pytest.raises(ChartMismatchError):
                as_rational(stranger, t_chart)
            with pytest.raises(ChartMismatchError):
                VectorField3(t1, stranger, 0)
            with pytest.raises(ChartMismatchError):
                KForm(2, (0, t1, stranger))


# ---------------------------------------------------------------------------
# log-combination integrals
# ---------------------------------------------------------------------------


class TestLogIntegral:
    def test_dlog_x(self):
        h = LogIntegral(rf(Poly3.const(0)), [(Fraction(1), rf(X))])
        assert h.differential() == KForm(1, (rf(Poly3.const(1), X), 0, 0))

    def test_guillot_h1_differential(self):
        h1 = LogIntegral(rf(X**2, Y**2) - rf(Y**2), [])
        d = h1.differential()
        assert d == KForm(1, (
            rf(2 * X, Y**2), rf(-2 * X**2, Y**3) - rf(2 * Y), 0,
        ))

    def test_guillot_h2_differential(self):
        h2 = LogIntegral(
            rf(Poly3.const(0)),
            [
                (Fraction(1), rf(X + Y**2)),
                (Fraction(-3, 2), rf(Y)),
                (Fraction(-1, 2), rf(Z)),
            ],
        )
        d = h2.differential()
        expected = (
            KForm(1, (rf(Poly3.const(1), X + Y**2), rf(2 * Y, X + Y**2), 0))
            + KForm(1, (0, rf(Poly3.const(-3), 2 * Y), 0))
            + KForm(1, (0, 0, rf(Poly3.const(-1), 2 * Z)))
        )
        assert d == expected

    def test_zero_argument_rejected(self):
        with pytest.raises(ZeroLogArgumentError):
            LogIntegral(rf(X), [(Fraction(1), rf(Poly3.const(0)))])

    def test_first_integral_contraction(self):
        h1 = LogIntegral(rf(X**2, Y**2) - rf(Y**2), [])
        assert h1.differential().interior(GUILLOT_V).is_zero()

    def test_float_evaluation(self):
        h = LogIntegral(rf(X), [(Fraction(2), rf(Y))])
        import math

        value = h.eval_float((0.5, 3.0, 1.0))
        assert value == pytest.approx(0.5 + 2 * math.log(3.0))

import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from mcflow.algebra import Poly3, RationalFunction
from mcflow.calculus import KForm, LogIntegral, VectorField3, cross, div, dot, lie_bracket
from mcflow.cli import main
from mcflow.mcframe import (
    DegenerateFrameError,
    Frame,
    InconsistencyError,
    all_hold,
    bihamiltonian_verify,
    build_frame,
    conformal_transform,
    curl_identities,
    frobenius_residual,
    heisenberg_brackets,
    heisenberg_verify,
    potential_from_gamma,
    sigma_residual,
    sigma_residual_factored,
    verify_duality,
    verify_maurer_cartan,
    verify_sl2,
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


def find(checks, name):
    """The check of that name."""
    return next(c for c in checks if c.name == name)


def structure_residuals(alpha, beta, gamma):
    """d(beta) + 2 alpha^beta, d(alpha) - gamma^beta and d(gamma) - 2 alpha^gamma,
    computed from d and wedge."""
    return (
        beta.d() + alpha.wedge(beta).scale(2),
        alpha.d() - gamma.wedge(beta),
        gamma.d() - alpha.wedge(gamma).scale(2),
    )


def e_alpha_gamma(structure):
    """The residuals of the rows structure.dalpha and structure.dgamma."""
    return (find(structure, "structure.dalpha").residual_obj,
            find(structure, "structure.dgamma").residual_obj)


def frobenius(omega):
    """omega ^ d(omega), computed from d and wedge."""
    return omega.wedge(omega.d())


def coordinate_frame():
    """The frame (v, u, w) = (e_y, e_x, e_z), whose coframe is
    (alpha, beta, gamma) = (dx, dy, dz)."""
    return build_frame(VectorField3(0, 1, 0), VectorField3(1, 0, 0), VectorField3(0, 0, 1))


def guillot_fields():
    v = VectorField3(X**2 + Y**4, X * Y, 2 * Y**2 * Z - X * Z)
    u = VectorField3(2 * X, Y, -Z)
    w = VectorField3(-1, 0, 0)
    return v, u, w


def dh_fields():
    v = VectorField3(rf(Y, 2), rf(3 * Z), rf(4 * X * Z - Y**2, 2))
    u = VectorField3(2 * X, 4 * Y, 6 * Z)
    w = VectorField3(-6, -4 * X, -2 * Y)
    return v, u, w


@pytest.fixture(scope="module")
def guillot():
    return build_frame(*guillot_fields())


@pytest.fixture(scope="module")
def dh():
    return build_frame(*dh_fields())


def guillot_h1():
    return LogIntegral(rf(X**2, Y**2) - rf(Y**2), [])


def guillot_h2(eps: int):
    # eps*log(eps*x + y^2) - (eps + 1/2)*log(y) - (1/2)*log(z)
    arg = rf(X + Y**2) if eps == 1 else rf(Y**2 - X)
    return LogIntegral(
        rf(Poly3.const(0)),
        [
            (Fraction(eps), arg),
            (Fraction(-(2 * eps + 1), 2), rf(Y)),
            (Fraction(-1, 2), rf(Z)),
        ],
    )


# ---------------------------------------------------------------------------
# sl(2) brackets and the multiplier
# ---------------------------------------------------------------------------


class TestVerifySl2:
    def test_guillot_holds(self):
        assert all_hold(verify_sl2(*guillot_fields()))

    def test_dh_holds(self):
        assert all_hold(verify_sl2(*dh_fields()))

    def test_degenerate_triple_fails_with_residual(self):
        v, _, _ = guillot_fields()
        report = verify_sl2(v, v, v)
        assert not all_hold(report)
        first = find(report, "sl2.uv")
        assert first.status == "fails"
        assert first.residual_obj == v.scale(-2)

    def test_last_multiplier_guillot(self):
        v, u, w = guillot_fields()
        assert build_frame(v, u, w).M == rf(Poly3.const(1), 2 * Z * Y**3)

    def test_last_multiplier_dh(self):
        v, u, w = dh_fields()
        delta = (
            72 * X * Y * Z - 16 * Y**3 + 4 * X**2 * Y**2 - 16 * X**3 * Z - 108 * Z**2
        )
        assert build_frame(v, u, w).M == rf(Poly3.const(1)) / rf(delta)

    def test_constant_orthonormal_frame(self):
        v = VectorField3(1, 0, 0)
        u = VectorField3(0, 1, 0)
        w = VectorField3(0, 0, 1)
        assert build_frame(v, u, w).M == rf(Poly3.const(1))

    def test_degenerate_frame_rejected(self):
        v = VectorField3(1, 0, 0)
        with pytest.raises(DegenerateFrameError):
            build_frame(v, v, v)


# ---------------------------------------------------------------------------
# dual one-forms
# ---------------------------------------------------------------------------


class TestDualForms:
    def test_guillot_alpha(self, guillot):
        assert guillot.alpha == KForm(1, (
            0, rf(2 * Y**2 - X, 2 * Y**3), rf(-X, 2 * Z * Y**2),
        ))

    def test_guillot_beta(self, guillot):
        assert guillot.beta == KForm(1, (
            0, rf(Poly3.const(1), 2 * Y**3), rf(Poly3.const(1), 2 * Z * Y**2),
        ))

    def test_guillot_gamma(self, guillot):
        assert guillot.gamma == KForm(1, (
            -1,
            rf(Y**4 + 4 * X * Y**2 - X**2, 2 * Y**3),
            rf(Y**4 - X**2, 2 * Z * Y**2),
        ))

    def test_dh_forms_match_multiplier_pattern(self, dh):
        m = dh.M
        assert dh.alpha == KForm(1, (
            m * rf(2 * X * Y**2 + 6 * Y * Z - 8 * X**2 * Z),
            m * rf(12 * X * Z - 4 * Y**2),
            m * rf(2 * X * Y - 18 * Z),
        ))
        assert dh.beta == KForm(1, (
            m * rf(4 * (6 * X * Z - 2 * Y**2)),
            m * rf(4 * (X * Y - 9 * Z)),
            m * rf(4 * (6 * Y - 2 * X**2)),
        ))
        assert dh.gamma == KForm(1, (
            m * rf(18 * Z**2 - 8 * X * Y * Z + 2 * Y**3),
            m * rf(4 * X**2 * Z - X * Y**2 - 3 * Y * Z),
            m * rf(2 * Y**2 - 6 * X * Z),
        ))


class TestDuality:
    def test_guillot(self, guillot):
        assert all_hold(verify_duality(guillot))

    def test_dh(self, dh):
        assert all_hold(verify_duality(dh))

    def test_scaled_gamma_breaks_one_pairing(self, guillot):
        broken = Frame(
            guillot.v,
            guillot.u,
            guillot.w,
            guillot.M,
            guillot.alpha,
            guillot.beta,
            guillot.gamma.scale(2),
        )
        report = verify_duality(broken)
        bad = find(report, "duality.w_gamma")
        assert bad.status == "fails"
        assert bad.residual_obj == rf(Poly3.const(1))
        others = [c for c in report if c.name != "duality.w_gamma"]
        assert all(c.status == "holds" for c in others)


# ---------------------------------------------------------------------------
# structure equations
# ---------------------------------------------------------------------------


class TestMaurerCartan:
    def test_guillot(self, guillot):
        report = verify_maurer_cartan(guillot, curl_identities(guillot))
        assert all_hold(report)
        assert find(report, "structure.dalpha_nonzero").status == "holds"
        assert all(r.is_zero() for r in structure_residuals(
            guillot.alpha, guillot.beta, guillot.gamma))

    def test_dh(self, dh):
        assert all_hold(verify_maurer_cartan(dh, curl_identities(dh)))
        assert all(r.is_zero() for r in structure_residuals(dh.alpha, dh.beta, dh.gamma))

    def test_coordinate_frame_fails(self):
        dx = KForm(1, (1, 0, 0))
        dy = KForm(1, (0, 1, 0))
        dz = KForm(1, (0, 0, 1))
        assert structure_residuals(dx, dy, dz)[0] == KForm(2, (0, 0, 2))
        frame = coordinate_frame()
        assert (frame.alpha, frame.beta, frame.gamma) == (dx, dy, dz)
        bad = find(verify_maurer_cartan(frame, curl_identities(frame)), "structure.dbeta")
        assert bad.status == "fails"
        assert bad.residual_obj == KForm(2, (0, 0, 2))

    def test_closed_alpha_fails_the_nonzero_check(self):
        frame = coordinate_frame()
        check = find(verify_maurer_cartan(frame, curl_identities(frame)),
                     "structure.dalpha_nonzero")
        assert check.status == "fails"
        assert check.residual == "d(alpha) == 0"
        assert check.residual_obj.is_zero()

    def test_wedge_route_matches_derivative_route(self, guillot):
        assert guillot.alpha.wedge(guillot.gamma).scale(2) == guillot.gamma.d()


# ---------------------------------------------------------------------------
# conformal transformations
# ---------------------------------------------------------------------------


class TestConformal:
    def test_identity_factor(self, guillot):
        alpha, beta, gamma = conformal_transform(guillot, rf(Poly3.const(1)))
        assert (alpha, beta, gamma) == (guillot.alpha, guillot.beta, guillot.gamma)

    def test_simple_factor_preserves_structure(self, guillot):
        alpha, beta, gamma = conformal_transform(guillot, rf(Y))
        assert all(r.is_zero() for r in structure_residuals(alpha, beta, gamma))
        assert not alpha.d().is_zero()

    def test_pairing_scales_with_rho(self, guillot):
        rho = rf(Y**2)
        _, beta, _ = conformal_transform(guillot, rho)
        assert beta.interior(guillot.v).coeffs[0] == rho

    def test_random_quadratic_factors(self, guillot):
        rng = random.Random(3)
        for _ in range(5):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                e = (rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1))
                if sum(e) > 2:
                    continue
                terms[e] = Fraction(rng.randint(-3, 3))
            rho = rf(poly(terms)) if terms else rf(Poly3.const(2))
            if rho.is_zero():
                rho = rf(Poly3.const(2))
            alpha, beta, gamma = conformal_transform(guillot, rho)
            assert all(r.is_zero() for r in structure_residuals(alpha, beta, gamma))
            assert not alpha.d().is_zero()

    def test_zero_factor_rejected(self, guillot):
        with pytest.raises(DegenerateFrameError):
            conformal_transform(guillot, rf(Poly3.const(0)))


# ---------------------------------------------------------------------------
# perturbed potential integrability
# ---------------------------------------------------------------------------


class TestSigmaResidual:
    def test_exact_beta_candidate(self):
        # frame with exact beta: alpha = dx, beta = dy, gamma arbitrary
        alpha = KForm(1, (1, 0, 0))
        beta = KForm(1, (0, 1, 0))
        gamma = KForm(1, (0, 0, 1))
        rho = rf(Poly3.const(1))
        f = rf(Y)  # df = dy = beta
        assert sigma_residual_factored(alpha, beta, gamma, f * rho).is_zero()

    def test_unperturbed_reduces_to_frobenius(self, guillot):
        curl = curl_identities(guillot)
        structure = verify_maurer_cartan(guillot, curl)
        residual, _ = sigma_residual(guillot.alpha, guillot.beta, guillot.gamma,
                                     rf(Poly3.const(0)), *e_alpha_gamma(structure))
        assert residual == frobenius(guillot.alpha)
        assert residual == frobenius_residual(guillot, curl)[2].residual_obj
        assert not residual.is_zero()

    def test_both_shapes_agree(self, guillot):
        rng = random.Random(11)
        for _ in range(4):
            rho = rf(poly({(rng.randint(0, 1), rng.randint(0, 1), 0): Fraction(rng.randint(1, 3)),
                            (0, 0, 0): Fraction(rng.randint(1, 4))}))
            f = rf(poly({(rng.randint(0, 1), 0, rng.randint(0, 1)): Fraction(rng.randint(-3, 3))}))
            alpha, beta, gamma = conformal_transform(guillot, rho)
            sigma = alpha + gamma.scale(f * rho)
            direct = frobenius(sigma)
            factored = sigma_residual_factored(alpha, beta, gamma, f * rho)
            assert direct == factored


def _reference_sigma(frame, rho, f):
    """Both residuals written out on the original frame:
    sigma = alpha - (1/2) d(rho)/rho + f gamma, with sigma ^ d(sigma), and
    (alpha - (1/2) d(rho)/rho) ^ (df + f d(rho)/rho - beta) ^ gamma."""
    dlog = KForm(0, (rho,)).d().scale(rho.reciprocal())
    alpha_bar = frame.alpha - dlog.scale(RationalFunction.const(Fraction(1, 2)))
    sigma = alpha_bar + frame.gamma.scale(f)
    middle = KForm(0, (f,)).d() + dlog.scale(f) - frame.beta
    return sigma.wedge(sigma.d()), alpha_bar.wedge(middle).wedge(frame.gamma)


def _random_poly(rng, degree=2):
    terms = {}
    while not terms:
        for _ in range(rng.randint(1, 3)):
            exps = (rng.randint(0, degree), rng.randint(0, degree), rng.randint(0, degree))
            if sum(exps) <= degree:
                terms[exps] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]))
    return poly(terms)


def _candidates(seed):
    """Seeded (rho, f) pairs: constant, negative-led and rational rho, rho
    sharing a factor with a denominator of M, polynomial and rational f."""
    rng = random.Random(seed)
    rhos = [
        rf(Poly3.const(rng.choice([2, 3, 7]))),
        rf(Poly3.const(-rng.randint(1, 5))),
        rf(-X * Y * Z - _random_poly(rng, 1)),
        rf(_random_poly(rng), _random_poly(rng, 1) + 1),
        rf(Y),
        rf(X * Y * Z),
        rf(Y**2 * _random_poly(rng, 1)),
    ]
    fs = [rf(Poly3.const(0)), rf(_random_poly(rng)), rf(_random_poly(rng), _random_poly(rng, 1) + 2)]
    return [(rho, f) for rho in rhos if not rho.is_zero() for f in fs]


@pytest.mark.parametrize("system", ["guillot", "dh"])
def test_sigma_on_the_transformed_frame_matches_the_original_definitions(system, request):
    frame = request.getfixturevalue(system)
    curl = curl_identities(frame)
    for rho, f in _candidates(17):
        direct, factored = _reference_sigma(frame, rho, f)
        alpha, beta, gamma = conformal_transform(frame, rho)
        structure = verify_maurer_cartan(frame, curl, rho)
        assert sigma_residual(alpha, beta, gamma, f * rho,
                              *e_alpha_gamma(structure))[0] == direct, (rho, f)
        assert sigma_residual_factored(alpha, beta, gamma, f * rho) == factored, (rho, f)


# random frames of degree-one fields: almost none closes sl(2), so the curl
# residuals R_gamma, R_beta, R_alpha are nonzero and each sign is tested
_small_coefficients = st.integers(-3, 3).filter(bool)
_linear_exponents = st.sampled_from([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


@st.composite
def _linear_polys(draw):
    return poly(draw(st.dictionaries(_linear_exponents, _small_coefficients, max_size=3)))


@st.composite
def _frames(draw):
    v, u, w = (VectorField3(*(draw(_linear_polys()) for _ in range(3))) for _ in range(3))
    assume(not dot(cross(v, u), w).is_zero())
    return build_frame(v, u, w)


@st.composite
def _rationals(draw, nonzero=False):
    num, den = draw(_linear_polys()), draw(_linear_polys())
    assume(not den.is_zero() and not (nonzero and num.is_zero()))
    return rf(num, den)


@settings(max_examples=30, deadline=None)
@given(_frames(), _rationals(nonzero=True), _rationals())
def test_rows_read_off_the_curl_residuals_match_the_general_computation(frame, rho, f):
    curl = curl_identities(frame)
    structure = verify_maurer_cartan(frame, curl)
    assert [c.residual_obj for c in structure] == [
        *structure_residuals(frame.alpha, frame.beta, frame.gamma), frame.alpha.d()]
    assert [c.residual_obj for c in frobenius_residual(frame, curl)] == [
        frobenius(omega) for omega in (frame.gamma, frame.beta, frame.alpha)]
    alpha, beta, gamma = conformal_transform(frame, rho)
    conformal = verify_maurer_cartan(frame, curl, rho)
    assert [c.residual_obj for c in conformal] == [
        *structure_residuals(alpha, beta, gamma), alpha.d()]
    g = f * rho
    sigma, agreement = sigma_residual(alpha, beta, gamma, g, *e_alpha_gamma(conformal))
    direct = frobenius(alpha + gamma.scale(g))
    assert sigma == direct
    assert agreement == direct - sigma_residual_factored(alpha, beta, gamma, g)


@settings(max_examples=30, deadline=None)
@given(_frames())
def test_heisenberg_rows_read_off_the_sl2_rows_match_the_general_computation(frame):
    v, u, w = frame.v, frame.u, frame.w
    sl2 = verify_sl2(v, u, w)
    brackets = heisenberg_brackets(v, u, w, sl2)
    assume(not all_hold(sl2) and not all_hold(brackets))
    assert [c.residual_obj for c in brackets] == [
        lie_bracket(v, w), lie_bracket(v, u), lie_bracket(w, u) - v]
    rows = {c.name: c.residual_obj for c in heisenberg_verify(frame, brackets)}
    omega1, omega2, omega3 = frame.gamma, frame.beta, frame.alpha
    assert rows["heisenberg.domega2"] == omega2.d() - omega3.wedge(omega1)
    triple = dot(cross(omega1.covector(), omega2.covector()), omega3.covector())
    assert rows["heisenberg.volume"] == triple - RationalFunction.const(1)


class TestFrobenius:
    @staticmethod
    def assert_dichotomy(frame):
        report = frobenius_residual(frame, curl_identities(frame))
        assert all_hold(report)
        gamma, beta, alpha = (c.residual_obj for c in report)
        assert gamma.is_zero()
        assert beta.is_zero()
        assert not alpha.is_zero()
        assert (gamma, beta, alpha) == tuple(
            frobenius(omega) for omega in (frame.gamma, frame.beta, frame.alpha))

    def test_guillot_dichotomy(self, guillot):
        self.assert_dichotomy(guillot)

    def test_dh_dichotomy(self, dh):
        self.assert_dichotomy(dh)

    def test_exact_form_is_integrable(self):
        omega = KForm(0, (rf(X**2 * Y + Z),)).d()
        assert frobenius(omega).is_zero()


# ---------------------------------------------------------------------------
# curl identities and potential
# ---------------------------------------------------------------------------


class TestCurlIdentities:
    def test_guillot(self, guillot):
        assert all_hold(curl_identities(guillot))

    def test_dh(self, dh):
        assert all_hold(curl_identities(dh))

    def test_unit_multiplier_breaks_divergence(self, guillot):
        fake = Frame(
            guillot.v,
            guillot.u,
            guillot.w,
            rf(Poly3.const(1)),
            guillot.alpha,
            guillot.beta,
            guillot.gamma,
        )
        report = curl_identities(fake)
        bad = find(report, "divergence.mv")
        assert bad.status == "fails"
        assert bad.residual_obj == rf(2 * X + 2 * Y**2)


class TestPotential:
    # the potential A is the covector of gamma, and curl(A) = s M v
    def test_guillot_potential(self, guillot):
        assert potential_from_gamma(guillot) == 2
        a = guillot.gamma.covector()
        assert a == VectorField3(
            -1,
            rf(Y**4 + 4 * X * Y**2 - X**2, 2 * Y**3),
            rf(Y**4 - X**2, 2 * Z * Y**2),
        )
        assert KForm(1, a.components).d().covector() == guillot.v.scale(guillot.M * 2)

    def test_dh_potential(self, dh):
        assert potential_from_gamma(dh) == 2
        assert dh.gamma.covector() == VectorField3(
            dh.M * rf(18 * Z**2 - 8 * X * Y * Z + 2 * Y**3),
            dh.M * rf(4 * X**2 * Z - X * Y**2 - 3 * Y * Z),
            dh.M * rf(2 * Y**2 - 6 * X * Z),
        )

    def test_inconsistent_gamma_rejected(self, guillot):
        tampered = Frame(
            guillot.v, guillot.u, guillot.w, guillot.M,
            guillot.alpha, guillot.beta, KForm(1, (rf(X), rf(Y), rf(Z))),
        )
        with pytest.raises(InconsistencyError):
            potential_from_gamma(tampered)


# ---------------------------------------------------------------------------
# Poisson vectors and bi-Hamiltonian structure
# ---------------------------------------------------------------------------


class TestJacobiResidual:
    # J is a Poisson vector iff J.(curl J) = 0, the Frobenius condition on J.dx
    def test_gradient_over_multiplier_is_poisson(self):
        f = rf(X**2 + Y**2)
        m = rf(Z)
        j = KForm(0, (f,)).d().scale(m.reciprocal())
        assert frobenius(j).is_zero()

    def test_rotation_field(self):
        assert frobenius(KForm(1, (Y, -X, 0))).is_zero()

    def test_cyclic_shift_residual(self):
        assert frobenius(KForm(1, (Z, X, Y))) == KForm(3, (rf(X + Y + Z),))

    def test_random_gradient_family(self):
        rng = random.Random(5)
        for _ in range(100):
            f_terms = {
                (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)):
                    Fraction(rng.randint(-4, 4))
                for _ in range(rng.randint(1, 3))
            }
            m_terms = {
                (rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1)):
                    Fraction(rng.randint(1, 4))
            }
            f = rf(poly(f_terms))
            m = rf(poly(m_terms))
            if m.is_zero():
                continue
            assert frobenius(KForm(0, (f,)).d().scale(m.reciprocal())).is_zero()


class TestBihamiltonian:
    @pytest.mark.parametrize("eps", [+1, -1])
    def test_guillot_decomposition(self, guillot, eps):
        report = bihamiltonian_verify(
            guillot.v, guillot.M, guillot_h1(), guillot_h2(eps),
            label=f"eps{eps:+d}", divergence=div(guillot.v.scale(guillot.M)),
        )
        assert all_hold(report)
        decomposition = find(report, f"bihamiltonian.decomposition[eps{eps:+d}]")
        assert "c = -2" in decomposition.anchor

    def test_non_integral_detected(self, guillot):
        h_bad = LogIntegral(rf(X), [])
        report = bihamiltonian_verify(guillot.v, guillot.M, h_bad, guillot_h2(1), "H2_plus",
                                      div(guillot.v.scale(guillot.M)))
        bad = find(report, "bihamiltonian.integral_h1[H2_plus]")
        assert bad.status == "fails"
        assert bad.residual_obj == rf(X**2 + Y**4)

    def test_decomposition_without_a_constant_fails(self, guillot):
        # dH1 ^ dH1 = 0 is no nonzero multiple of M iota_v(dx^dy^dz)
        report = bihamiltonian_verify(guillot.v, guillot.M, guillot_h1(), guillot_h1(), "H1",
                                      div(guillot.v.scale(guillot.M)))
        check = find(report, "bihamiltonian.decomposition[H1]")
        assert check.status == "fails"
        assert check.anchor == "dH2 ^ dH1 = c M iota_v(dx^dy^dz)"
        assert check.residual_obj == KForm(2, guillot.v.components).scale(guillot.M * -2)
        assert check.residual == str(check.residual_obj)
        assert not all_hold(report)


# ---------------------------------------------------------------------------
# Heisenberg realisation
# ---------------------------------------------------------------------------


def canonical_heisenberg():
    # (omega1, omega2, omega3) = (gamma, beta, alpha) = (dx, dy - x dz, dz)
    return Frame(
        VectorField3(0, 1, 0),
        VectorField3(0, X, 1),
        VectorField3(1, 0, 0),
        rf(Poly3.const(1)),
        KForm(1, (0, 0, 1)),
        KForm(1, (0, 1, rf(-X))),
        KForm(1, (1, 0, 0)),
    )


def heisenberg_rows(frame):
    """The Heisenberg bracket rows of the frame's fields, read off their
    sl(2) rows."""
    return heisenberg_brackets(frame.v, frame.u, frame.w, verify_sl2(frame.v, frame.u, frame.w))


class TestHeisenberg:
    def test_canonical_realisation(self):
        canonical = canonical_heisenberg()
        built = build_frame(canonical.v, canonical.u, canonical.w)
        assert [getattr(built, n) for n in Frame.__slots__] == \
            [getattr(canonical, n) for n in Frame.__slots__]
        assert all_hold(heisenberg_verify(canonical, heisenberg_rows(canonical)))

    def test_flat_omega2_breaks_structure(self):
        hf = canonical_heisenberg()
        broken = Frame(hf.v, hf.u, hf.w, hf.M, hf.alpha, KForm(1, (0, 1, 0)), hf.gamma)
        report = heisenberg_verify(broken, heisenberg_rows(broken))
        bad = find(report, "heisenberg.domega2")
        assert bad.status == "fails"
        assert bad.residual_obj == KForm(2, (0, -1, 0))

    def test_volume_is_unity(self):
        canonical = canonical_heisenberg()
        report = heisenberg_verify(canonical, heisenberg_rows(canonical))
        assert find(report, "heisenberg.volume").status == "holds"


# ---------------------------------------------------------------------------
# conjugated frames: bracket relations survive linear coordinate changes
# ---------------------------------------------------------------------------


def _adjugate_inverse(m):
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    if det == 0:
        return None
    cof = [
        [
            (m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
             - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3])
            for i in range(3)
        ]
        for j in range(3)
    ]
    return [[Fraction(cof[i][j], det) for j in range(3)] for i in range(3)]


def _conjugate(field: VectorField3, matrix, inverse) -> VectorField3:
    chart = field.chart
    images = []
    for row in inverse:
        image = RationalFunction.const(0, chart)
        for entry, name in zip(row, chart):
            image = image + RationalFunction(Poly3.variable(name, chart)) * entry
        images.append(image)
    polys = [image.num for image in images]  # each image is a polynomial over 1
    pushed = [RationalFunction(c.num.compose(polys), c.den.compose(polys))
              for c in field.components]
    new_components = []
    for row in matrix:
        total = RationalFunction.const(0, chart)
        for entry, comp in zip(row, pushed):
            total = total + comp * entry
        new_components.append(total)
    return VectorField3(*new_components)


class TestConjugatedFrames:
    def test_linear_changes_preserve_everything(self):
        rng = random.Random(23)
        v, u, w = guillot_fields()
        produced = 0
        while produced < 2:
            matrix = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
            inverse = _adjugate_inverse(matrix)
            if inverse is None:
                continue
            produced += 1
            cv, cu, cw = (_conjugate(f, matrix, inverse) for f in (v, u, w))
            frame = build_frame(cv, cu, cw)
            assert all_hold(verify_duality(frame))
            assert all(r.is_zero() for r in structure_residuals(
                frame.alpha, frame.beta, frame.gamma))
            assert not frame.alpha.d().is_zero()

    @staticmethod
    def heisenberg_conjugate_report(tmp_path, capsys, matrix):
        """Exit status and {check: status} of verify --json on the canonical
        Heisenberg triple pushed forward by the matrix, as a user file."""
        canonical, inverse = canonical_heisenberg(), _adjugate_inverse(matrix)
        lines = [f"{key}: " + "; ".join(map(str, _conjugate(f, matrix, inverse).components))
                 for key, f in (("v", canonical.v), ("u", canonical.u), ("w", canonical.w))]
        path = tmp_path / "heisenberg_conjugate.sys"
        path.write_text("name: heisenberg_conjugate\nvariables: x, y, z\n" + "\n".join(lines))
        status = main(["verify", str(path), "--json"])
        rows = json.loads(capsys.readouterr().out)["sections"]["checks"]
        return status, {row["check"]: row["status"] for row in rows}

    def test_unimodular_heisenberg_conjugate_verifies(self, tmp_path, capsys):
        matrix = [[Fraction(e) for e in row] for row in ((2, 1, 0), (1, 1, 0), (0, 3, 1))]
        status, rows = self.heisenberg_conjugate_report(tmp_path, capsys, matrix)
        assert status == 0
        assert list(rows) == [c.name for c in heisenberg_verify(
            canonical_heisenberg(), heisenberg_rows(canonical_heisenberg()))]
        assert set(rows.values()) == {"holds"}

    def test_heisenberg_conjugate_off_unit_determinant_fails_only_the_volume(
            self, tmp_path, capsys):
        # M = 1/det: every other Heisenberg relation survives the change
        matrix = [[Fraction(e) for e in row] for row in ((2, 1, 0), (1, 1, 0), (0, 3, 2))]
        status, rows = self.heisenberg_conjugate_report(tmp_path, capsys, matrix)
        assert status == 1
        assert all(name.startswith("heisenberg.") for name in rows)
        assert [name for name, s in rows.items() if s != "holds"] == ["heisenberg.volume"]

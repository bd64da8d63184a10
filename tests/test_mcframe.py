import random
from fractions import Fraction

import pytest

from mcflow.algebra import Poly3, RationalFunction
from mcflow.calculus import KForm, LogIntegral, VectorField3
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
    heisenberg_verify,
    last_multiplier,
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


def find(checks, name):
    """The check of that name."""
    return next(c for c in checks if c.name == name)


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
        rf(Poly3.zero()),
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
        assert first.residual_obj == -v.scale(2)

    def test_last_multiplier_guillot(self):
        v, u, w = guillot_fields()
        assert last_multiplier(v, u, w) == rf(Poly3.const(1), 2 * Z * Y**3)

    def test_last_multiplier_dh(self):
        v, u, w = dh_fields()
        delta = (
            72 * X * Y * Z - 16 * Y**3 + 4 * X**2 * Y**2 - 16 * X**3 * Z - 108 * Z**2
        )
        assert last_multiplier(v, u, w) == rf(Poly3.const(1)) / rf(delta)

    def test_constant_orthonormal_frame(self):
        v = VectorField3(1, 0, 0)
        u = VectorField3(0, 1, 0)
        w = VectorField3(0, 0, 1)
        assert last_multiplier(v, u, w) == rf(Poly3.const(1))

    def test_degenerate_frame_rejected(self):
        v = VectorField3(1, 0, 0)
        with pytest.raises(DegenerateFrameError):
            last_multiplier(v, v, v)


# ---------------------------------------------------------------------------
# dual one-forms
# ---------------------------------------------------------------------------


class TestDualForms:
    def test_guillot_alpha(self, guillot):
        assert guillot.alpha == KForm.one_form(
            0, rf(2 * Y**2 - X, 2 * Y**3), rf(-X, 2 * Z * Y**2)
        )

    def test_guillot_beta(self, guillot):
        assert guillot.beta == KForm.one_form(
            0, rf(Poly3.const(1), 2 * Y**3), rf(Poly3.const(1), 2 * Z * Y**2)
        )

    def test_guillot_gamma(self, guillot):
        assert guillot.gamma == KForm.one_form(
            -1,
            rf(Y**4 + 4 * X * Y**2 - X**2, 2 * Y**3),
            rf(Y**4 - X**2, 2 * Z * Y**2),
        )

    def test_dh_forms_match_multiplier_pattern(self, dh):
        m = dh.M
        assert dh.alpha == KForm.one_form(
            m * rf(2 * X * Y**2 + 6 * Y * Z - 8 * X**2 * Z),
            m * rf(12 * X * Z - 4 * Y**2),
            m * rf(2 * X * Y - 18 * Z),
        )
        assert dh.beta == KForm.one_form(
            m * rf(4 * (6 * X * Z - 2 * Y**2)),
            m * rf(4 * (X * Y - 9 * Z)),
            m * rf(4 * (6 * Y - 2 * X**2)),
        )
        assert dh.gamma == KForm.one_form(
            m * rf(18 * Z**2 - 8 * X * Y * Z + 2 * Y**3),
            m * rf(4 * X**2 * Z - X * Y**2 - 3 * Y * Z),
            m * rf(2 * Y**2 - 6 * X * Z),
        )


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
        report = verify_maurer_cartan(guillot.alpha, guillot.beta, guillot.gamma)
        assert all_hold(report)
        assert find(report, "structure.dalpha_nonzero").status == "holds"

    def test_dh(self, dh):
        assert all_hold(verify_maurer_cartan(dh.alpha, dh.beta, dh.gamma))

    def test_coordinate_frame_fails(self):
        dx = KForm.one_form(1, 0, 0)
        dy = KForm.one_form(0, 1, 0)
        dz = KForm.one_form(0, 0, 1)
        report = verify_maurer_cartan(dx, dy, dz)
        bad = find(report, "structure.dbeta")
        assert bad.status == "fails"
        assert bad.residual_obj == KForm.two_form(0, 0, 2)

    def test_closed_alpha_fails_the_nonzero_check(self):
        dx = KForm.one_form(1, 0, 0)
        dy = KForm.one_form(0, 1, 0)
        dz = KForm.one_form(0, 0, 1)
        check = find(verify_maurer_cartan(dx, dy, dz), "structure.dalpha_nonzero")
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
        assert all_hold(verify_maurer_cartan(alpha, beta, gamma))

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
            rho = rf(Poly3(terms)) if terms else rf(Poly3.const(2))
            if rho.is_zero():
                rho = rf(Poly3.const(2))
            alpha, beta, gamma = conformal_transform(guillot, rho)
            assert all_hold(verify_maurer_cartan(alpha, beta, gamma))

    def test_zero_factor_rejected(self, guillot):
        with pytest.raises(DegenerateFrameError):
            conformal_transform(guillot, rf(Poly3.zero()))


# ---------------------------------------------------------------------------
# perturbed potential integrability
# ---------------------------------------------------------------------------


class TestSigmaResidual:
    def test_exact_beta_candidate(self):
        # frame with exact beta: alpha = dx, beta = dy, gamma arbitrary
        alpha = KForm.one_form(1, 0, 0)
        beta = KForm.one_form(0, 1, 0)
        gamma = KForm.one_form(0, 0, 1)
        rho = rf(Poly3.const(1))
        f = rf(Y)  # df = dy = beta
        assert sigma_residual_factored(alpha, beta, gamma, f * rho).is_zero()

    def test_unperturbed_reduces_to_frobenius(self, guillot):
        residual = sigma_residual(guillot.alpha, guillot.gamma, rf(Poly3.zero()))
        assert residual == frobenius_residual(guillot.alpha)
        assert not residual.is_zero()

    def test_both_shapes_agree(self, guillot):
        rng = random.Random(11)
        for _ in range(4):
            rho = rf(Poly3({(rng.randint(0, 1), rng.randint(0, 1), 0): Fraction(rng.randint(1, 3)),
                            (0, 0, 0): Fraction(rng.randint(1, 4))}))
            f = rf(Poly3({(rng.randint(0, 1), 0, rng.randint(0, 1)): Fraction(rng.randint(-3, 3))}))
            alpha, beta, gamma = conformal_transform(guillot, rho)
            direct = sigma_residual(alpha, gamma, f * rho)
            factored = sigma_residual_factored(alpha, beta, gamma, f * rho)
            assert direct == factored


def _reference_sigma(frame, rho, f):
    """Both residuals written out on the original frame:
    sigma = alpha - (1/2) d(rho)/rho + f gamma, with sigma ^ d(sigma), and
    (alpha - (1/2) d(rho)/rho) ^ (df + f d(rho)/rho - beta) ^ gamma."""
    dlog = KForm.scalar(rho, rho.chart).d().scale(rho.reciprocal())
    alpha_bar = frame.alpha - dlog.scale(RationalFunction.const(Fraction(1, 2)))
    sigma = alpha_bar + frame.gamma.scale(f)
    middle = KForm.scalar(f, f.chart).d() + dlog.scale(f) - frame.beta
    return sigma.wedge(sigma.d()), alpha_bar.wedge(middle).wedge(frame.gamma)


def _random_poly(rng, degree=2):
    terms = {}
    while not terms:
        for _ in range(rng.randint(1, 3)):
            exps = (rng.randint(0, degree), rng.randint(0, degree), rng.randint(0, degree))
            if sum(exps) <= degree:
                terms[exps] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]))
    return Poly3(terms)


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
    fs = [rf(Poly3.zero()), rf(_random_poly(rng)), rf(_random_poly(rng), _random_poly(rng, 1) + 2)]
    return [(rho, f) for rho in rhos if not rho.is_zero() for f in fs]


@pytest.mark.parametrize("system", ["guillot", "dh"])
def test_sigma_on_the_transformed_frame_matches_the_original_definitions(system, request):
    frame = request.getfixturevalue(system)
    for rho, f in _candidates(17):
        direct, factored = _reference_sigma(frame, rho, f)
        alpha, beta, gamma = conformal_transform(frame, rho)
        assert sigma_residual(alpha, gamma, f * rho) == direct, (rho, f)
        assert sigma_residual_factored(alpha, beta, gamma, f * rho) == factored, (rho, f)


class TestFrobenius:
    def test_guillot_dichotomy(self, guillot):
        assert frobenius_residual(guillot.gamma).is_zero()
        assert frobenius_residual(guillot.beta).is_zero()
        assert not frobenius_residual(guillot.alpha).is_zero()

    def test_dh_dichotomy(self, dh):
        assert frobenius_residual(dh.gamma).is_zero()
        assert frobenius_residual(dh.beta).is_zero()
        assert not frobenius_residual(dh.alpha).is_zero()

    def test_exact_form_is_integrable(self):
        omega = KForm.scalar(rf(X**2 * Y + Z)).d()
        assert frobenius_residual(omega).is_zero()


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
        assert KForm.from_covector(a).d().covector() == guillot.v.scale(guillot.M * 2)

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
            guillot.alpha, guillot.beta, KForm.one_form(rf(X), rf(Y), rf(Z)),
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
        j = KForm.scalar(f).d().scale(m.reciprocal())
        assert frobenius_residual(j).is_zero()

    def test_rotation_field(self):
        assert frobenius_residual(KForm.one_form(Y, -X, 0)).is_zero()

    def test_cyclic_shift_residual(self):
        assert frobenius_residual(KForm.one_form(Z, X, Y)) == KForm.volume(rf(X + Y + Z))

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
            f = rf(Poly3(f_terms))
            m = rf(Poly3(m_terms))
            if m.is_zero():
                continue
            assert frobenius_residual(KForm.scalar(f).d().scale(m.reciprocal())).is_zero()


class TestBihamiltonian:
    @pytest.mark.parametrize("eps", [+1, -1])
    def test_guillot_decomposition(self, guillot, eps):
        report = bihamiltonian_verify(
            guillot.v, guillot.M, guillot_h1(), guillot_h2(eps),
            label=f"eps{eps:+d}",
        )
        assert all_hold(report)
        decomposition = find(report, f"bihamiltonian.decomposition[eps{eps:+d}]")
        assert "c = -2" in decomposition.anchor

    def test_non_integral_detected(self, guillot):
        h_bad = LogIntegral(rf(X), [])
        report = bihamiltonian_verify(guillot.v, guillot.M, h_bad, guillot_h2(1))
        bad = find(report, "bihamiltonian.integral_h1")
        assert bad.status == "fails"
        assert bad.residual_obj == rf(X**2 + Y**4)

    def test_decomposition_without_a_constant_fails(self, guillot):
        # dH1 ^ dH1 = 0 is no nonzero multiple of M iota_v(dx^dy^dz)
        report = bihamiltonian_verify(guillot.v, guillot.M, guillot_h1(), guillot_h1())
        check = find(report, "bihamiltonian.decomposition")
        assert check.status == "fails"
        assert check.anchor == "dH2 ^ dH1 = c M iota_v(dx^dy^dz)"
        assert check.residual_obj == KForm.volume(1).interior(guillot.v).scale(guillot.M * -2)
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
        KForm.one_form(0, 0, 1),
        KForm.one_form(0, 1, rf(-X)),
        KForm.one_form(1, 0, 0),
    )


class TestHeisenberg:
    def test_canonical_realisation(self):
        canonical = canonical_heisenberg()
        assert build_frame(canonical.v, canonical.u, canonical.w) == canonical
        assert all_hold(heisenberg_verify(canonical))

    def test_flat_omega2_breaks_structure(self):
        hf = canonical_heisenberg()
        broken = Frame(hf.v, hf.u, hf.w, hf.M, hf.alpha, KForm.one_form(0, 1, 0), hf.gamma)
        report = heisenberg_verify(broken)
        bad = find(report, "heisenberg.domega2")
        assert bad.status == "fails"
        assert bad.residual_obj == KForm.two_form(0, -1, 0)

    def test_volume_is_unity(self):
        report = heisenberg_verify(canonical_heisenberg())
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
    pushed = [c.compose(images) for c in field.components]
    new_components = []
    for row in matrix:
        total = RationalFunction.const(0, chart)
        for entry, comp in zip(row, pushed):
            total = total + comp * entry
        new_components.append(total)
    return VectorField3.from_components(new_components)


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
            assert all_hold(verify_maurer_cartan(frame.alpha, frame.beta, frame.gamma))

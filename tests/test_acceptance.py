"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import math
import random
from fractions import Fraction

import pytest

from mcflow.algebra import Poly3, RationalFunction, poly_gcd
from mcflow.calculus import KForm, VectorField3, div, lie_bracket
from mcflow.mcframe import (
    all_hold,
    bihamiltonian_verify,
    conformal_transform,
    curl_identities,
    frobenius_residual,
    heisenberg_verify,
    sigma_residual,
    verify_duality,
    verify_maurer_cartan,
    verify_sl2,
)
from mcflow.numeric import NumericError, conservation_drift, rk4_integrate, sample_identity
from mcflow.systems import builtin, concordance, dh_reduction_check, grading_check

X = Poly3.variable("x")
Y = Poly3.variable("y")
Z = Poly3.variable("z")

# the default --box
BOX = (-3.0, 3.0)


def rf(num, den=1):
    return RationalFunction(num, den)


def poly(terms, chart=("x", "y", "z")):
    """The sum of c * x^a * y^b * z^e over the term map {(a, b, e): c}."""
    x, y, z = (Poly3.variable(name, chart) for name in chart)
    total = Poly3.const(0, chart)
    for (a, b, e), c in terms.items():
        total = total + Poly3.const(c, chart) * x**a * y**b * z**e
    return total


def report_line(number: int, text: str) -> None:
    print(f"criterion {number:2d} PASS: {text}")


@pytest.fixture(scope="module")
def guillot():
    return builtin("guillot")


@pytest.fixture(scope="module")
def dh():
    return builtin("dh_symmetric")


def convergence_order(field: VectorField3, start: tuple, t_end: float, h: float) -> float:
    """Observed Runge-Kutta order via Richardson comparison at h, h/2, h/4."""
    ends = []
    for step in (h, h / 2, h / 4):
        _, states = rk4_integrate(field, start, t_end, step)
        ends.append(states[-1])
    coarse = math.dist(ends[0], ends[1])
    fine = math.dist(ends[1], ends[2])
    if fine == 0.0:
        raise NumericError("refinement differences vanished; cannot measure order")
    return math.log2(coarse / fine)


def frame_structural_reports(system):
    """(label, checks) of each structural family; criterion 11 seeds its
    samples with the label."""
    frame = system.frame
    curl = curl_identities(frame)
    return (
        ("acceptance", verify_sl2(frame.v, frame.u, frame.w)),
        (system.name, verify_duality(frame)),
        ("acceptance", verify_maurer_cartan(frame, curl)),
        (system.name, curl),
    )


# --------------------------------------------------------------------------


def test_criterion_1_guillot_multiplier(guillot):
    assert guillot.frame.M == rf(Poly3.const(1), 2 * Z * Y**3)
    report_line(1, "last multiplier is exactly 1/(2*y^3*z)")


def test_criterion_2_guillot_structural_suite(guillot):
    for _, checks in frame_structural_reports(guillot):
        for check in checks:
            assert check.status == "holds", check.name
    report_line(2, "sl(2), duality, structure equations, curl and divergence residuals all vanish")


def test_criterion_3_guillot_concordance(guillot):
    entries = {(row["form"], row["component"]): row["status"] for row in concordance(guillot)}
    for component in ("dx", "dy", "dz"):
        assert entries[("alpha", component)] == "match"
        assert entries[("beta", component)] == "match"
    assert entries[("gamma", "dx")] == "match"
    assert entries[("gamma", "dy")] == "mismatch"
    assert entries[("gamma", "dz")] == "mismatch"
    # the dy mismatch is precisely a sign flip, the dz one a factor y on x^2
    by_key = {(row["form"], row["component"]): row for row in concordance(guillot)}
    computed_dy = rf(Y**4 + 4 * X * Y**2 - X**2, 2 * Y**3)
    assert by_key[("gamma", "dy")]["difference"] == str(computed_dy * 2)
    assert by_key[("gamma", "dz")]["computed"] == str(rf(Y**4 - X**2, 2 * Z * Y**2))
    assert by_key[("gamma", "dz")]["printed"] == "(y^4 - x^2*y)/(2*y^2*z)"
    report_line(3, "alpha and beta match the printed forms; gamma differs exactly in dy (sign) and dz (factor y)")


def test_criterion_4_guillot_bihamiltonian(guillot):
    frame = guillot.frame
    integrals = dict(guillot.spec.integrals)
    h1 = integrals["H1"]
    # M iota_v(dx^dy^dz)
    volume_flux = KForm(2, frame.v.components).scale(frame.M)
    for label in ("H2_plus", "H2_minus"):
        h2 = integrals[label]
        assert h1.differential().interior(frame.v).coeffs[0].is_zero()
        assert h2.differential().interior(frame.v).coeffs[0].is_zero()
        wedge = h2.differential().wedge(h1.differential())
        # exact decomposition with the structural constant of magnitude 2;
        # the detected sign is -2 for this orientation of the wedge
        assert wedge == volume_flux.scale(-2)
        assert h1.differential().wedge(h2.differential()) == volume_flux.scale(2)
        checks = bihamiltonian_verify(frame.v, frame.M, h1, h2, label, div(frame.v.scale(frame.M)))
        assert all_hold(checks)
        anchors = {c.name: c.anchor for c in checks}
        assert "c = -2" in anchors[f"bihamiltonian.decomposition[{label}]"]
    report_line(4, "dH1 ^ dH2 = 2 M iota_v(vol) exactly for both branches; both integrals exact")


def test_criterion_5_dh_multiplier(dh):
    expected = 72 * X * Y * Z - 16 * Y**3 + 4 * X**2 * Y**2 - 16 * X**3 * Z - 108 * Z**2
    assert dh.frame.M.reciprocal() == rf(expected)
    report_line(5, "reciprocal multiplier is exactly 72xyz - 16y^3 + 4x^2y^2 - 16x^3z - 108z^2")


def test_criterion_6_dh_structural_suite_and_grading(dh):
    for _, checks in frame_structural_reports(dh):
        for check in checks:
            assert check.status == "holds", check.name
    grading = grading_check(dh)
    assert [c.status for c in grading] == ["holds"] * 4
    assert [c.anchor for c in grading] == [
        "[M] = -6",
        "[alpha] = 0",
        "[beta] = -1",
        "[gamma] = 1",
    ]
    report_line(6, "full structural suite passes; weights (M, alpha, beta, gamma) = (-6, 0, -1, 1)")


def test_criterion_7_dh_reduction():
    checks = dh_reduction_check()
    assert len(checks) == 3
    for check in checks:
        assert check.status == "holds", check.name
    report_line(7, "all three chain-rule residuals of the symmetric-variable substitution vanish")


def test_criterion_8_heisenberg():
    system = builtin("heisenberg_example")
    coframe = system.frame
    # omega1, omega2, omega3 are gamma, beta, alpha of the coframe
    x = RationalFunction(Poly3.variable("x"))
    assert coframe.gamma == KForm(1, (1, 0, 0))
    assert coframe.beta == KForm(1, (0, 1, -x))
    assert coframe.alpha == KForm(1, (0, 0, 1))
    for check in heisenberg_verify(coframe, system.brackets):
        assert check.status == "holds", check.name
    report_line(8, "structure equations, local forms, commutators and pairings verify exactly")


def test_criterion_9_frobenius_dichotomy(guillot, dh):
    for system in (guillot, dh):
        frame = system.frame
        gamma, beta, alpha = frobenius_residual(frame, curl_identities(frame))
        assert gamma.residual_obj.is_zero()
        assert beta.residual_obj.is_zero()
        assert not alpha.residual_obj.is_zero()
        assert all_hold((gamma, beta, alpha))
    frame = guillot.frame
    structure = {c.name: c.residual_obj
                 for c in verify_maurer_cartan(frame, curl_identities(frame))}
    unperturbed, _ = sigma_residual(frame.alpha, frame.beta, frame.gamma,
                                    RationalFunction.const(0), structure["structure.dalpha"],
                                    structure["structure.dgamma"])
    assert unperturbed == frame.alpha.wedge(frame.alpha.d())
    report_line(9, "beta and gamma integrable, alpha not; sigma residual at (rho=1, f=0) equals alpha ^ d(alpha)")


def test_criterion_10_conformal_invariance(guillot):
    frame = guillot.frame
    rng = random.Random(2024)
    degree_two = [
        (i, j, k) for i in range(3) for j in range(3) for k in range(3) if i + j + k <= 2
    ]
    produced = 0
    while produced < 20:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[rng.choice(degree_two)] = Fraction(rng.randint(-5, 5))
        rho = rf(poly(terms))
        if rho.is_zero():
            continue
        produced += 1
        alpha, beta, gamma = conformal_transform(frame, rho)
        assert (beta.d() + alpha.wedge(beta).scale(2)).is_zero()
        assert (alpha.d() - gamma.wedge(beta)).is_zero()
        assert (gamma.d() - alpha.wedge(gamma).scale(2)).is_zero()
    report_line(10, "20 random conformal factors of degree <= 2 preserve all three structure equations exactly")


def test_criterion_11_numeric_oracle(guillot, dh):
    # (label, checks): each sample is seeded with f"{label}.{check name}"
    reports = []
    for system in (guillot, dh):
        reports.extend(frame_structural_reports(system))
    integrals = dict(guillot.spec.integrals)
    for label in ("H2_plus", "H2_minus"):
        reports.append((
            "guillot",
            bihamiltonian_verify(
                guillot.frame.v, guillot.frame.M, integrals["H1"], integrals[label], label,
                div(guillot.frame.v.scale(guillot.frame.M)),
            ),
        ))
    reports.append(("dh_classic -> dh_symmetric", dh_reduction_check()))
    heisenberg = builtin("heisenberg_example")
    reports.append(
        ("heisenberg_example", heisenberg_verify(heisenberg.frame, heisenberg.brackets)))

    sampled = 0
    for system_label, checks in reports:
        for check in checks:
            if check.status != "holds" or check.residual_obj is None:
                continue
            if check.name == "structure.dalpha_nonzero":
                continue
            points, worst = sample_identity(
                check.residual_obj, n=25, box=BOX, seed=0, name=f"{system_label}.{check.name}")
            assert points > 0 and worst < 1e-12, check.name
            sampled += 1
    for system in (guillot, dh):
        for omega in (system.frame.beta, system.frame.gamma):
            points, worst = sample_identity(
                omega.wedge(omega.d()), n=25, box=BOX, seed=0, name=f"{system.name}.frobenius")
            assert points > 0 and worst < 1e-12
            sampled += 1
    assert sampled >= 60

    frame = guillot.frame
    trajectory = rk4_integrate(frame.v, (1.0, 1.0, 1.0), 0.2, 1e-3)
    drift_h1 = conservation_drift(integrals["H1"], *trajectory)
    drift_h2 = conservation_drift(integrals["H2_plus"], *trajectory)
    assert drift_h1 < 1e-8
    assert drift_h2 < 1e-7

    order = convergence_order(frame.v, (1.0, 1.0, 1.0), 0.2, 2e-3)
    assert abs(order - 4.0) <= 0.3
    report_line(
        11,
        f"{sampled} held residuals pass the sampling oracle; "
        f"drift(H1) = {drift_h1:.2e}, drift(H2) = {drift_h2:.2e}, RK4 order = {order:.2f}",
    )


def _random_poly(rng, max_terms=3, max_exp=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = (rng.randint(0, max_exp), rng.randint(0, max_exp), rng.randint(0, max_exp))
        coeff = rng.randint(-5, 5)
        if coeff:
            terms[exps] = Fraction(coeff)
    return poly(terms)


def _random_one_form(rng):
    return KForm(1, tuple(rf(_random_poly(rng)) for _ in range(3)))


def _random_field(rng):
    return VectorField3(*(_random_poly(rng) for _ in range(3)))


def test_criterion_12_property_suites():
    rng = random.Random(99)
    counts = {"dd": 0, "leibniz": 0, "interior": 0, "jacobi": 0, "ring": 0, "gcd": 0}

    while counts["dd"] < 100:
        omega = _random_one_form(rng)
        assert omega.d().d().is_zero()
        scalar = KForm(0, (rf(_random_poly(rng)),))
        assert scalar.d().d().is_zero()
        counts["dd"] += 1

    while counts["leibniz"] < 100:
        a, b = _random_one_form(rng), _random_one_form(rng)
        assert a.wedge(b).d() == a.d().wedge(b) - a.wedge(b.d())
        counts["leibniz"] += 1

    while counts["interior"] < 100:
        x = _random_field(rng)
        a, b = _random_one_form(rng), _random_one_form(rng)
        lhs = a.wedge(b).interior(x)
        rhs = b.scale(a.interior(x).coeffs[0]) - a.scale(b.interior(x).coeffs[0])
        assert lhs == rhs
        counts["interior"] += 1

    while counts["jacobi"] < 100:
        x, y, z = (_random_field(rng) for _ in range(3))
        cyclic = (
            lie_bracket(x, lie_bracket(y, z))
            + lie_bracket(y, lie_bracket(z, x))
            + lie_bracket(z, lie_bracket(x, y))
        )
        assert cyclic.is_zero()
        counts["jacobi"] += 1

    while counts["ring"] < 100:
        a, b, c = (_random_poly(rng, max_terms=4) for _ in range(3))
        assert a * b == b * a
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        counts["ring"] += 1

    while counts["gcd"] < 100:
        a, b, common = (_random_poly(rng) for _ in range(3))
        if a.is_zero() or b.is_zero() or common.is_zero():
            continue
        g = poly_gcd(a * common, b * common)
        assert (a * common).div_exact(g) * g == a * common
        assert (b * common).div_exact(g) * g == b * common
        counts["gcd"] += 1

    assert all(v >= 100 for v in counts.values())
    report_line(12, "d.d, graded Leibniz, interior derivation, bracket Jacobi, ring laws, gcd divisibility: 100 random instances each, zero failures")

"""Frame construction and structural verification for 3D flows.

Given companion fields (v, u, w) closing the bracket relations
[u,v] = 2v, [u,w] = -2w, [v,w] = u, this module derives the last
multiplier M = 1/((v x u).w), the dual one-forms

    alpha = M (w x v).dx,   beta = M (u x w).dx,   gamma = M (v x u).dx,

and checks every structural identity exactly: duality pairings, the
structure equations d(beta) = -2 alpha^beta, d(alpha) = gamma^beta,
d(gamma) = 2 alpha^gamma, curl and divergence identities, Frobenius
integrability, conformal invariance, the vector potential, and the
bi-Hamiltonian decomposition against supplied first integrals.

Every check is reported with its residual kept as an exact object, so a
numeric oracle can re-evaluate it independently.
"""

from fractions import Fraction
from typing import Optional, Sequence

from . import Record
from .algebra import RationalFunction
from .calculus import (
    KForm,
    LogIntegral,
    VectorField3,
    cross,
    div,
    flux_form,
    lie_bracket,
    triple,
)


class FrameError(Exception):
    """Base class for frame-level failures."""


class DegenerateFrameError(FrameError):
    """The triple product (v x u).w vanishes identically."""


class InvalidFrameError(FrameError):
    """The companion fields do not close the required bracket relations."""

    def __init__(self, message: str, report: Optional["VerificationReport"] = None):
        self.report = report
        super().__init__(message)


class InconsistencyError(FrameError):
    """curl of the potential is not a constant multiple of M v."""

    def __init__(self, message: str, computed: VectorField3, expected: VectorField3):
        self.computed = computed
        self.expected = expected
        super().__init__(message)


HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not_applicable"

# what a check's residual must be for the check to hold
ZERO = "zero"
NONZERO = "nonzero"


class Check(Record):
    """One verified identity: exact residual plus a display anchor."""

    __slots__ = ("name", "anchor", "status", "residual_obj", "residual", "expect")
    _defaults = (None, None, ZERO)
    name: str
    anchor: str
    status: str
    residual_obj: object
    residual: Optional[str]
    expect: str

    @classmethod
    def from_residual(cls, name: str, anchor: str, residual_obj, expect: str = ZERO) -> "Check":
        """A failing zero check shows its residual; a failing nonzero check,
        whose residual is the zero object, shows its anchor negated."""
        if residual_obj.is_zero() == (expect == ZERO):
            return cls(name, anchor, HOLDS, residual_obj, None, expect)
        shown = str(residual_obj) if expect == ZERO else anchor.replace("!=", "==")
        return cls(name, anchor, FAILS, residual_obj, shown, expect)


class VerificationReport(Record):
    __slots__ = ("system", "checks")
    system: str
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.status != FAILS for c in self.checks)

    def find(self, name: str) -> Check:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)


class Sl2Frame(Record):
    """Companion fields with their multiplier and dual one-forms."""

    __slots__ = ("name", "v", "u", "w", "M", "alpha", "beta", "gamma", "bracket_report")
    _defaults = (None,)
    _hidden = ("bracket_report",)
    name: str
    v: VectorField3
    u: VectorField3
    w: VectorField3
    M: RationalFunction
    alpha: KForm
    beta: KForm
    gamma: KForm
    # verify_sl2(v, u, w) as build_frame found it; None for a frame built by hand
    bracket_report: Optional[VerificationReport]


class HeisenbergFrame(Record):
    """One-form triple with two commuting symmetries of the flow."""

    __slots__ = ("name", "omega1", "omega2", "omega3", "u", "v", "w")
    name: str
    omega1: KForm
    omega2: KForm
    omega3: KForm
    u: VectorField3
    v: VectorField3
    w: VectorField3


class PotentialVector(Record):
    """Covector of gamma together with the exact constant in curl(A) = s M v."""

    __slots__ = ("A", "scale")
    A: VectorField3
    scale: Fraction


# ---------------------------------------------------------------------------
# bracket relations and frame assembly
# ---------------------------------------------------------------------------


def sl2_residuals(
    v: VectorField3, u: VectorField3, w: VectorField3
) -> tuple[VectorField3, VectorField3, VectorField3]:
    return (
        lie_bracket(u, v) - v.scale(2),
        lie_bracket(u, w) + w.scale(2),
        lie_bracket(v, w) - u,
    )


def verify_sl2(
    v: VectorField3, u: VectorField3, w: VectorField3, system: str = ""
) -> VerificationReport:
    r_uv, r_uw, r_vw = sl2_residuals(v, u, w)
    return VerificationReport(
        system,
        (
            Check.from_residual("sl2.uv", "[u,v] - 2v = 0", r_uv),
            Check.from_residual("sl2.uw", "[u,w] + 2w = 0", r_uw),
            Check.from_residual("sl2.vw", "[v,w] - u = 0", r_vw),
        ),
    )


def last_multiplier(
    v: VectorField3, u: VectorField3, w: VectorField3
) -> RationalFunction:
    """M = 1/((v x u).w); the density of the invariant volume."""
    volume = triple(v, u, w)
    if volume.is_zero():
        raise DegenerateFrameError("(v x u).w vanishes identically")
    return volume.reciprocal()


def dual_forms(
    v: VectorField3,
    u: VectorField3,
    w: VectorField3,
    multiplier: RationalFunction,
) -> tuple[KForm, KForm, KForm]:
    alpha = KForm.from_covector(cross(w, v).scale(multiplier))
    beta = KForm.from_covector(cross(u, w).scale(multiplier))
    gamma = KForm.from_covector(cross(v, u).scale(multiplier))
    return alpha, beta, gamma


def build_frame(
    v: VectorField3,
    u: VectorField3,
    w: VectorField3,
    name: str = "",
) -> Sl2Frame:
    """The frame of (v, u, w), carrying its bracket report; raises
    InvalidFrameError, with that report, when a bracket relation fails."""
    report = verify_sl2(v, u, w, name)
    if not report.ok:
        failed = ", ".join(c.name for c in report.checks if c.status == FAILS)
        raise InvalidFrameError(f"bracket relations fail: {failed}", report)
    multiplier = last_multiplier(v, u, w)
    alpha, beta, gamma = dual_forms(v, u, w, multiplier)
    return Sl2Frame(name, v, u, w, multiplier, alpha, beta, gamma, report)


# ---------------------------------------------------------------------------
# duality and structure equations
# ---------------------------------------------------------------------------


def verify_duality(frame: Sl2Frame) -> VerificationReport:
    """All nine couplings: three unit pairings, six vanishing ones."""
    pairs = {
        "v": frame.v,
        "u": frame.u,
        "w": frame.w,
    }
    forms = {
        "alpha": frame.alpha,
        "beta": frame.beta,
        "gamma": frame.gamma,
    }
    unit = {("v", "beta"), ("u", "alpha"), ("w", "gamma")}
    checks = []
    for field_name in ("v", "u", "w"):
        for form_name in ("alpha", "beta", "gamma"):
            value = forms[form_name].interior(pairs[field_name]).coeffs[0]
            if (field_name, form_name) in unit:
                residual = value - RationalFunction.const(1, value.chart)
                anchor = f"iota_{field_name} {form_name} = 1"
            else:
                residual = value
                anchor = f"iota_{field_name} {form_name} = 0"
            checks.append(
                Check.from_residual(f"duality.{field_name}_{form_name}", anchor, residual)
            )
    return VerificationReport(frame.name, tuple(checks))


def maurer_cartan_residuals(
    alpha: KForm, beta: KForm, gamma: KForm
) -> tuple[KForm, KForm, KForm]:
    return (
        beta.d() + alpha.wedge(beta).scale(2),
        alpha.d() - gamma.wedge(beta),
        gamma.d() - alpha.wedge(gamma).scale(2),
    )


def verify_maurer_cartan(
    alpha: KForm, beta: KForm, gamma: KForm, system: str = ""
) -> VerificationReport:
    r_beta, r_alpha, r_gamma = maurer_cartan_residuals(alpha, beta, gamma)
    checks = (
        Check.from_residual("structure.dbeta", "d(beta) + 2 alpha^beta = 0", r_beta),
        Check.from_residual("structure.dalpha", "d(alpha) - gamma^beta = 0", r_alpha),
        Check.from_residual("structure.dgamma", "d(gamma) - 2 alpha^gamma = 0", r_gamma),
        Check.from_residual("structure.dalpha_nonzero", "d(alpha) != 0", alpha.d(), NONZERO),
    )
    return VerificationReport(system, checks)


# ---------------------------------------------------------------------------
# conformal transformation and the perturbed potential
# ---------------------------------------------------------------------------


def dlog(rho: RationalFunction) -> KForm:
    """d(log rho) represented as the rational one-form d(rho)/rho."""
    if rho.is_zero():
        raise DegenerateFrameError("conformal factor rho vanishes identically")
    return KForm.scalar(rho, rho.chart).d().scale(rho.reciprocal())


def conformal_transform(
    frame: Sl2Frame, rho: RationalFunction
) -> tuple[KForm, KForm, KForm]:
    """beta -> rho beta, alpha -> alpha - (1/2) dlog(rho), gamma -> gamma/rho."""
    half = Fraction(1, 2)
    alpha = frame.alpha - dlog(rho).scale(RationalFunction.const(half, rho.chart))
    beta = frame.beta.scale(rho)
    gamma = frame.gamma.scale(rho.reciprocal())
    return alpha, beta, gamma


def sigma_residual(
    alpha: KForm,
    gamma: KForm,
    beta: KForm,
    rho: RationalFunction,
    f: RationalFunction,
) -> KForm:
    """sigma^d(sigma) for sigma = alpha - (1/2) dlog(rho) + f gamma.

    Vanishing of the 3-form is the exact integrability condition on the
    perturbed potential for the candidate pair (rho, f).
    """
    half = Fraction(1, 2)
    sigma = (
        alpha
        - dlog(rho).scale(RationalFunction.const(half, rho.chart))
        + gamma.scale(f)
    )
    return sigma.wedge(sigma.d())


def sigma_residual_factored(
    alpha: KForm,
    gamma: KForm,
    beta: KForm,
    rho: RationalFunction,
    f: RationalFunction,
) -> KForm:
    """Factored shape of the integrability condition.

    Expanding sigma^d(sigma) with the structure equations gives exactly

        (alpha - (1/2) dlog rho) ^ (df + f dlog rho - beta) ^ gamma;

    the middle factor reduces to the familiar (df - beta) when rho is
    constant or f vanishes.
    """
    log_rho = dlog(rho)
    half = Fraction(1, 2)
    alpha_bar = alpha - log_rho.scale(RationalFunction.const(half, rho.chart))
    middle = KForm.scalar(f, f.chart).d() + log_rho.scale(f) - beta
    return alpha_bar.wedge(middle).wedge(gamma)


def frobenius_residual(omega: KForm) -> KForm:
    """omega ^ d(omega); zero iff the one-form is integrable."""
    return omega.wedge(omega.d())


# ---------------------------------------------------------------------------
# curl identities and the vector potential
# ---------------------------------------------------------------------------


def curl_identities(frame: Sl2Frame) -> VerificationReport:
    """curl(M v x u) = 2Mv, curl(M u x w) = 2Mw, curl(M v x w) = -Mu,
    plus vanishing divergence of Mv, Mu, Mw.

    The curls are read off d(gamma), d(beta) and -d(alpha), so the frame's
    forms must be M (v x u).dx, M (u x w).dx and M (w x v).dx, as
    build_frame makes them.
    """
    m = frame.M
    mv = frame.v.scale(m)
    mu = frame.u.scale(m)
    mw = frame.w.scale(m)
    checks = (
        Check.from_residual(
            "curl.v_cross_u",
            "curl(M v x u) - 2 M v = 0",
            frame.gamma.d().covector() - mv.scale(2),
        ),
        Check.from_residual(
            "curl.u_cross_w",
            "curl(M u x w) - 2 M w = 0",
            frame.beta.d().covector() - mw.scale(2),
        ),
        Check.from_residual(
            "curl.v_cross_w",
            "curl(M v x w) + M u = 0",
            mu - frame.alpha.d().covector(),
        ),
        Check.from_residual("divergence.mv", "div(M v) = 0", div(mv)),
        Check.from_residual("divergence.mu", "div(M u) = 0", div(mu)),
        Check.from_residual("divergence.mw", "div(M w) = 0", div(mw)),
    )
    return VerificationReport(frame.name, checks)


def _constant_ratio(
    numerators: Sequence[RationalFunction], denominators: Sequence[RationalFunction]
) -> Optional[Fraction]:
    """Exact constant c with numerators = c * denominators, if one exists."""
    ratio: Optional[RationalFunction] = None
    for num, den in zip(numerators, denominators):
        if den.is_zero():
            if not num.is_zero():
                return None
            continue
        candidate = num / den
        if ratio is None:
            ratio = candidate
        elif ratio != candidate:
            return None
    if ratio is None or not ratio.is_constant():
        return None
    return ratio.constant_value()


def potential_from_gamma(frame: Sl2Frame) -> PotentialVector:
    """Covector A of gamma with the exact constant s in curl(A) = s M v."""
    bracket_report = frame.bracket_report
    if bracket_report is None:
        bracket_report = verify_sl2(frame.v, frame.u, frame.w, frame.name)
    if not bracket_report.ok:
        raise InvalidFrameError(
            "potential extraction requires the bracket relations to hold"
        )
    a = frame.gamma.covector()
    curl_a = frame.gamma.d().covector()
    target = frame.v.scale(frame.M)
    scale = _constant_ratio(curl_a.components, target.components)
    if scale is None or scale == 0:
        raise InconsistencyError(
            "curl of the potential is not a constant multiple of M v",
            curl_a,
            target,
        )
    return PotentialVector(a, scale)


# ---------------------------------------------------------------------------
# the bi-Hamiltonian decomposition
# ---------------------------------------------------------------------------


def bihamiltonian_verify(
    v: VectorField3,
    multiplier: RationalFunction,
    h1: LogIntegral,
    h2: LogIntegral,
    system: str = "",
    label: str = "",
    divergence: Optional[RationalFunction] = None,
) -> VerificationReport:
    """First-integral, invariance and decomposition checks.

    The decomposition check finds the exact rational constant c with
    dH2 ^ dH1 = c M iota_v(dx^dy^dz) and reports it; the structural
    normalisation fixes |c| = 2 when H1, H2 are normalised as here.
    ``divergence`` is div(M v) when the caller has it already (curl_identities
    reports it as divergence.mv); otherwise it is computed here.
    """
    suffix = f"[{label}]" if label else ""
    d_h1 = h1.differential()
    d_h2 = h2.differential()
    checks = [
        Check.from_residual(
            f"bihamiltonian.integral_h1{suffix}",
            "iota_v dH1 = 0",
            d_h1.interior(v).coeffs[0],
        ),
        Check.from_residual(
            f"bihamiltonian.integral_h2{suffix}",
            "iota_v dH2 = 0",
            d_h2.interior(v).coeffs[0],
        ),
        Check.from_residual(
            f"bihamiltonian.divergence{suffix}",
            "div(M v) = 0",
            div(v.scale(multiplier)) if divergence is None else divergence,
        ),
    ]
    wedge = d_h2.wedge(d_h1)
    target = flux_form(v).scale(multiplier)
    # wedge - c*target is zero for the constant found; without one,
    # wedge - 2*target is nonzero, as v != 0 makes target nonzero
    constant = _constant_ratio(wedge.coeffs, target.coeffs)
    anchor = "dH2 ^ dH1 = c M iota_v(dx^dy^dz)"
    if constant:
        anchor += f", c = {constant}"
    scaled = target.scale(RationalFunction.const(constant or 2, multiplier.chart))
    checks.append(
        Check.from_residual(f"bihamiltonian.decomposition{suffix}", anchor, wedge - scaled)
    )
    return VerificationReport(system, tuple(checks))


# ---------------------------------------------------------------------------
# Heisenberg realisation
# ---------------------------------------------------------------------------


def heisenberg_verify(hf: HeisenbergFrame) -> VerificationReport:
    one = RationalFunction.const(1, hf.omega1.chart)
    omega_triple = triple(
        hf.omega1.covector(), hf.omega2.covector(), hf.omega3.covector()
    )
    checks = (
        Check.from_residual("heisenberg.domega1", "d(omega1) = 0", hf.omega1.d()),
        Check.from_residual("heisenberg.domega3", "d(omega3) = 0", hf.omega3.d()),
        Check.from_residual(
            "heisenberg.domega2",
            "d(omega2) - omega3^omega1 = 0",
            hf.omega2.d() - hf.omega3.wedge(hf.omega1),
        ),
        Check.from_residual("heisenberg.vw", "[v,w] = 0", lie_bracket(hf.v, hf.w)),
        Check.from_residual("heisenberg.vu", "[v,u] = 0", lie_bracket(hf.v, hf.u)),
        Check.from_residual(
            "heisenberg.wu", "[w,u] - v = 0", lie_bracket(hf.w, hf.u) - hf.v
        ),
        Check.from_residual(
            "heisenberg.w_omega1",
            "iota_w omega1 = 1",
            hf.omega1.interior(hf.w).coeffs[0] - one,
        ),
        Check.from_residual(
            "heisenberg.v_omega2",
            "iota_v omega2 = 1",
            hf.omega2.interior(hf.v).coeffs[0] - one,
        ),
        Check.from_residual(
            "heisenberg.u_omega3",
            "iota_u omega3 = 1",
            hf.omega3.interior(hf.u).coeffs[0] - one,
        ),
        Check.from_residual(
            "heisenberg.volume",
            "(omega1 x omega2).omega3 = 1",
            omega_triple - one,
        ),
    )
    return VerificationReport(hf.name, checks)

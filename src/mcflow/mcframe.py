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

from __future__ import annotations

from typing import Optional, Sequence

from . import Record
from .algebra import RationalFunction
from .calculus import (
    KForm,
    LogIntegral,
    VectorField3,
    cross,
    div,
    dot,
    lie_bracket,
)


class FrameError(Exception):
    """Base class for frame-level failures."""


class DegenerateFrameError(FrameError):
    """The triple product (v x u).w vanishes identically."""


class InconsistencyError(FrameError):
    """curl of the potential is not a constant multiple of M v."""


HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not_applicable"

# what a check's residual must be for the check to hold
ZERO = "zero"
NONZERO = "nonzero"


class Check(Record):
    """One verified identity: exact residual plus a display anchor."""

    __slots__ = ("name", "anchor", "status", "residual_obj", "residual", "expect")
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


def all_hold(checks) -> bool:
    """True unless one of the checks fails."""
    return all(c.status != FAILS for c in checks)


class Frame(Record):
    """Companion fields with their multiplier and dual one-forms."""

    __slots__ = ("v", "u", "w", "M", "alpha", "beta", "gamma")
    v: VectorField3
    u: VectorField3
    w: VectorField3
    M: RationalFunction
    alpha: KForm
    beta: KForm
    gamma: KForm


# ---------------------------------------------------------------------------
# bracket relations and frame assembly
# ---------------------------------------------------------------------------


def verify_sl2(v: VectorField3, u: VectorField3, w: VectorField3) -> tuple[Check, ...]:
    return (
        Check.from_residual("sl2.uv", "[u,v] - 2v = 0", lie_bracket(u, v) - v.scale(2)),
        Check.from_residual("sl2.uw", "[u,w] + 2w = 0", lie_bracket(u, w) + w.scale(2)),
        Check.from_residual("sl2.vw", "[v,w] - u = 0", lie_bracket(v, w) - u),
    )


def build_frame(v: VectorField3, u: VectorField3, w: VectorField3) -> Frame:
    """The multiplier M = 1/((v x u).w), the density of the invariant
    volume, and the dual one-forms of (v, u, w): the coframe of the sl(2)
    frame when the bracket relations hold (see verify_sl2), and of the
    Heisenberg frame (see heisenberg_verify)."""
    v_cross_u = cross(v, u)
    volume = dot(v_cross_u, w)
    if volume.is_zero():
        raise DegenerateFrameError("(v x u).w vanishes identically")
    m = volume.reciprocal()
    return Frame(
        v, u, w, m,
        KForm(1, cross(w, v).scale(m).components),
        KForm(1, cross(u, w).scale(m).components),
        KForm(1, v_cross_u.scale(m).components),
    )


# ---------------------------------------------------------------------------
# duality and structure equations
# ---------------------------------------------------------------------------


def verify_duality(frame: Frame) -> tuple[Check, ...]:
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
    return tuple(checks)


def maurer_cartan_residuals(
    alpha: KForm, beta: KForm, gamma: KForm
) -> tuple[KForm, KForm, KForm]:
    return (
        beta.d() + alpha.wedge(beta).scale(2),
        alpha.d() - gamma.wedge(beta),
        gamma.d() - alpha.wedge(gamma).scale(2),
    )


def verify_maurer_cartan(alpha: KForm, beta: KForm, gamma: KForm) -> tuple[Check, ...]:
    r_beta, r_alpha, r_gamma = maurer_cartan_residuals(alpha, beta, gamma)
    return (
        Check.from_residual("structure.dbeta", "d(beta) + 2 alpha^beta = 0", r_beta),
        Check.from_residual("structure.dalpha", "d(alpha) - gamma^beta = 0", r_alpha),
        Check.from_residual("structure.dgamma", "d(gamma) - 2 alpha^gamma = 0", r_gamma),
        Check.from_residual("structure.dalpha_nonzero", "d(alpha) != 0", alpha.d(), NONZERO),
    )


# ---------------------------------------------------------------------------
# conformal transformation and the perturbed potential
# ---------------------------------------------------------------------------


def conformal_transform(
    frame: Frame, rho: RationalFunction
) -> tuple[KForm, KForm, KForm]:
    """beta -> rho beta, alpha -> alpha - (1/2) dlog(rho), gamma -> gamma/rho,
    with dlog(rho) the rational one-form d(rho)/rho.  The transformed forms
    satisfy the structure equations again."""
    if rho.is_zero():
        raise DegenerateFrameError("conformal factor rho vanishes identically")
    half_dlog = KForm(0, (rho,)).d().scale((rho * 2).reciprocal())
    return frame.alpha - half_dlog, frame.beta.scale(rho), frame.gamma.scale(rho.reciprocal())


def sigma_residual(alpha: KForm, gamma: KForm, g: RationalFunction) -> KForm:
    """sigma^d(sigma) for sigma = alpha + g gamma.

    On the conformally transformed frame with g = f rho, sigma is
    alpha - (1/2) dlog(rho) + f gamma of the original frame, and vanishing
    of the 3-form is the exact integrability condition on the perturbed
    potential for the candidate pair (rho, f).
    """
    sigma = alpha + gamma.scale(g)
    return sigma.wedge(sigma.d())


def sigma_residual_factored(
    alpha: KForm, beta: KForm, gamma: KForm, g: RationalFunction
) -> KForm:
    """Factored shape of the integrability condition: expanding
    sigma^d(sigma) with the structure equations gives exactly

        alpha ^ (dg - beta) ^ gamma.

    On the transformed frame with g = f rho the middle factor times gamma
    is (df + f dlog rho - beta) ^ gamma of the original frame.
    """
    return alpha.wedge(KForm(0, (g,)).d() - beta).wedge(gamma)


def frobenius_residual(omega: KForm) -> KForm:
    """omega ^ d(omega); zero iff the one-form is integrable."""
    return omega.wedge(omega.d())


# ---------------------------------------------------------------------------
# curl identities and the vector potential
# ---------------------------------------------------------------------------


def curl_identities(frame: Frame) -> tuple[Check, ...]:
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
    return (
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


def _constant_ratio(
    numerators: Sequence[RationalFunction], denominators: Sequence[RationalFunction]
) -> Optional[RationalFunction]:
    """The constant c with numerators = c * denominators, as a constant
    RationalFunction, if one exists."""
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
    return ratio


def potential_from_gamma(frame: Frame) -> RationalFunction:
    """The exact constant s in curl(A) = s M v, as a constant
    RationalFunction, where the potential A is the covector of gamma."""
    curl_a = frame.gamma.d().covector()
    target = frame.v.scale(frame.M)
    scale = _constant_ratio(curl_a.components, target.components)
    if scale is None or scale.is_zero():
        raise InconsistencyError("curl of the potential is not a constant multiple of M v")
    return scale


# ---------------------------------------------------------------------------
# the bi-Hamiltonian decomposition
# ---------------------------------------------------------------------------


def bihamiltonian_verify(
    v: VectorField3,
    multiplier: RationalFunction,
    h1: LogIntegral,
    h2: LogIntegral,
    label: str,
    divergence: RationalFunction,
) -> tuple[Check, ...]:
    """First-integral, invariance and decomposition checks of the pair
    named by label.

    The decomposition check finds the exact rational constant c with
    dH2 ^ dH1 = c M iota_v(dx^dy^dz) and reports it; the structural
    normalisation fixes |c| = 2 when H1, H2 are normalised as here.
    ``divergence`` is div(M v), which curl_identities reports as
    divergence.mv.
    """
    suffix = f"[{label}]"
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
            divergence,
        ),
    ]
    wedge = d_h2.wedge(d_h1)
    target = KForm(2, v.scale(multiplier).components)
    # wedge - c*target is zero for the constant found; without one,
    # wedge - 2*target is nonzero, as v != 0 makes target nonzero
    constant = _constant_ratio(wedge.coeffs, target.coeffs)
    anchor = "dH2 ^ dH1 = c M iota_v(dx^dy^dz)"
    if constant is None or constant.is_zero():
        constant = RationalFunction.const(2, multiplier.chart)
    else:
        anchor += f", c = {constant}"
    checks.append(
        Check.from_residual(f"bihamiltonian.decomposition{suffix}", anchor,
                            wedge - target.scale(constant))
    )
    return tuple(checks)


# ---------------------------------------------------------------------------
# Heisenberg realisation
# ---------------------------------------------------------------------------


def heisenberg_verify(frame: Frame) -> tuple[Check, ...]:
    """The Heisenberg relations of the coframe (omega1, omega2, omega3) =
    (gamma, beta, alpha) of the flow v and its symmetries u, w."""
    omega1, omega2, omega3 = frame.gamma, frame.beta, frame.alpha
    one = RationalFunction.const(1, omega1.chart)
    omega_triple = dot(cross(omega1.covector(), omega2.covector()), omega3.covector())
    return (
        Check.from_residual("heisenberg.domega1", "d(omega1) = 0", omega1.d()),
        Check.from_residual("heisenberg.domega3", "d(omega3) = 0", omega3.d()),
        Check.from_residual(
            "heisenberg.domega2",
            "d(omega2) - omega3^omega1 = 0",
            omega2.d() - omega3.wedge(omega1),
        ),
        Check.from_residual("heisenberg.vw", "[v,w] = 0", lie_bracket(frame.v, frame.w)),
        Check.from_residual("heisenberg.vu", "[v,u] = 0", lie_bracket(frame.v, frame.u)),
        Check.from_residual(
            "heisenberg.wu", "[w,u] - v = 0", lie_bracket(frame.w, frame.u) - frame.v
        ),
        Check.from_residual(
            "heisenberg.w_omega1",
            "iota_w omega1 = 1",
            omega1.interior(frame.w).coeffs[0] - one,
        ),
        Check.from_residual(
            "heisenberg.v_omega2",
            "iota_v omega2 = 1",
            omega2.interior(frame.v).coeffs[0] - one,
        ),
        Check.from_residual(
            "heisenberg.u_omega3",
            "iota_u omega3 = 1",
            omega3.interior(frame.u).coeffs[0] - one,
        ),
        Check.from_residual(
            "heisenberg.volume",
            "(omega1 x omega2).omega3 = 1",
            omega_triple - one,
        ),
    )

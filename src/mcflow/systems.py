"""Systems and their derived structure; the built-in catalog, printed-form
concordance, reduction and grading.

A built-in and a user's .sys file are both a `System`.  The built-ins are
parsed from the .sys files shipped with the package, so the catalog and the
file format cannot drift apart.  The concordance report compares two
built-ins' one-forms against the coefficient strings printed in the worked
examples this engine reproduces, and documents every mismatching component
instead of failing, since recomputation from the defining cross products is
authoritative.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Optional

from .algebra import Poly3, RationalFunction
from .calculus import KForm, VectorField3
from .mcframe import (
    Check,
    FrameError,
    HOLDS,
    FAILS,
    NOT_APPLICABLE,
    ZERO,
    all_hold,
    build_frame,
    heisenberg_brackets,
    potential_from_gamma,
    verify_sl2,
)
from .parser import SystemSpec, parse_rational, parse_system

BUILTIN_NAMES = ("guillot", "dh_classic", "dh_symmetric", "heisenberg_example")

GRADING_WEIGHTS = (1, 2, 3)


class UnknownSystemError(Exception):
    pass


# one-form coefficients as printed in the worked examples; a system listed in
# _PRINTED_DENOMINATOR prints every coefficient as numerator/(denominator)
_PRINTED_DENOMINATOR = {
    "dh_symmetric": "72*x*y*z - 16*y^3 + 4*x^2*y^2 - 16*x^3*z - 108*z^2",
}
_PRINTED = {
    "guillot": {
        "alpha": ("0", "(2*y^2 - x)/(2*y^3)", "-x/(2*y^2*z)"),
        "beta": ("0", "1/(2*y^3)", "1/(2*y^2*z)"),
        "gamma": ("-1", "(x^2 - y^4 - 4*x*y^2)/(2*y^3)", "(y^4 - x^2*y)/(2*y^2*z)"),
        "potential": ("-1", "(x^2 - y^4 - 4*x*y^2)/(2*y^3)", "(y^4 - x^2*y)/(2*y^2*z)"),
    },
    "dh_symmetric": {
        "alpha": (
            "(2*x*y^2 + 6*y*z - 8*x^2*z)",
            "(12*x*z - 4*y^2)",
            "(2*x*y - 18*z)",
        ),
        "beta": (
            "4*(6*x*z - 2*y^2)",
            "4*(x*y - 9*z)",
            "4*(6*y - 2*x^2)",
        ),
        "gamma": (
            "(18*z^2 - 8*x*y + 2*y^3)",
            "(4*x^2*z - x*y^2 - 3*y*z)",
            "(2*y^2 - 6*x*z)",
        ),
    },
}


def system_source(name: str) -> str:
    """Raw text of a shipped .sys file."""
    if name not in BUILTIN_NAMES:
        raise UnknownSystemError(f"unknown system {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    path = os.path.join(os.path.dirname(__file__), "data", f"{name}.sys")
    with open(path, encoding="utf-8") as handle:
        return handle.read()


class System:
    """A parsed system and the structure derived from it.

    With the companion fields, the constructor verifies the sl(2) bracket
    relations once and builds the frame when they hold; otherwise, when the
    Heisenberg relations read off the same rows hold, it builds the frame,
    keeps those rows and sets the flag heisenberg.  The potential's scale is
    computed on first use and kept.
    """

    __slots__ = ("spec", "name", "is_builtin", "v", "frame", "heisenberg", "brackets",
                 "_potential")

    def __init__(self, spec: SystemSpec, is_builtin: bool = False):
        self.spec = spec
        self.name = spec.name
        self.is_builtin = is_builtin
        self.v = VectorField3(*spec.v)
        self.frame = self.brackets = self._potential = None
        self.heisenberg = False
        if spec.u is None:
            return
        u, w = VectorField3(*spec.u), VectorField3(*spec.w)
        self.brackets = verify_sl2(self.v, u, w)
        if not all_hold(self.brackets):
            # both algebras close only for v = u = w = 0, which build_frame rejects
            rows = heisenberg_brackets(self.v, u, w, self.brackets)
            if not all_hold(rows):
                return
            self.brackets, self.heisenberg = rows, True
        self.frame = build_frame(self.v, u, w)

    def potential(self):
        """The constant s in curl(A) = s M v, potential_from_gamma(frame); a
        failure is raised, not kept."""
        if self._potential is None:
            self._potential = potential_from_gamma(self.frame)
        return self._potential


@lru_cache(maxsize=None)
def _shipped_spec(name: str) -> SystemSpec:
    return parse_system(system_source(name))


@lru_cache(maxsize=None)
def builtin(name: str) -> System:
    return System(_shipped_spec(name), is_builtin=True)


# ---------------------------------------------------------------------------
# printed-form concordance
# ---------------------------------------------------------------------------


def concordance(system: System) -> list[dict]:
    """Componentwise comparison of a built-in's computed forms against
    printed ones: one report row per component, whose status is "match" or
    "mismatch"."""
    printed_forms = _PRINTED.get(system.name) if system.is_builtin else None
    if system.frame is None or printed_forms is None:
        return []
    frame = system.frame
    computed_forms = {
        "alpha": frame.alpha.coeffs,
        "beta": frame.beta.coeffs,
        "gamma": frame.gamma.coeffs,
        "potential": frame.gamma.coeffs,
    }
    chart = frame.M.chart
    labels = tuple(f"d{v}" for v in chart)
    # the shared denominator is parsed once, not once per coefficient
    den_text = _PRINTED_DENOMINATOR.get(system.name)
    den = parse_rational(den_text, chart) if den_text else None
    rows = []
    for form_name, printed in printed_forms.items():
        computed = computed_forms[form_name]
        for label, computed_coeff, printed_text in zip(labels, computed, printed):
            printed_value = parse_rational(printed_text, chart)
            if den is not None:
                printed_value = printed_value / den
                printed_text = f"{printed_text}/({den_text})"
            delta = computed_coeff - printed_value
            rows.append({
                "form": form_name,
                "component": label,
                "status": "match" if delta.is_zero() else "mismatch",
                "computed": str(computed_coeff),
                "printed": printed_text,
                "difference": str(delta),
            })
    return rows


# ---------------------------------------------------------------------------
# reduction of the classical system to its symmetric form
# ---------------------------------------------------------------------------


def dh_reduction_check() -> tuple[Check, ...]:
    """Chain-rule verification of x = -2 e1, y = 4 e2, z = -8 e3.

    Differentiating the substitution along the classical flow must
    reproduce the symmetric right-hand side as a polynomial identity in
    t1, t2, t3.
    """
    classic = _shipped_spec("dh_classic")
    symmetric_v = _shipped_spec("dh_symmetric").v
    t_chart = classic.variables
    flow = VectorField3(*classic.v)

    t1, t2, t3 = (Poly3.variable(name, t_chart) for name in t_chart)
    substitution = (-2 * (t1 + t2 + t3), 4 * (t1 * t2 + t2 * t3 + t1 * t3), -8 * t1 * t2 * t3)
    return tuple(
        Check.from_residual(
            f"reduction.{name}dot",
            f"d/dt of substituted {name} = {name}dot after substitution",
            flow.apply(RationalFunction(image)) - target.num.compose(substitution),
        )
        for image, target, name in zip(substitution, symmetric_v, ("x", "y", "z"))
    )


# ---------------------------------------------------------------------------
# quasi-homogeneous grading
# ---------------------------------------------------------------------------


def _system_shift(system: System) -> Optional[int]:
    """Common s with weight(v_i) = w_i + s, or None if not quasi-homogeneous."""
    shift = None
    for weight, component in zip(GRADING_WEIGHTS, system.frame.v.components):
        value = component.uniform_weight(GRADING_WEIGHTS)
        if value is None:
            return None
        if shift is None:
            shift = value - weight
        elif value - weight != shift:
            return None
    return shift


def _form_weight(form: KForm) -> Optional[int]:
    total = None
    for weight, coeff in zip(GRADING_WEIGHTS, form.coeffs):
        if coeff.is_zero():
            continue
        value = coeff.uniform_weight(GRADING_WEIGHTS)
        if value is None:
            return None
        if total is None:
            total = value + weight
        elif value + weight != total:
            return None
    return total


def grading_check(system: System) -> tuple[Check, ...]:
    """Weight bookkeeping: M carries -6 and (alpha, beta, gamma) carry (0, -1, 1)."""
    if system.frame is None:
        raise FrameError(f"{system.name} carries no companion frame to grade")
    if _system_shift(system) is None:
        return (
            Check(
                "grading.applicability",
                f"flow is quasi-homogeneous under weights {GRADING_WEIGHTS}",
                NOT_APPLICABLE, None, None, ZERO,
            ),
        )
    frame = system.frame
    targets = (
        ("grading.multiplier", "[M] = -6", frame.M.uniform_weight(GRADING_WEIGHTS), -6),
        ("grading.alpha", "[alpha] = 0", _form_weight(frame.alpha), 0),
        ("grading.beta", "[beta] = -1", _form_weight(frame.beta), -1),
        ("grading.gamma", "[gamma] = 1", _form_weight(frame.gamma), 1),
    )
    checks = []
    for name, anchor, actual, wanted in targets:
        if actual == wanted:
            checks.append(Check(name, anchor, HOLDS, None, None, ZERO))
        else:
            checks.append(
                Check(name, anchor, FAILS, None, f"weight is {actual}, expected {wanted}", ZERO)
            )
    return tuple(checks)

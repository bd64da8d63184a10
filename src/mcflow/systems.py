"""Built-in system catalog, printed-form concordance, reduction and grading.

The built-ins are parsed from the .sys files shipped with the package, so
the catalog and the file format cannot drift apart.  Each built-in also
carries the coefficient strings of its one-forms as printed in the worked
examples this engine reproduces; the concordance report compares those
against the computed forms and documents every mismatching component
instead of failing, since recomputation from the defining cross products
is authoritative.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from typing import Optional

from . import Record
from .algebra import Poly3, RationalFunction
from .calculus import KForm, VectorField3
from .mcframe import (
    Check,
    FrameError,
    HeisenbergFrame,
    Sl2Frame,
    VerificationReport,
    HOLDS,
    FAILS,
    NOT_APPLICABLE,
    build_frame,
)
from .parser import SystemSpec, parse_rational, parse_system

BUILTIN_NAMES = ("guillot", "dh_classic", "dh_symmetric", "heisenberg_example")

GRADING_WEIGHTS = (1, 2, 3)


class UnknownSystemError(Exception):
    pass


class BuiltinSystem(Record):
    __slots__ = ("name", "spec", "frame", "heisenberg", "printed_forms")
    name: str
    spec: SystemSpec
    frame: Optional[Sl2Frame]
    heisenberg: Optional[HeisenbergFrame]
    # one-form coefficients as printed in the worked examples, if any
    printed_forms: Optional[dict]


_DH_DELTA = "72*x*y*z - 16*y^3 + 4*x^2*y^2 - 16*x^3*z - 108*z^2"

_PRINTED = {
    "guillot": {
        "alpha": ("0", "(2*y^2 - x)/(2*y^3)", "-x/(2*y^2*z)"),
        "beta": ("0", "1/(2*y^3)", "1/(2*y^2*z)"),
        "gamma": ("-1", "(x^2 - y^4 - 4*x*y^2)/(2*y^3)", "(y^4 - x^2*y)/(2*y^2*z)"),
        "potential": ("-1", "(x^2 - y^4 - 4*x*y^2)/(2*y^3)", "(y^4 - x^2*y)/(2*y^2*z)"),
    },
    "dh_symmetric": {
        "alpha": (
            f"(2*x*y^2 + 6*y*z - 8*x^2*z)/({_DH_DELTA})",
            f"(12*x*z - 4*y^2)/({_DH_DELTA})",
            f"(2*x*y - 18*z)/({_DH_DELTA})",
        ),
        "beta": (
            f"4*(6*x*z - 2*y^2)/({_DH_DELTA})",
            f"4*(x*y - 9*z)/({_DH_DELTA})",
            f"4*(6*y - 2*x^2)/({_DH_DELTA})",
        ),
        "gamma": (
            f"(18*z^2 - 8*x*y + 2*y^3)/({_DH_DELTA})",
            f"(4*x^2*z - x*y^2 - 3*y*z)/({_DH_DELTA})",
            f"(2*y^2 - 6*x*z)/({_DH_DELTA})",
        ),
    },
}


def system_source(name: str) -> str:
    """Raw text of a shipped .sys file."""
    if name not in BUILTIN_NAMES:
        raise UnknownSystemError(f"unknown system {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    return resources.files("mcflow.data").joinpath(f"{name}.sys").read_text()


def _heisenberg_frame(spec: SystemSpec) -> HeisenbergFrame:
    x = RationalFunction.var("x", spec.variables)
    return HeisenbergFrame(
        spec.name,
        KForm.one_form(1, 0, 0, spec.variables),
        KForm.one_form(0, 1, -x, spec.variables),
        KForm.one_form(0, 0, 1, spec.variables),
        VectorField3(*spec.u, spec.variables),
        VectorField3(*spec.v, spec.variables),
        VectorField3(*spec.w, spec.variables),
    )


@lru_cache(maxsize=None)
def builtin(name: str) -> BuiltinSystem:
    spec = parse_system(system_source(name))
    frame = None
    heisenberg = None
    if name == "heisenberg_example":
        heisenberg = _heisenberg_frame(spec)
    elif spec.u is not None and spec.w is not None:
        frame = build_frame(
            VectorField3(*spec.v, spec.variables),
            VectorField3(*spec.u, spec.variables),
            VectorField3(*spec.w, spec.variables),
            name=name,
        )
    return BuiltinSystem(name, spec, frame, heisenberg, _PRINTED.get(name))


# ---------------------------------------------------------------------------
# printed-form concordance
# ---------------------------------------------------------------------------


class ConcordanceEntry(Record):
    __slots__ = ("form", "component", "status", "computed", "printed", "difference")
    form: str
    component: str
    status: str  # "match" | "mismatch"
    computed: str
    printed: str
    difference: str


def concordance(system: BuiltinSystem) -> tuple[ConcordanceEntry, ...]:
    """Componentwise comparison of computed forms against printed ones."""
    if system.frame is None or not system.printed_forms:
        return ()
    frame = system.frame
    computed_forms = {
        "alpha": frame.alpha.coeffs,
        "beta": frame.beta.coeffs,
        "gamma": frame.gamma.coeffs,
        "potential": frame.gamma.coeffs,
    }
    labels = tuple(f"d{v}" for v in frame.M.chart)
    entries = []
    for form_name, printed in system.printed_forms.items():
        computed = computed_forms[form_name]
        for label, computed_coeff, printed_text in zip(labels, computed, printed):
            printed_value = parse_rational(printed_text, frame.M.chart)
            delta = computed_coeff - printed_value
            entries.append(
                ConcordanceEntry(
                    form_name,
                    label,
                    "match" if delta.is_zero() else "mismatch",
                    str(computed_coeff),
                    printed_text,
                    str(delta),
                )
            )
    return tuple(entries)


# ---------------------------------------------------------------------------
# reduction of the classical system to its symmetric form
# ---------------------------------------------------------------------------


def dh_reduction_check() -> VerificationReport:
    """Chain-rule verification of x = -2 e1, y = 4 e2, z = -8 e3.

    Differentiating the substitution along the classical flow must
    reproduce the symmetric right-hand side as a polynomial identity in
    t1, t2, t3.
    """
    classic = builtin("dh_classic")
    symmetric_v = parse_system(system_source("dh_symmetric")).v
    t_chart = classic.spec.variables
    flow = VectorField3(*classic.spec.v, t_chart)

    t1 = Poly3.variable("t1", t_chart)
    t2 = Poly3.variable("t2", t_chart)
    t3 = Poly3.variable("t3", t_chart)
    substitution = (
        RationalFunction(-2 * (t1 + t2 + t3)),
        RationalFunction(4 * (t1 * t2 + t2 * t3 + t1 * t3)),
        RationalFunction(-8 * t1 * t2 * t3),
    )

    checks = []
    names = ("x", "y", "z")
    for index, (image, name) in enumerate(zip(substitution, names)):
        derived = flow.apply(image)
        target = symmetric_v[index].compose(substitution)
        checks.append(
            Check.from_residual(
                f"reduction.{name}dot",
                f"d/dt of substituted {name} = {name}dot after substitution",
                derived - target,
            )
        )
    return VerificationReport("dh_classic -> dh_symmetric", tuple(checks))


# ---------------------------------------------------------------------------
# quasi-homogeneous grading
# ---------------------------------------------------------------------------


def _system_shift(system: BuiltinSystem) -> Optional[int]:
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


def grading_check(system: BuiltinSystem) -> VerificationReport:
    """Weight bookkeeping: M carries -6 and (alpha, beta, gamma) carry (0, -1, 1)."""
    if system.frame is None:
        raise FrameError(f"{system.name} carries no companion frame to grade")
    if _system_shift(system) is None:
        return VerificationReport(
            system.name,
            (
                Check(
                    "grading.applicability",
                    f"flow is quasi-homogeneous under weights {GRADING_WEIGHTS}",
                    NOT_APPLICABLE,
                ),
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
            checks.append(Check(name, anchor, HOLDS))
        else:
            checks.append(
                Check(name, anchor, FAILS, None, f"weight is {actual}, expected {wanted}")
            )
    return VerificationReport(system.name, tuple(checks))

"""Exterior and vector calculus over rational functions on one 3D chart.

Conventions (load-bearing throughout the package):

* one-form basis order (dx, dy, dz);
* two-form basis order (dy^dz, dz^dx, dx^dy), so that for covectors A, B
  the wedge (A.dx)^(B.dx) has two-form coefficients A x B, the exterior
  derivative of A.dx has two-form coefficients curl(A), and the interior
  product of the volume form by X has two-form coefficients X;
* three-form basis dx^dy^dz.

With this orientation every curl/divergence identity becomes a plain
coefficient equality, with no stray signs.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .algebra import (
    DEFAULT_CHART,
    Poly3,
    RationalFunction,
    as_rational,
    format_point,
    over_lcm,
)


class GradeError(Exception):
    """Form grade outside the domain of an operator."""


class ZeroLogArgumentError(Exception):
    """log term with an identically zero argument."""


# The products and the derivatives on coefficient triples, shared by the
# vector and the form operators.  Each brings a triple over one common
# denominator, computes with the Poly3 numerators, and normalises each output
# coefficient once, against the factors its denominator is built from.


def _cross3(p, q) -> tuple:
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def _dot3(p, q):
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _grad(p: Poly3, names) -> tuple[Poly3, Poly3, Poly3]:
    return (p.diff(names[0]), p.diff(names[1]), p.diff(names[2]))


def _cross(p, q) -> tuple:
    den_p, p = over_lcm(p)
    den_q, q = over_lcm(q)
    return tuple(RationalFunction(top, den_p, den_q) for top in _cross3(p, q))


def _dot(p, q) -> RationalFunction:
    den_p, p = over_lcm(p)
    den_q, q = over_lcm(q)
    return RationalFunction(_dot3(p, q), den_p, den_q)


def _curl(p, names) -> tuple:
    """curl(P/L) = (L curl(P) - grad(L) x P)/L^2."""
    den, p = over_lcm(p)
    (_, py, pz), (qx, _, qz), (rx, ry, _) = (_grad(c, names) for c in p)
    curl = (ry - qz, pz - rx, qx - py)
    if den.is_constant():
        return tuple(RationalFunction(top, den) for top in curl)
    return tuple(RationalFunction(den * c - t, den, den)
                 for c, t in zip(curl, _cross3(_grad(den, names), p)))


def _div(p, names) -> RationalFunction:
    """div(P/L) = (L div(P) - grad(L) . P)/L^2."""
    den, p = over_lcm(p)
    top = p[0].diff(names[0]) + p[1].diff(names[1]) + p[2].diff(names[2])
    return RationalFunction(den * top - _dot3(_grad(den, names), p), den, den)


def _on_one_chart(coeffs, chart=None) -> tuple[RationalFunction, ...]:
    """The coefficients of a vector field or a form as RationalFunctions on
    one chart: the chart given, else that of the first coefficient that is a
    RationalFunction or a Poly3, else the default chart."""
    if chart is None:
        chart = next((c.chart if isinstance(c, RationalFunction) else c.variables
                      for c in coeffs if isinstance(c, (RationalFunction, Poly3))), DEFAULT_CHART)
    return tuple(as_rational(c, tuple(chart)) for c in coeffs)


class VectorField3:
    """Vector field with rational-function components on one chart; a chart
    given last must hold every component."""

    __slots__ = ("components",)

    def __init__(self, cx, cy, cz, chart: Sequence[str] | None = None):
        self.components = _on_one_chart((cx, cy, cz), chart)

    @property
    def chart(self):
        return self.components[0].chart

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def apply(self, f: RationalFunction) -> RationalFunction:
        """Directional derivative sum_i X^i df/dx_i: with X = P/L and
        f = N/E, (E (P . grad N) - N (P . grad E))/(L E^2)."""
        den, p = over_lcm(self.components)
        names = self.chart
        top = _dot3(p, _grad(f.num, names))
        if f.den.is_constant():
            return RationalFunction(top, den)
        top = f.den * top - f.num * _dot3(p, _grad(f.den, names))
        return RationalFunction(top, den, f.den, f.den)

    def __add__(self, other: "VectorField3") -> "VectorField3":
        return VectorField3(*(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "VectorField3") -> "VectorField3":
        return VectorField3(*(a - b for a, b in zip(self.components, other.components)))

    def scale(self, factor) -> "VectorField3":
        factor = as_rational(factor, self.chart)
        return VectorField3(*(factor * a for a in self.components))

    def __eq__(self, other) -> bool:
        return isinstance(other, VectorField3) and self.components == other.components

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"

    __repr__ = __str__


_BASIS_SIZE = {0: 1, 1: 3, 2: 3, 3: 1}


class KForm:
    """Differential form of grade 0..3 in the fixed bases above.

    Forms add, subtract, scale by a function and compare by grade and
    coefficients; ``d`` takes grades 0..2, ``wedge`` and ``interior``
    grades 1 and 2."""

    __slots__ = ("grade", "coeffs", "_d")

    def __init__(self, grade: int, coeffs: Sequence):
        if grade not in _BASIS_SIZE:
            raise GradeError(f"grade must be 0..3, got {grade}")
        coeffs = _on_one_chart(tuple(coeffs))
        if len(coeffs) != _BASIS_SIZE[grade]:
            raise GradeError(
                f"grade {grade} needs {_BASIS_SIZE[grade]} coefficients, got {len(coeffs)}"
            )
        self.grade = grade
        self.coeffs = coeffs
        self._d = None

    @property
    def chart(self):
        return self.coeffs[0].chart

    def covector(self) -> VectorField3:
        """Component triple of a grade-1 or grade-2 form."""
        if self.grade not in (1, 2):
            raise GradeError(f"no covector for grade {self.grade}")
        return VectorField3(*self.coeffs)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    # ---- linear structure ------------------------------------------------

    def _require_same(self, other: "KForm") -> None:
        if self.grade != other.grade:
            raise GradeError(f"grade mismatch: {self.grade} vs {other.grade}")

    def __add__(self, other: "KForm") -> "KForm":
        self._require_same(other)
        return KForm(self.grade, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "KForm") -> "KForm":
        self._require_same(other)
        return KForm(self.grade, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, factor) -> "KForm":
        factor = as_rational(factor, self.chart)
        return KForm(self.grade, tuple(factor * a for a in self.coeffs))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KForm)
            and self.grade == other.grade
            and self.coeffs == other.coeffs
        )

    # ---- graded products ---------------------------------------------------

    def wedge(self, other: "KForm") -> "KForm":
        """Exterior product of two forms of grade 1 or 2 whose grades sum to
        at most 3; a function times a form is ``scale``."""
        if 0 in (self.grade, other.grade) or self.grade + other.grade > 3:
            raise GradeError(f"no wedge of grades {self.grade} and {other.grade}")
        if self.grade == 1 and other.grade == 1:
            return KForm(2, _cross(self.coeffs, other.coeffs))
        # (1,2) and (2,1) both produce (A . B) volume: the grades commute.
        return KForm(3, (_dot(self.coeffs, other.coeffs),))

    def d(self) -> "KForm":
        """Exterior derivative, computed on the first call and kept."""
        if self._d is None:
            self._d = self._derivative()
        return self._d

    def _derivative(self) -> "KForm":
        """Gradient / curl / divergence in coefficients."""
        if self.grade == 3:
            raise GradeError("exterior derivative of a 3-form on a 3D chart")
        names = self.chart
        if self.grade == 0:
            f = self.coeffs[0]
            return KForm(1, (f.diff(names[0]), f.diff(names[1]), f.diff(names[2])))
        if self.grade == 1:
            return KForm(2, _curl(self.coeffs, names))
        return KForm(3, (_div(self.coeffs, names),))

    def interior(self, field: VectorField3) -> "KForm":
        """Contraction of the first slot of a 1- or 2-form with a vector
        field; iota_X of rho dx^dy^dz is the 2-form with coefficients rho X."""
        if self.grade == 1:
            return KForm(0, (_dot(self.coeffs, field.components),))
        if self.grade == 2:
            # iota_X (N . dx^dx) = (N x X) . dx
            return KForm(1, _cross(self.coeffs, field.components))
        raise GradeError(f"no interior product of a {self.grade}-form")

    def __str__(self) -> str:
        return format_form(self)

    __repr__ = __str__


def _basis_labels(grade: int, chart) -> tuple[str, ...]:
    x, y, z = chart
    if grade == 0:
        return ("",)
    if grade == 1:
        return (f"d{x}", f"d{y}", f"d{z}")
    if grade == 2:
        return (f"d{y}^d{z}", f"d{z}^d{x}", f"d{x}^d{y}")
    return (f"d{x}^d{y}^d{z}",)


def format_form(form: KForm) -> str:
    if form.is_zero():
        return "0"
    labels = _basis_labels(form.grade, form.chart)
    pieces = []
    for coeff, label in zip(form.coeffs, labels):
        if coeff.is_zero():
            continue
        text = str(coeff)
        if not label:
            pieces.append(text)
            continue
        if text == "1":
            term = label
        elif text == "-1":
            term = f"-{label}"
        elif "/" in text or " " in text:
            term = f"({text})*{label}"
        else:
            term = f"{text}*{label}"
        pieces.append(term)
    out = pieces[0]
    for term in pieces[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


# ---------------------------------------------------------------------------
# vector calculus
# ---------------------------------------------------------------------------


def div(field: VectorField3) -> RationalFunction:
    return _div(field.components, field.chart)


def cross(a: VectorField3, b: VectorField3) -> VectorField3:
    return VectorField3(*_cross(a.components, b.components))


def dot(a: VectorField3, b: VectorField3) -> RationalFunction:
    return _dot(a.components, b.components)


def lie_bracket(x: VectorField3, y: VectorField3) -> VectorField3:
    """Jacobi-Lie bracket [X, Y]^i = X(Y^i) - Y(X^i)."""
    return VectorField3(*(x.apply(c) for c in y.components)) - VectorField3(
        *(y.apply(c) for c in x.components))


# ---------------------------------------------------------------------------
# first integrals with logarithmic terms
# ---------------------------------------------------------------------------


class LogIntegral:
    """Function r + sum_i c_i log(f_i) with rational r, f_i and constant c_i.

    Its differential dr + sum c_i df_i/f_i is always a rational one-form,
    so exact zero testing of iota_v dH works inside the rational engine
    even though H itself is transcendental.  The terms are taken as given:
    nonzero constant coefficients of distinct arguments, as the parser
    merges them; each coefficient (a constant Poly3 or RationalFunction, an
    int or a Fraction) is kept as a constant RationalFunction.
    """

    __slots__ = ("rational_part", "log_terms")

    def __init__(
        self,
        rational_part: RationalFunction,
        log_terms: Iterable[tuple[RationalFunction | Fraction, RationalFunction]] = (),
    ):
        chart = rational_part.chart
        log_terms = tuple((as_rational(c, chart), argument) for c, argument in log_terms)
        if any(argument.is_zero() for _, argument in log_terms):
            raise ZeroLogArgumentError("log argument is identically zero")
        self.rational_part = rational_part
        self.log_terms = log_terms

    def differential(self) -> KForm:
        total = KForm(0, (self.rational_part,)).d()
        for coeff, argument in self.log_terms:
            total = total + KForm(0, (argument,)).d().scale(coeff / argument)
        return total

    def eval_float(self, point: tuple) -> float:
        """Value with log|f| at a point (x, y, z); raises on a vanishing log
        argument."""
        value = float(self.rational_part.eval(point))
        for coeff, argument in self.log_terms:
            arg_value = float(argument.eval(point))
            if arg_value == 0.0:
                raise ZeroLogArgumentError(
                    f"log argument {argument} vanishes at {format_point(point)}")
            num, den = coeff.constant_value()
            value += num / den * math.log(abs(arg_value))
        return value

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LogIntegral)
            and self.rational_part == other.rational_part
            and self.log_terms == other.log_terms
        )

    def __str__(self) -> str:
        pieces = []
        if not self.rational_part.is_zero():
            pieces.append(str(self.rational_part))
        for coeff, argument in self.log_terms:
            if coeff == 1:
                body = f"log({argument})"
            elif coeff == -1:
                body = f"-log({argument})"
            else:
                body = f"{coeff}*log({argument})"
            pieces.append(body)
        if not pieces:
            return "0"
        out = pieces[0]
        for term in pieces[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    __repr__ = __str__

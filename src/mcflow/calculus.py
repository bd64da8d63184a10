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
from fractions import Fraction
from typing import Iterable, Sequence

from .algebra import (
    DEFAULT_CHART,
    ChartMismatchError,
    Point3,
    Poly3,
    RationalFunction,
)


class GradeError(Exception):
    """Form grade outside the domain of an operator."""


class ZeroLogArgumentError(Exception):
    """log term with an identically zero argument."""


def _rf(value, chart) -> RationalFunction:
    if isinstance(value, RationalFunction):
        if value.chart != chart:
            raise ChartMismatchError(f"charts differ: {value.chart} vs {chart}")
        return value
    if isinstance(value, Poly3):
        return RationalFunction(value)
    return RationalFunction.const(value, chart)


# the products and the divergence on coefficient triples, shared by the
# vector and the form operators


def _cross(p, q) -> tuple:
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def _dot(p, q) -> RationalFunction:
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _div(p, names) -> RationalFunction:
    return p[0].diff(names[0]) + p[1].diff(names[1]) + p[2].diff(names[2])


class VectorField3:
    """Vector field with rational-function components on the fixed chart."""

    __slots__ = ("components",)

    def __init__(self, cx, cy, cz, chart: Sequence[str] = DEFAULT_CHART):
        chart = tuple(chart)
        self.components = (_rf(cx, chart), _rf(cy, chart), _rf(cz, chart))

    @classmethod
    def from_components(cls, comps: Sequence) -> "VectorField3":
        chart = comps[0].chart if isinstance(comps[0], RationalFunction) else DEFAULT_CHART
        return cls(comps[0], comps[1], comps[2], chart)

    @classmethod
    def zero(cls, chart: Sequence[str] = DEFAULT_CHART) -> "VectorField3":
        return cls(0, 0, 0, chart)

    @property
    def chart(self):
        return self.components[0].chart

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def apply(self, f: RationalFunction) -> RationalFunction:
        """Directional derivative sum_i X^i df/dx_i."""
        total = RationalFunction.const(0, self.chart)
        for comp, name in zip(self.components, self.chart):
            if not comp.is_zero():
                total = total + comp * f.diff(name)
        return total

    def __add__(self, other: "VectorField3") -> "VectorField3":
        return VectorField3.from_components(
            tuple(a + b for a, b in zip(self.components, other.components))
        )

    def __sub__(self, other: "VectorField3") -> "VectorField3":
        return VectorField3.from_components(
            tuple(a - b for a, b in zip(self.components, other.components))
        )

    def __neg__(self) -> "VectorField3":
        return VectorField3.from_components(tuple(-a for a in self.components))

    def scale(self, factor) -> "VectorField3":
        factor = _rf(factor, self.chart)
        return VectorField3.from_components(tuple(factor * a for a in self.components))

    def __eq__(self, other) -> bool:
        return isinstance(other, VectorField3) and self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"

    __repr__ = __str__


_BASIS_SIZE = {0: 1, 1: 3, 2: 3, 3: 1}


class KForm:
    """Differential form of grade 0..3 in the fixed bases above."""

    __slots__ = ("grade", "coeffs", "_d")

    def __init__(self, grade: int, coeffs: Sequence, chart: Sequence[str] = DEFAULT_CHART):
        if grade not in _BASIS_SIZE:
            raise GradeError(f"grade must be 0..3, got {grade}")
        chart = tuple(chart)
        coeffs = tuple(_rf(c, chart) for c in coeffs)
        if len(coeffs) != _BASIS_SIZE[grade]:
            raise GradeError(
                f"grade {grade} needs {_BASIS_SIZE[grade]} coefficients, got {len(coeffs)}"
            )
        self.grade = grade
        self.coeffs = coeffs
        self._d = None

    # ---- constructors ---------------------------------------------------

    @classmethod
    def scalar(cls, f, chart: Sequence[str] = DEFAULT_CHART) -> "KForm":
        return cls(0, (f,), chart)

    @classmethod
    def one_form(cls, ax, ay, az, chart: Sequence[str] = DEFAULT_CHART) -> "KForm":
        return cls(1, (ax, ay, az), chart)

    @classmethod
    def two_form(cls, byz, bzx, bxy, chart: Sequence[str] = DEFAULT_CHART) -> "KForm":
        return cls(2, (byz, bzx, bxy), chart)

    @classmethod
    def volume(cls, f=1, chart: Sequence[str] = DEFAULT_CHART) -> "KForm":
        return cls(3, (f,), chart)

    @classmethod
    def from_covector(cls, field: VectorField3) -> "KForm":
        """One-form A.dx of a covector A."""
        return cls(1, field.components, field.chart)

    @property
    def chart(self):
        return self.coeffs[0].chart

    def covector(self) -> VectorField3:
        """Component triple of a grade-1 or grade-2 form."""
        if self.grade not in (1, 2):
            raise GradeError(f"no covector for grade {self.grade}")
        return VectorField3.from_components(self.coeffs)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    # ---- linear structure ------------------------------------------------

    def _require_same(self, other: "KForm") -> None:
        if self.grade != other.grade:
            raise GradeError(f"grade mismatch: {self.grade} vs {other.grade}")
        if self.chart != other.chart:
            raise ChartMismatchError(f"charts differ: {self.chart} vs {other.chart}")

    def __add__(self, other: "KForm") -> "KForm":
        self._require_same(other)
        return KForm(self.grade, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.chart)

    def __sub__(self, other: "KForm") -> "KForm":
        self._require_same(other)
        return KForm(self.grade, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)), self.chart)

    def __neg__(self) -> "KForm":
        return KForm(self.grade, tuple(-a for a in self.coeffs), self.chart)

    def scale(self, factor) -> "KForm":
        factor = _rf(factor, self.chart)
        return KForm(self.grade, tuple(factor * a for a in self.coeffs), self.chart)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KForm)
            and self.grade == other.grade
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.grade, self.coeffs))

    # ---- graded products ---------------------------------------------------

    def wedge(self, other: "KForm") -> "KForm":
        if self.chart != other.chart:
            raise ChartMismatchError(f"charts differ: {self.chart} vs {other.chart}")
        total = self.grade + other.grade
        if total > 3:
            raise GradeError(f"wedge of grades {self.grade} and {other.grade} exceeds 3")
        if self.grade == 0:
            return other.scale(self.coeffs[0])
        if other.grade == 0:
            return self.scale(other.coeffs[0])
        if self.grade == 1 and other.grade == 1:
            return KForm.two_form(*_cross(self.coeffs, other.coeffs), self.chart)
        # (1,2) and (2,1) both produce (A . B) volume: the grades commute.
        return KForm.volume(_dot(self.coeffs, other.coeffs), self.chart)

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
            return KForm.one_form(f.diff(names[0]), f.diff(names[1]), f.diff(names[2]), names)
        a = self.coeffs
        if self.grade == 1:
            return KForm.two_form(
                a[2].diff(names[1]) - a[1].diff(names[2]),
                a[0].diff(names[2]) - a[2].diff(names[0]),
                a[1].diff(names[0]) - a[0].diff(names[1]),
                names,
            )
        return KForm.volume(_div(a, names), names)

    def interior(self, field: VectorField3) -> "KForm":
        """Contraction of the first slot with a vector field."""
        if self.grade == 0:
            raise GradeError("interior product of a 0-form")
        x = field.components
        a = self.coeffs
        if self.grade == 1:
            return KForm.scalar(_dot(a, x), self.chart)
        if self.grade == 2:
            # iota_X (N . dx^dx) = (N x X) . dx
            return KForm.one_form(*_cross(a, x), self.chart)
        rho = a[0]
        return KForm.two_form(rho * x[0], rho * x[1], rho * x[2], self.chart)

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
    return VectorField3(*_cross(a.components, b.components), a.chart)


def dot(a: VectorField3, b: VectorField3) -> RationalFunction:
    return _dot(a.components, b.components)


def triple(a: VectorField3, b: VectorField3, c: VectorField3) -> RationalFunction:
    return dot(cross(a, b), c)


def lie_bracket(x: VectorField3, y: VectorField3) -> VectorField3:
    """Jacobi-Lie bracket [X, Y]^i = X(Y^i) - Y(X^i)."""
    return VectorField3.from_components(
        tuple(x.apply(c) for c in y.components)
    ) - VectorField3.from_components(tuple(y.apply(c) for c in x.components))


def flux_form(field: VectorField3) -> KForm:
    """iota_X (dx^dy^dz): the 2-form with coefficients X."""
    return KForm.volume(1, field.chart).interior(field)


# ---------------------------------------------------------------------------
# first integrals with logarithmic terms
# ---------------------------------------------------------------------------


class LogIntegral:
    """Function r + sum_i c_i log(f_i) with rational r, f_i and constant c_i.

    Its differential dr + sum c_i df_i/f_i is always a rational one-form,
    so exact zero testing of iota_v dH works inside the rational engine
    even though H itself is transcendental.
    """

    __slots__ = ("rational_part", "log_terms")

    def __init__(
        self,
        rational_part: RationalFunction,
        log_terms: Iterable[tuple[Fraction, RationalFunction]] = (),
    ):
        terms = []
        for coeff, argument in log_terms:
            coeff = Fraction(coeff)
            if argument.is_zero():
                raise ZeroLogArgumentError("log argument is identically zero")
            if coeff != 0:
                terms.append((coeff, argument))
        self.rational_part = rational_part
        self.log_terms = tuple(terms)

    @property
    def chart(self):
        return self.rational_part.chart

    def differential(self) -> KForm:
        total = KForm.scalar(self.rational_part, self.chart).d()
        for coeff, argument in self.log_terms:
            dlog = KForm.scalar(argument, self.chart).d().scale(
                RationalFunction.const(coeff, self.chart) / argument
            )
            total = total + dlog
        return total

    def eval_float(self, point: Point3) -> float:
        """Value with log|f|; raises on a vanishing log argument."""
        value = float(self.rational_part.eval(point))
        for coeff, argument in self.log_terms:
            arg_value = float(argument.eval(point))
            if arg_value == 0.0:
                raise ZeroLogArgumentError(f"log argument {argument} vanishes at {point}")
            value += float(coeff) * math.log(abs(arg_value))
        return value

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LogIntegral)
            and self.rational_part == other.rational_part
            and self.log_terms == other.log_terms
        )

    def __hash__(self):
        return hash((self.rational_part, self.log_terms))

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
                c = str(coeff.numerator) if coeff.denominator == 1 else f"{coeff.numerator}/{coeff.denominator}"
                body = f"{c}*log({argument})"
            pieces.append(body)
        if not pieces:
            return "0"
        out = pieces[0]
        for term in pieces[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    __repr__ = __str__

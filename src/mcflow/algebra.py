"""Exact arithmetic over a fixed three-variable chart.

A polynomial is a signed rational content, kept as a reduced integer pair,
times a primitive integer term map (see ``Poly3``).  That split is unique, so
equality and hashing compare the stored fields, and by Gauss's lemma products
and exact quotients of primitive maps are primitive: multiply, exact division
and gcd run on the integer maps and only multiply or divide the contents.
A rational constant is a reduced integer pair wherever the package computes
or prints one: ``fractions`` is imported only where a ``Fraction`` goes out
to a library caller (exact evaluation).  ``Poly3.const``, ``RationalFunction.const``,
``*`` and ``==`` still take a ``Fraction``: they read its ``numerator`` and
``denominator``.

Rational functions are kept canonical: numerator and denominator coprime,
denominator monic in graded-lexicographic order.  Syntactic equality of
canonical forms therefore coincides with mathematical equality, which is
what lets the rest of the package claim that a residual vanishes
*identically* rather than merely at sample points.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
import sys
from heapq import heapify, heappop, heappush
from operator import sub
from typing import Iterator, Protocol, Sequence


class ExactNumber(Protocol):
    """An int or a Fraction, as Poly3.const reads it."""

    numerator: int
    denominator: int

DEFAULT_CHART = ("x", "y", "z")

# Exponents must fit a machine word; the inputs of interest have tiny
# degrees, so hitting this bound always indicates a bug upstream.
MAX_EXPONENT = 2**31 - 1


class AlgebraError(Exception):
    """Base class for arithmetic-layer failures."""


class ChartMismatchError(AlgebraError):
    """Operands live on different variable charts."""


class ExponentOverflowError(AlgebraError):
    """A monomial exponent exceeded the machine-word bound."""


class NegativeExponentError(AlgebraError):
    """Polynomial power with a negative exponent."""


class UnknownVariableError(AlgebraError):
    """A variable name that is not part of the chart."""


class ZeroDenominatorError(AlgebraError):
    """Attempt to build a rational function with denominator zero."""


class ZeroPolynomialError(AlgebraError):
    """gcd of two zero polynomials is undefined."""


class NotDivisibleError(AlgebraError):
    """Exact polynomial division left a remainder."""


class SingularPointError(AlgebraError):
    """Evaluation at a point where the denominator vanishes."""


ExponentTriple = tuple[int, int, int]
IntTerms = dict[ExponentTriple, int]


def _chart(variables: Sequence[str]) -> tuple[str, str, str]:
    variables = tuple(variables)
    if len(variables) != 3:
        raise ChartMismatchError(f"chart must have 3 variables, got {variables}")
    return variables


def _grlex_key(exponents: ExponentTriple) -> tuple:
    return (sum(exponents), exponents)


def _canonical(p: IntTerms, num: int, den: int) -> tuple[IntTerms, int, int, ExponentTriple | None]:
    """(primitive map, content numerator, content denominator, leading triple)
    of the polynomial num * p / den, for an integer term map p without zero
    coefficients, num != 0 and den > 0."""
    if not p:
        return p, 0, 1, None
    lead = max(p, key=_grlex_key)
    k = _int_content(p)
    if p[lead] < 0:
        k = -k
    if k != 1:
        p = {e: c // k for e, c in p.items()}
    num *= k
    g = math.gcd(num, den)
    return p, num // g, den // g, lead


class Poly3:
    """Sparse polynomial in three named variables over the rationals.

    The value is ``num / den * prim``.  ``prim`` maps exponent triples to
    nonzero integers with gcd 1 and a positive graded-lex leading
    coefficient, the content ``num / den`` is a pair of coprime ints with
    ``den > 0``, and ``lead`` is the graded-lex leading triple; zero is the
    empty map with content ``(0, 1)`` and no lead.  Values that differ by a
    scalar share one map, which is never mutated.  Term iteration
    (``_term_pairs()``) is in descending graded-lexicographic order of the
    chart variables.
    """

    __slots__ = ("variables", "_prim", "_num", "_den", "_lead")

    # ---- constructors -------------------------------------------------

    def __init__(self, prim: IntTerms, num: int, den: int, lead: ExponentTriple | None,
                 variables: tuple[str, str, str]):
        """Trusted: the fields already hold the invariant above, on a chart
        tuple.  ``const``, ``variable`` and the operators build every value."""
        self.variables = variables
        self._prim = prim
        self._num = num
        self._den = den
        self._lead = lead

    @classmethod
    def const(cls, value: ExactNumber, variables: Sequence[str] = DEFAULT_CHART) -> "Poly3":
        """The constant value, an int or a Fraction: its numerator and
        denominator are read, which a float does not have."""
        try:
            num, den = value.numerator, value.denominator
        except AttributeError:
            raise TypeError(f"not an exact coefficient: {value!r}") from None
        if not num:
            return cls({}, 0, 1, None, _chart(variables))
        return cls({(0, 0, 0): 1}, num, den, (0, 0, 0), _chart(variables))

    @classmethod
    def variable(cls, name: str, variables: Sequence[str] = DEFAULT_CHART) -> "Poly3":
        variables = _chart(variables)
        if name not in variables:
            raise UnknownVariableError(f"{name!r} not in chart {variables}")
        exps = [0, 0, 0]
        exps[variables.index(name)] = 1
        lead = tuple(exps)
        return cls({lead: 1}, 1, 1, lead, variables)

    # ---- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self._prim

    def is_constant(self) -> bool:
        return self._lead in (None, (0, 0, 0))

    def constant_value(self) -> tuple[int, int]:
        """(numerator, denominator) of a constant, coprime with a positive
        denominator."""
        if not self.is_constant():
            raise AlgebraError(f"{self} is not constant")
        return self._num, self._den  # a nonzero constant's map is {(0, 0, 0): 1}

    def term_count(self) -> int:
        return len(self._prim)

    def _term_pairs(self) -> Iterator[tuple[ExponentTriple, int, int]]:
        """(exponents, numerator, denominator) of each term in descending
        graded-lex order, the coefficient's pair coprime with den > 0."""
        den = self._den
        for exps in sorted(self._prim, key=_grlex_key, reverse=True):
            num = self._num * self._prim[exps]
            g = math.gcd(num, den)
            yield exps, num // g, den // g

    def _lead_pair(self) -> tuple[int, int]:
        """Reduced (numerator, denominator) of the leading coefficient."""
        num = self._num * self._prim[self._lead]
        g = math.gcd(num, self._den)
        return num // g, self._den // g

    def uniform_weight(self, weights: tuple[int, int, int]) -> int | None:
        """Common weighted degree of all terms, or None if mixed/zero."""
        seen = {sum(e * w for e, w in zip(exps, weights)) for exps in self._prim}
        if len(seen) != 1:
            return None
        return seen.pop()

    # ---- arithmetic ----------------------------------------------------

    def _require_chart(self, other: "Poly3") -> None:
        if self.variables != other.variables:
            raise ChartMismatchError(
                f"charts differ: {self.variables} vs {other.variables}"
            )

    def _coerce(self, other) -> "Poly3":
        if isinstance(other, Poly3):
            self._require_chart(other)
            return other
        return Poly3.const(other, self.variables)

    def __add__(self, other) -> "Poly3":
        other = self._coerce(other)
        if not other._prim:
            return self
        if not self._prim:
            return other
        # self + other = (k1 * prim1 + k2 * prim2) * g / den with k1, k2 coprime
        den = math.lcm(self._den, other._den)
        k1 = self._num * (den // self._den)
        k2 = other._num * (den // other._den)
        g = math.gcd(k1, k2)
        k1, k2 = k1 // g, k2 // g
        terms = {e: k1 * c for e, c in self._prim.items()}
        for exps, coeff in other._prim.items():
            acc = terms.get(exps, 0) + k2 * coeff
            if acc:
                terms[exps] = acc
            else:
                del terms[exps]
        return Poly3(*_canonical(terms, g, den), self.variables)

    __radd__ = __add__

    def __neg__(self) -> "Poly3":
        return Poly3(self._prim, -self._num, self._den, self._lead, self.variables)

    def __sub__(self, other) -> "Poly3":
        return self + (-self._coerce(other))

    def _scale(self, num: int, den: int) -> "Poly3":
        """self * num / den for coprime nonzero ints (den may be negative);
        the contents cross-reduce (Knuth, TAOCP vol. 2, 4.5.1)."""
        if den < 0:
            num, den = -num, -den
        g1, g2 = math.gcd(self._num, den), math.gcd(num, self._den)
        return Poly3(self._prim, (self._num // g1) * (num // g2), (self._den // g2) * (den // g1),
                     self._lead, self.variables)

    def __mul__(self, other) -> "Poly3":
        other = self._coerce(other)
        if not self._prim or not other._prim:
            return Poly3({}, 0, 1, None, self.variables)
        a, b = self._lead, other._lead
        if a == (0, 0, 0):  # a constant factor scales the other's shared map
            return other._scale(self._num, self._den)
        if b == (0, 0, 0):
            return self._scale(other._num, other._den)
        # Every exponent of a factor is at most its graded-lex lead's total
        # degree, so their sum bounds every product exponent; past that bound,
        # the sums of the factors' largest exponents decide, axis by axis.
        if sum(a) + sum(b) > MAX_EXPONENT:
            top = [max(p) + max(q) for p, q in zip(zip(*self._prim), zip(*other._prim))]
            if max(top) > MAX_EXPONENT:
                raise ExponentOverflowError(f"product exponents up to {tuple(top)} too large")
        product = Poly3(_int_mul(self._prim, other._prim), self._num, self._den,
                        (a[0] + b[0], a[1] + b[1], a[2] + b[2]), self.variables)
        return product._scale(other._num, other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly3":
        if not isinstance(n, int):
            raise NegativeExponentError(f"exponent must be an integer, got {n!r}")
        if n < 0:
            raise NegativeExponentError(f"negative polynomial exponent {n}")
        result = Poly3.const(1, self.variables)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly3):
            if not hasattr(other, "denominator"):  # not an int or a Fraction
                return NotImplemented
            other = Poly3.const(other, self.variables)
        return (self.variables == other.variables and self._num == other._num
                and self._den == other._den and self._prim == other._prim)

    def __hash__(self):
        return hash((self.variables, self._num, self._den, frozenset(self._prim.items())))

    # ---- structure -----------------------------------------------------

    def monic(self) -> "Poly3":
        """Scale so the graded-lex leading coefficient is 1."""
        if self._lead is None:
            return self
        den = self._prim[self._lead]
        if self._num == 1 and self._den == den:
            return self
        return Poly3(self._prim, 1, den, self._lead, self.variables)

    def diff(self, name: str) -> "Poly3":
        if name not in self.variables:
            raise UnknownVariableError(f"{name!r} not in chart {self.variables}")
        index = self.variables.index(name)
        out: IntTerms = {}
        for exps, coeff in self._prim.items():
            e = exps[index]
            if e == 0:
                continue
            new = list(exps)
            new[index] = e - 1
            out[tuple(new)] = coeff * e
        return Poly3(*_canonical(out, self._num, self._den), self.variables)

    def eval(self, point: tuple):
        """Value at a point (x, y, z): a float if a coordinate is a float,
        else the exact Fraction at int or Fraction coordinates."""
        x, y, z = point
        if float not in (type(x), type(y), type(z)):
            from fractions import Fraction

            total = Fraction(0)
            for (a, b, c), coeff in self._prim.items():
                total += coeff * x ** a * y ** b * z ** c
            return total * Fraction(self._num, self._den)
        # coeff * num / den is an int true division, correctly rounded exactly
        # like float() of the term's Fraction coefficient.
        num, den = self._num, self._den
        total = 0.0
        for (a, b, c), coeff in self._prim.items():
            total += coeff * num / den * x ** a * y ** b * z ** c
        return total

    def compose(self, images: Sequence["Poly3"]) -> "Poly3":
        """Substitute a polynomial for each chart variable."""
        if len(images) != 3:
            raise ChartMismatchError("compose needs one image per chart variable")
        chart = images[0].variables
        total = Poly3.const(0, chart)
        for exps, coeff in self._prim.items():
            term = Poly3.const(coeff, chart)._scale(self._num, self._den)
            for image, e in zip(images, exps):
                if e:
                    term = term * image**e
            total = total + term
        return total

    def try_div(self, divisor: "Poly3") -> "Poly3 | None":
        """Exact quotient self/divisor, or None if division leaves a remainder."""
        self._require_chart(divisor)
        if divisor.is_zero():
            raise ZeroDenominatorError("division by the zero polynomial")
        if self.is_zero():
            return self
        if divisor.is_constant():
            return self._scale(divisor._den, divisor._num)
        # A primitive divisor divides over Q iff it divides over Z, and then
        # the quotient of the two primitive maps is primitive with a positive
        # lead (Gauss), so the integer kernel decides divisibility exactly.
        a, b = self._lead, divisor._lead
        quotient = _int_try_div(self._prim, a, divisor._prim, b)
        if quotient is None:
            return None
        return Poly3(quotient, self._num, self._den, (a[0] - b[0], a[1] - b[1], a[2] - b[2]),
                     self.variables)._scale(divisor._den, divisor._num)

    def div_exact(self, divisor: "Poly3") -> "Poly3":
        quotient = self.try_div(divisor)
        if quotient is None:
            raise NotDivisibleError(f"({self}) is not divisible by ({divisor})")
        return quotient

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly3({format_poly(self)})"


# ---------------------------------------------------------------------------
# gcd: content/primitive-part recursion with a subresultant PRS in a chosen
# main variable, on the primitive integer term maps; only the monic result
# gets a rational content.
# Most calls are coprime; _coprime_certified proves that without the PRS.  The
# primitive gcd g divides a in Z[x,y,z] (Gauss), so if lc_axis(a) is nonzero at
# the image point mod p, deg_axis(g) <= deg gcd(images); 0 on every axis: g = 1.
# ---------------------------------------------------------------------------

# The largest prime below 2**30, so every reduced image coefficient is one
# CPython digit.  An unlucky prime, like an unlucky point, only sends a coprime
# pair on to peel and the PRS.
_IMAGE_PRIME = 2**30 - 35
# Fixed pseudo-random evaluation point (x, y, z) for the modular images.  An
# unlucky point only sends a coprime pair on to the PRS; small points such as
# (3, 5) are unlucky for many of the conjugated inputs.
_IMAGE_POINT = (978360241, 538756179, 790908616)

# The kernel's answers, keyed by the unordered pair of primitive maps (as
# frozensets of their terms): (primitive positive-led gcd, its leading triple).
# Rational arithmetic pairs equal maps held by different objects again and
# again, such as one numerator with one shared denominator.  The monic gcd is
# unique and maps are never mutated, so a hit is the answer the kernel would
# give; a request holds a few hundred distinct pairs.
_gcd_memo: dict[frozenset, tuple[IntTerms, ExponentTriple]] = {}


def poly_gcd(a: Poly3, b: Poly3) -> Poly3:
    """Monic greatest common divisor; gcd(p, 0) = monic(p)."""
    a._require_chart(b)
    if a.is_zero() and b.is_zero():
        raise ZeroPolynomialError("gcd(0, 0) is undefined")
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if a.is_constant() or b.is_constant():
        return Poly3.const(1, a.variables)
    key = frozenset((frozenset(a._prim.items()), frozenset(b._prim.items())))
    known = _gcd_memo.get(key)
    if known is None:
        prim, _, _, lead = _canonical(_int_gcd(a._prim, b._prim), 1, 1)
        known = _gcd_memo[key] = prim, lead
    prim, lead = known
    return Poly3(prim, 1, prim[lead], lead, a.variables)


def _degrees(p: IntTerms) -> tuple[int, ...]:
    """Per-axis degrees of a nonzero p."""
    return tuple(map(max, zip(*p)))


def _int_mul(a: IntTerms, b: IntTerms) -> IntTerms:
    out: IntTerms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exps = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            acc = out.get(exps)
            acc = c1 * c2 if acc is None else acc + c1 * c2
            if acc:
                out[exps] = acc
            else:
                out.pop(exps, None)
    return out


def _int_sub(a: IntTerms, b: IntTerms) -> IntTerms:
    out = dict(a)
    for exps, coeff in b.items():
        acc = out.get(exps, 0) - coeff
        if acc:
            out[exps] = acc
        else:
            out.pop(exps, None)
    return out


def _int_content(p: IntTerms) -> int:
    g = 0
    for value in p.values():
        g = math.gcd(g, value)
        if g == 1:
            break
    return g


def _heap_key(e: ExponentTriple) -> tuple:
    """Min-heap key of e: the graded-lex largest triple pops first."""
    return (-e[0] - e[1] - e[2], -e[0], -e[1], e)


def _int_div_exact(a: IntTerms, b: IntTerms) -> IntTerms:
    """Exact quotient in Z[x,y,z]; raises NotDivisibleError otherwise.

    The remainder's leading term comes off a heap of graded-lex keys (after
    Monagan & Pearce).  A term that cancels keeps its key in the heap, and
    the key is skipped when it comes off (lazy deletion)."""
    if not b:
        raise ZeroDenominatorError("division by zero in gcd kernel")
    l0, l1, l2 = lead = max(b, key=_grlex_key)
    lead_coeff = b[lead]
    rest = dict(a)
    heap = [_heap_key(e) for e in rest]
    heapify(heap)
    quotient: IntTerms = {}
    while rest:
        exps = heappop(heap)[3]
        coeff = rest.get(exps)
        if coeff is None:
            continue
        q_exps = (exps[0] - l0, exps[1] - l1, exps[2] - l2)
        q, r = divmod(coeff, lead_coeff)
        if r or q_exps[0] < 0 or q_exps[1] < 0 or q_exps[2] < 0:
            raise NotDivisibleError("inexact polynomial division in gcd kernel")
        quotient[q_exps] = q
        for b_exps, b_coeff in b.items():
            t = (b_exps[0] + q_exps[0], b_exps[1] + q_exps[1], b_exps[2] + q_exps[2])
            acc = rest.get(t)
            if acc is None:
                rest[t] = -b_coeff * q
                heappush(heap, _heap_key(t))
            elif acc == b_coeff * q:
                del rest[t]
            else:
                rest[t] = acc - b_coeff * q
    return quotient


def _int_try_div(a: IntTerms, lead_a: ExponentTriple, b: IntTerms,
                 lead_b: ExponentTriple) -> IntTerms | None:
    """a / b for nonzero maps with graded-lex leading triples lead_a and
    lead_b, or None if b does not divide a.  The leads multiply (graded lex
    is a monomial order), so if b's lead triple or lead coefficient does not
    divide a's, b cannot divide a and the heap division is not run."""
    if (lead_a[0] < lead_b[0] or lead_a[1] < lead_b[1] or lead_a[2] < lead_b[2]
            or a[lead_a] % b[lead_b]):
        return None
    try:
        return _int_div_exact(a, b)
    except NotDivisibleError:
        return None


def _int_pow(p: IntTerms, n: int) -> IntTerms:
    result: IntTerms = {(0, 0, 0): 1}
    for _ in range(n):
        result = _int_mul(result, p)
    return result


def _image(p: IntTerms, axis: int, degree: int) -> list[int]:
    """p mod _IMAGE_PRIME as a polynomial in the axis variable (coefficients
    from degree 0 up to p's degree there), the other two variables set to
    _IMAGE_POINT."""
    prime = _IMAGE_PRIME
    i, j = [k for k in range(3) if k != axis]
    ri, rj = _IMAGE_POINT[i], _IMAGE_POINT[j]
    powers_i, powers_j = [1], [1]
    coeffs = [0] * (degree + 1)
    for exps, coeff in p.items():
        ei, ej = exps[i], exps[j]
        while len(powers_i) <= ei:
            powers_i.append(powers_i[-1] * ri % prime)
        while len(powers_j) <= ej:
            powers_j.append(powers_j[-1] * rj % prime)
        coeffs[exps[axis]] += coeff * powers_i[ei] * powers_j[ej]
    return [c % prime for c in coeffs]


def _mod_gcd_degree(f: list[int], g: list[int]) -> int:
    """Degree of gcd(f, g) in GF(_IMAGE_PRIME)[t]; both leading coefficients
    must be nonzero."""
    prime = _IMAGE_PRIME
    while g:
        f = list(f)
        inverse = pow(g[-1], -1, prime)
        dg = len(g) - 1
        while len(f) > dg:
            q = f[-1] * inverse % prime
            shift = len(f) - 1 - dg
            for k in range(dg):
                f[shift + k] = (f[shift + k] - q * g[k]) % prime
            f.pop()
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) - 1


def _coprime_certified(a: IntTerms, b: IntTerms, deg_a: tuple[int, ...],
                       deg_b: tuple[int, ...]) -> bool:
    """True only if a and b (integer-primitive, with per-axis degrees deg_a
    and deg_b) have a constant gcd; False means undecided."""
    for axis in range(3):
        if deg_a[axis] <= 0 or deg_b[axis] <= 0:
            continue
        image_a, image_b = _image(a, axis, deg_a[axis]), _image(b, axis, deg_b[axis])
        if not image_a[-1] or not image_b[-1]:
            return False
        if _mod_gcd_degree(image_a, image_b) > 0:
            return False
    return True


def _choose_main(deg_a: tuple[int, ...], deg_b: tuple[int, ...]) -> int:
    """Axis, of those where both have positive degree, giving the shortest
    remainder sequence, or -1 if there is none.  The first shared axis
    instead took `verify` of ROADMAP's triangular pushes of guillot_conj0
    from 0.8 to 3.8 s (phi1) and from 4.7 to 31.4 s (phi3)."""
    best, best_cost = -1, None
    for axis in range(3):
        da, db = deg_a[axis], deg_b[axis]
        if da <= 0 or db <= 0:
            continue
        cost = (min(da, db), max(da, db))
        if best_cost is None or cost < best_cost:
            best, best_cost = axis, cost
    return best


def _int_strip(p: IntTerms) -> IntTerms:
    """Divide out the integer content (the gcd is only needed up to scalars)."""
    k = _int_content(p)
    return p if k <= 1 else {e: v // k for e, v in p.items()}


def _int_gcd(a: IntTerms, b: IntTerms) -> IntTerms:
    """gcd up to a scalar of two nonzero maps; integer contents are ignored."""
    a = _int_strip(a)
    b = _int_strip(b)
    # the common monomial factor: per axis, the least exponent in a and b
    low = tuple(map(min, zip(*a, *b)))
    if len(a) == 1 or len(b) == 1:
        return {low: 1}
    if any(low):
        # A shared monomial fails the certificate, and the PRS would find
        # only content, which the factor base never learns: divide it out.
        # Without this branch the benchmark's seed-1 candidates requests enter
        # the PRS 36 times, not 21 (test_guillot_candidate_rarely_reaches_the_prs).
        l0, l1, l2 = low
        g = _int_gcd({(e0 - l0, e1 - l1, e2 - l2): c for (e0, e1, e2), c in a.items()},
                     {(e0 - l0, e1 - l1, e2 - l2): c for (e0, e1, e2), c in b.items()})
        return {(e0 + l0, e1 + l1, e2 + l2): c for (e0, e1, e2), c in g.items()}
    deg_a, deg_b = _degrees(a), _degrees(b)
    if _coprime_certified(a, b, deg_a, deg_b):
        return {(0, 0, 0): 1}
    peeled, a, b = _peel(a, b)
    if peeled is not None:
        return _int_mul(peeled, _int_gcd(a, b))
    main = _choose_main(deg_a, deg_b)
    if main < 0:
        # no variable in common.  The certificate says so too, but its False
        # only means undecided, and a content split on no axis never ends.
        return {(0, 0, 0): 1}
    cont_a, prim_a = _int_split_content(a, main)
    cont_b, prim_b = _int_split_content(b, main)
    cont = _int_gcd(cont_a, cont_b)
    prim = _int_prs_gcd(prim_a, prim_b, main, deg_a[main], deg_b[main])
    _learn(prim)
    return _int_mul(cont, prim)


# ---------------------------------------------------------------------------
# Factor base.  Nearly every gcd that is not coprime divides a power of one
# denominator (the multiplier's, times a candidate rho), so its answer is a
# factor that an earlier gcd already found.  The base keeps the nonconstant
# gcds the PRS has returned, and _int_gcd divides them out of both inputs
# before the PRS.  If f divides a and b, gcd(a, b) = f * gcd(a/f, b/f), and a
# primitive f divides over Q iff it divides over Z (Gauss): whatever the base
# holds, every gcd is unchanged, and a miss costs only trial divisions.
# ---------------------------------------------------------------------------

_FACTOR_BASE_SIZE = 32
# entries (map, graded-lex leading triple), the newest first
_factor_base: list[tuple[IntTerms, ExponentTriple]] = []


def _peel(a: IntTerms, b: IntTerms):
    """(product of the base factors divided out or None, a', b'): each base
    factor, newest first, is divided out of both a and b as often as it
    divides both.  The lead of a quotient is the difference of the leads."""
    lead_a, lead_b = max(a, key=_grlex_key), max(b, key=_grlex_key)
    peeled = None
    for f, lead_f in _factor_base:
        while ((q_a := _int_try_div(a, lead_a, f, lead_f))
               and (q_b := _int_try_div(b, lead_b, f, lead_f))):
            a, b = q_a, q_b
            lead_a, lead_b = tuple(map(sub, lead_a, lead_f)), tuple(map(sub, lead_b, lead_f))
            peeled = f if peeled is None else _int_mul(peeled, f)
    return peeled, a, b


def _learn(g: IntTerms) -> None:
    """Put a nonconstant gcd g, primitive and positive-led, at the front of
    the base, and keep the newest _FACTOR_BASE_SIZE entries.  No entry
    divides g: _peel has divided each one out of both inputs."""
    lead = max(g, key=_grlex_key)
    if any(lead):
        _factor_base[:] = [(g, lead)] + _factor_base[:_FACTOR_BASE_SIZE - 1]


def _int_coeffs_in(p: IntTerms, main: int) -> dict[int, IntTerms]:
    out: dict[int, IntTerms] = {}
    for exps, coeff in p.items():
        rest = list(exps)
        degree = rest[main]
        rest[main] = 0
        out.setdefault(degree, {})[tuple(rest)] = coeff
    return out


def _int_split_content(p: IntTerms, main: int) -> tuple[IntTerms, IntTerms]:
    """(content, primitive part) of p in the main variable.  The content gcd
    takes the coefficients fewest terms first, ties highest degree first, so
    its calls depend on neither the term map's order nor its insertion order."""
    view = _int_coeffs_in(p, main)
    coeffs = [view[d] for d in sorted(view, key=lambda d: (len(view[d]), -d))]
    content = _int_strip(coeffs[0])
    for coeff in coeffs[1:]:
        if content == {(0, 0, 0): 1}:
            break
        content = _int_gcd(content, coeff)
    content = _canonical(content, 1, 1)[0]
    if content == {(0, 0, 0): 1}:
        return content, p
    return content, _int_div_exact(p, content)


def _int_lead_in(p: IntTerms, main: int) -> tuple[int, IntTerms]:
    """Degree of a nonzero p in the main variable, and the coefficient there."""
    view = _int_coeffs_in(p, main)
    degree = max(view)
    return degree, view[degree]


def _int_prem(f: IntTerms, g: IntTerms, main: int, steps: int) -> tuple[IntTerms, int]:
    """Pseudo-remainder of f by g in the main variable, scaled by lc(g)^steps
    where steps = deg f - deg g + 1, and its degree in the main variable
    (-1 for zero)."""
    deg_g, lc_g = _int_lead_in(g, main)
    rest = f
    while rest:
        degree, lc_rest = _int_lead_in(rest, main)
        if degree < deg_g:
            break
        shifted: IntTerms = {}
        for exps, coeff in _int_mul(g, lc_rest).items():
            e = list(exps)
            e[main] += degree - deg_g
            shifted[tuple(e)] = coeff
        rest = _int_sub(_int_mul(rest, lc_g), shifted)
        steps -= 1
    else:
        degree = -1
    if steps > 0:
        rest = _int_mul(rest, _int_pow(lc_g, steps))
    return rest, degree


def _int_prs_gcd(f: IntTerms, g: IntTerms, main: int, deg_f: int, deg_g: int) -> IntTerms:
    """Subresultant PRS gcd of polynomials primitive in the main variable,
    of degrees deg_f and deg_g there."""
    if deg_f < deg_g:
        f, g, deg_f, deg_g = g, f, deg_g, deg_f
    one: IntTerms = {(0, 0, 0): 1}
    scale_g, scale_h = one, one
    while True:
        delta = deg_f - deg_g
        remainder, deg_r = _int_prem(f, g, main, delta + 1)
        if not remainder:
            return _canonical(_int_split_content(g, main)[1], 1, 1)[0]
        if deg_r == 0:
            return one
        # the divisor is free of the main variable, so deg_r still holds
        remainder = _int_div_exact(remainder, _int_mul(scale_g, _int_pow(scale_h, delta)))
        f, g, deg_f, deg_g = g, remainder, deg_g, deg_r
        scale_g = _int_lead_in(f, main)[1]
        if delta:
            scale_h = _int_div_exact(_int_pow(scale_g, delta), _int_pow(scale_h, delta - 1))


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RationalFunction:
    """Quotient of two Poly3 in canonical form.

    Invariants: denominator nonzero and monic (graded-lex leading
    coefficient 1); numerator and denominator have no common factor.  Two
    values are equal iff their (num, den) pairs are syntactically equal.
    Every reduction is ``_normalize``'s: the constructor reduces its
    numerator against each factor, a sum reduces its numerator over the lcm
    only against the gcd of the two denominators, and a product reduces each
    numerator against the other denominator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, *factors):
        """num over the product of the factors (Poly3 or exact constants),
        in canonical form."""
        if not isinstance(num, Poly3):
            num = Poly3.const(num)
        factors = [f if isinstance(f, Poly3) else Poly3.const(f, num.variables) for f in factors]
        for f in factors:
            num._require_chart(f)
        self.num, self.den = _normalize(num, *factors)

    @classmethod
    def _raw(cls, num: Poly3, den: Poly3) -> "RationalFunction":
        out = object.__new__(cls)
        out.num = num
        out.den = den
        return out

    @classmethod
    def const(cls, value: ExactNumber, variables: Sequence[str] = DEFAULT_CHART) -> "RationalFunction":
        return cls._raw(Poly3.const(value, variables), Poly3.const(1, variables))

    @property
    def chart(self) -> tuple[str, str, str]:
        return self.num.variables

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> tuple[int, int]:
        """(numerator, denominator) of a constant, as Poly3.constant_value."""
        if not self.den.is_constant():
            raise AlgebraError(f"{self} is not constant")
        return self.num.constant_value()  # a monic constant denominator is 1

    def __add__(self, other) -> "RationalFunction":
        other = as_rational(other, self.chart)
        (n1, d1), (n2, d2) = (self.num, self.den), (other.num, other.den)
        if d1 == d2:
            return RationalFunction(n1 + n2, d1)
        # Over the lcm, with g = gcd(d1, d2), the sum is n1 d2/g + n2 d1/g,
        # and only a factor of g can cancel from it (Henrici; Knuth, TAOCP
        # vol. 2, 4.5.1): a constant denominator is 1
        if d1.is_constant():
            return RationalFunction._raw(n1 * d2 + n2, d2)
        if d2.is_constant():
            return RationalFunction._raw(n1 + n2 * d1, d1)
        g = poly_gcd(d1, d2)
        a, b = d1.div_exact(g), d2.div_exact(g)
        num, rest = _normalize(n1 * b + n2 * a, g)
        return RationalFunction._raw(num, rest * a * b)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._raw(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-as_rational(other, self.chart))

    def __mul__(self, other) -> "RationalFunction":
        other = as_rational(other, self.chart)
        if self.is_zero() or other.is_zero():
            return RationalFunction.const(0, self.chart)
        # each numerator is already coprime to its own denominator
        n1, d2 = _normalize(self.num, other.den)
        n2, d1 = _normalize(other.num, self.den)
        return RationalFunction._raw(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def reciprocal(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDenominatorError("reciprocal of zero")
        num, den = self.num._lead_pair()
        return RationalFunction._raw(self.den._scale(den, num), self.num.monic())

    def __truediv__(self, other) -> "RationalFunction":
        return self * as_rational(other, self.chart).reciprocal()

    def __pow__(self, n: int) -> "RationalFunction":
        if not isinstance(n, int):
            raise NegativeExponentError(f"exponent must be an integer, got {n!r}")
        if n < 0:
            return self.reciprocal() ** (-n)
        return RationalFunction._raw(self.num**n, self.den**n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            if not (isinstance(other, Poly3) or hasattr(other, "denominator")):
                return NotImplemented
            other = as_rational(other, self.chart)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def diff(self, name: str) -> "RationalFunction":
        """Exact quotient-rule partial derivative."""
        if name not in self.chart:
            raise UnknownVariableError(f"{name!r} not in chart {self.chart}")
        top = self.num.diff(name) * self.den - self.num * self.den.diff(name)
        return RationalFunction(top, self.den, self.den)

    def eval(self, point: tuple):
        """Value at a point (x, y, z), exact or float as Poly3.eval."""
        den_value = self.den.eval(point)
        if den_value == 0:
            raise SingularPointError(
                f"denominator {format_poly(self.den)} vanishes at {format_point(point)}")
        return self.num.eval(point) / den_value

    def uniform_weight(self, weights: tuple[int, int, int]) -> int | None:
        """Weighted degree when both num and den are weight-homogeneous."""
        if self.is_zero():
            return None
        wn = self.num.uniform_weight(weights)
        wd = self.den.uniform_weight(weights)
        if wn is None or wd is None:
            return None
        return wn - wd

    def __str__(self) -> str:
        return format_rational(self)

    def __repr__(self) -> str:
        return f"RationalFunction({format_rational(self)})"


def as_rational(value, chart: tuple[str, str, str]) -> RationalFunction:
    """value as a RationalFunction: a Poly3 over 1, an exact constant on the
    chart; a RationalFunction or a Poly3 must already live on the chart."""
    if isinstance(value, Poly3):
        value = RationalFunction._raw(value, Poly3.const(1, value.variables))
    if isinstance(value, RationalFunction):
        if value.chart != chart:
            raise ChartMismatchError(f"charts differ: {value.chart} vs {chart}")
        return value
    return RationalFunction.const(value, chart)


def over_lcm(fs: Sequence[RationalFunction]) -> tuple[Poly3, list[Poly3]]:
    """(L, nums): the monic lcm L of the denominators of the rational
    functions fs, and their numerators over it; poly_gcd runs only where two
    denominators differ."""
    den = fs[0].den
    nums = [fs[0].num]
    for f in fs[1:]:
        d = f.den
        if d == den:
            nums.append(f.num)
        else:
            g = poly_gcd(den, d)
            up = d.div_exact(g)
            nums = [n * up for n in nums] + [f.num * den.div_exact(g)]
            den = den * up
    return den, nums


def _normalize(num: Poly3, *factors: Poly3) -> tuple[Poly3, Poly3]:
    """Canonical (num, den) of num over the product of the factors.  Each
    nonconstant factor is reduced against num in turn: once g = gcd(num, f)
    is divided out of both, num is coprime to f / g, so it is coprime to the
    product of the reduced factors.  Against factors that share or repeat a
    factor, these gcds are much smaller than one gcd against the product.
    A factor that divides num is settled by that one division (g is f) and
    leaves 1; only a factor that leaves a remainder takes a gcd."""
    den = None
    for f in factors:
        if f.is_zero():
            raise ZeroDenominatorError("zero denominator")
        if not (num.is_zero() or f.is_constant()):
            quotient = num.try_div(f)
            if quotient is not None:
                num = quotient
                continue
            g = poly_gcd(num, f)
            if not g.is_constant():
                num = num.div_exact(g)
                f = f.div_exact(g)
        den = f if den is None else den * f
    if den is None or num.is_zero():
        return num, Poly3.const(1, num.variables)
    lead_num, lead_den = den._lead_pair()
    if lead_num != lead_den:
        num = num._scale(lead_den, lead_num)
    return num, den.monic()


# ---------------------------------------------------------------------------
# Canonical printing.  The output is always re-parseable by the expression
# parser: explicit '*', '^' for powers, '/' only between a numerator and a
# parenthesised (or atomic) denominator.
# ---------------------------------------------------------------------------


def _format_monomial(exps: ExponentTriple, variables: Sequence[str]) -> str:
    parts = []
    for name, e in zip(variables, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _decimal(n: int) -> str:
    """str(n) for n >= 0.  Python converts an int to str only up to
    sys.get_int_max_str_digits() digits, and a derived quantity can exceed
    that from inputs within it: a longer n is converted in chunks of fewer
    digits than the limit."""
    try:
        return str(n)
    except ValueError:
        pass
    width = sys.get_int_max_str_digits() - 1
    chunks = []
    while n:
        n, low = divmod(n, 10**width)
        chunks.append(low)
    return str(chunks.pop()) + "".join(f"{c:0{width}d}" for c in reversed(chunks))


def _format_coefficient(num: int, den: int) -> str:
    """num/den for num > 0, den > 0."""
    if den == 1:
        return _decimal(num)
    return f"{_decimal(num)}/{_decimal(den)}"


def format_point(point: tuple) -> str:
    return "(" + ", ".join(map(str, point)) + ")"


def format_poly(p: Poly3) -> str:
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for exps, num, den in p._term_pairs():
        mono = _format_monomial(exps, p.variables)
        magnitude = abs(num)
        if not mono:
            body = _format_coefficient(magnitude, den)
        elif magnitude == 1 and den == 1:
            body = mono
        else:
            body = f"{_format_coefficient(magnitude, den)}*{mono}"
        if not pieces:
            pieces.append(body if num > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if num > 0 else f"- {body}")
    return " ".join(pieces)


def _integer_scaled(f: RationalFunction) -> tuple[Poly3, Poly3]:
    """Rescale (num, den) by a positive rational so both have coprime
    integer coefficients: p * prim(num) and q * prim(den) with p/q the
    reduced ratio of the contents (q > 0, so den stays positive-led)."""
    p, q = f.num._num * f.den._den, f.num._den * f.den._num
    g = math.gcd(p, q)
    return (Poly3(f.num._prim, p // g, 1, f.num._lead, f.chart),
            Poly3(f.den._prim, q // g, 1, f.den._lead, f.chart))


def highest_exponent(f: RationalFunction) -> int:
    """The largest exponent of one variable in f's numerator or denominator."""
    return max((max(exps) for p in (f.num, f.den) for exps in p._prim), default=0)


def widest_printed_integer(f: RationalFunction) -> int:
    """The largest magnitude among the integers that str(f) prints."""
    return max(abs(p._num) * max(map(abs, p._prim.values()), default=0)
               for p in _integer_scaled(f))


def _den_needs_parens(den: Poly3) -> bool:
    """For a denominator with integer coefficients (see _integer_scaled)."""
    if den.term_count() > 1:
        return True
    coeff, _ = den._lead_pair()
    factors = sum(1 for e in den._lead if e > 0)
    if coeff != 1:
        return factors > 0 or coeff < 0
    return factors > 1


def format_rational(f: RationalFunction) -> str:
    if f.is_zero():
        return "0"
    num, den = _integer_scaled(f)
    num_str = format_poly(num)
    if den.is_constant() and den.constant_value() == (1, 1):
        return num_str
    den_str = format_poly(den)
    if num.term_count() > 1:
        num_str = f"({num_str})"
    if _den_needs_parens(den):
        den_str = f"({den_str})"
    return f"{num_str}/{den_str}"

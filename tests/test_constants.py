"""Rational constants, kept as reduced integer pairs from parse to print,
against a Fraction model.

The parser divides by constants, raises constants to negative powers and
scales log terms; the printer writes each coefficient; `_constant_ratio`
gives the potential's scale s and the decomposition constant c; and
`LogIntegral.eval_float` turns each log coefficient into a float.  None of
them builds a Fraction.  Each is checked here against the same computation
done with `fractions.Fraction`: the values must be equal, the printed text
identical, and the floats the same bits (`float(Fraction(n, d))` is `n / d`,
one correctly rounded division).
"""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from mcflow.algebra import Poly3, RationalFunction, format_poly
from mcflow.calculus import LogIntegral, div
from mcflow.mcframe import _constant_ratio, bihamiltonian_verify
from mcflow.parser import _log_integral, _parse, parse_rational
from mcflow.systems import builtin

X, Y, Z = (Poly3.variable(name) for name in ("x", "y", "z"))

# small and huge numerators and denominators, so that the pairs reduce and
# the floats round
integers = st.one_of(st.integers(-12, 12), st.integers(-10**30, 10**30))
nonzero = integers.filter(bool)
fractions = st.builds(Fraction, integers, nonzero)
nonzero_fractions = st.builds(Fraction, nonzero, nonzero)


def _text(value: Fraction) -> str:
    """A constant as the grammar writes it, with its sign inside parentheses."""
    return f"(({value.numerator})/({value.denominator}))"


def _reference_format(terms) -> str:
    """How format_poly writes a polynomial, from its Fraction coefficients:
    terms is [(monomial text, coefficient)] in descending graded-lex order."""
    pieces = []
    for mono, coeff in terms:
        magnitude = abs(coeff)
        body = str(magnitude) if not mono else mono if magnitude == 1 else f"{magnitude}*{mono}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces) or "0"


@settings(max_examples=150, deadline=None)
@given(fractions, nonzero_fractions, st.integers(-4, 4))
def test_division_and_negative_powers_match_the_model(a, b, k):
    value = parse_rational(f"{_text(a)} / {_text(b)}^({k})")
    expected = a / b**k
    assert value == expected
    assert value.constant_value() == (expected.numerator, expected.denominator)
    # a constant prints as its Fraction does
    assert str(value) == str(expected)


@given(nonzero_fractions)
def test_constant_reciprocal_matches_the_model(a):
    inverse = RationalFunction.const(a).reciprocal()
    assert inverse == 1 / a
    assert inverse.constant_value() == ((1 / a).numerator, (1 / a).denominator)


@settings(max_examples=150, deadline=None)
@given(fractions, fractions, nonzero_fractions)
def test_printed_coefficients_match_the_model(a, b, c):
    p = Poly3.const(a) * X**2 + Poly3.const(b) * X * Y + Poly3.const(c)
    terms = [(mono, coeff) for mono, coeff in (("x^2", a), ("x*y", b), ("", c)) if coeff]
    assert format_poly(p) == _reference_format(terms)
    assert {exps: Fraction(num, den) for exps, num, den in p._term_pairs()} == {
        exps: coeff for exps, coeff in (((2, 0, 0), a), ((1, 1, 0), b), ((0, 0, 0), c)) if coeff}


@settings(max_examples=150, deadline=None)
@given(fractions, nonzero_fractions, nonzero_fractions,
       st.tuples(*[st.floats(0.25, 4.0)] * 3))
def test_scaled_logs_match_the_model(a, b, c, point):
    # a*log(y) - log(z)/b + c*log(y), merged by argument in order of first
    # appearance; a term whose coefficients sum to zero is dropped
    h = _log_integral(_parse(f"x + {_text(a)}*log(y) - log(z)/{_text(b)} + {_text(c)}*log(y)",
                             ("x", "y", "z"), True, 1, 1))
    model = [(a + c, RationalFunction(Y)), (-1 / b, RationalFunction(Z))]
    model = [(coeff, argument) for coeff, argument in model if coeff]
    assert h.log_terms == tuple(model)
    assert [str(coeff) for coeff, _ in h.log_terms] == [str(coeff) for coeff, _ in model]
    # the same bits as float(Fraction) times the log, summed in the same order
    expected = float(point[0])
    for coeff, argument in model:
        expected += float(coeff) * math.log(abs(argument.eval(point)))
    assert h.eval_float(point) == expected


@settings(max_examples=100, deadline=None)
@given(nonzero_fractions, fractions)
def test_constant_ratio_matches_the_model(k, d):
    f, g = RationalFunction(X + 1, Y), RationalFunction(Z**2 - X)
    ratio = _constant_ratio([f * k, g * k], [f, g])
    assert ratio == k
    assert str(ratio) == str(k)
    # the second ratio is k + d: one constant only for d = 0
    assert _constant_ratio([f * k, g * (k + d)], [f, g]) == (k if d == 0 else None)


@settings(max_examples=30, deadline=None)
@given(nonzero_fractions)
def test_decomposition_constant_matches_the_model(k):
    # guillot's decomposition constant is c = -2; scaling H2 by k scales c
    system = builtin("guillot")
    frame = system.frame
    integrals = dict(system.spec.integrals)
    h2 = integrals["H2_plus"]
    scaled = LogIntegral(h2.rational_part * k, [(coeff * k, a) for coeff, a in h2.log_terms])
    divergence = div(frame.v.scale(frame.M))
    checks = bihamiltonian_verify(frame.v, frame.M, integrals["H1"], scaled, "H2_plus",
                                  divergence)
    decomposition = checks[-1]
    assert decomposition.anchor.endswith(f", c = {-2 * k}")
    assert decomposition.residual_obj.is_zero()

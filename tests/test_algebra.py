import math
import sys
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mcflow import algebra
from mcflow.algebra import (
    MAX_EXPONENT,
    ChartMismatchError,
    ExponentOverflowError,
    NegativeExponentError,
    Poly3,
    RationalFunction,
    SingularPointError,
    UnknownVariableError,
    ZeroDenominatorError,
    ZeroPolynomialError,
    format_rational,
    poly_gcd,
)

X = Poly3.variable("x")
Y = Poly3.variable("y")
Z = Poly3.variable("z")
ONE = Poly3.const(1)


def rf(num, den=1):
    return RationalFunction(num, den)


def poly(terms, chart=("x", "y", "z")):
    """The sum of c * x^a * y^b * z^e over the term map {(a, b, e): c}."""
    x, y, z = (Poly3.variable(name, chart) for name in chart)
    total = Poly3.const(0, chart)
    for (a, b, e), c in terms.items():
        total = total + Poly3.const(c, chart) * x**a * y**b * z**e
    return total


def _terms(p: Poly3):
    """(exponents, Fraction coefficient) of each term of p, leading first."""
    return ((exps, Fraction(num, den)) for exps, num, den in p._term_pairs())


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

coefficients = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
).filter(lambda c: c != 0)

exponents = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
)


@st.composite
def polys(draw, max_terms=6):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        terms[draw(exponents)] = draw(coefficients)
    return poly(terms)


nonzero_polys = polys().filter(lambda p: not p.is_zero())

# Denominators stay low-degree so quotient-rule tests keep gcds at the
# scale the engine actually meets (monomials and one quartic).
small_exponents = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))


@st.composite
def denominators(draw):
    n = draw(st.integers(1, 3))
    terms = {}
    for _ in range(n):
        terms[draw(small_exponents)] = draw(coefficients)
    p = poly(terms)
    return p if not p.is_zero() else Poly3.const(1)


# ---------------------------------------------------------------------------
# polynomial arithmetic
# ---------------------------------------------------------------------------


class TestPolyArithmetic:
    def test_add_cancellation(self):
        assert (X**2 + (-(X**2))).is_zero()

    def test_difference_of_squares(self):
        assert (X + Y) * (X - Y) == X**2 - Y**2

    def test_triple_product_expansion(self):
        # -6(18z^2 - 8xyz + 2y^3) - 4x(4x^2 z - x y^2 - 3yz) - 2y(2y^2 - 6xz)
        total = (
            -6 * (18 * Z**2 - 8 * X * Y * Z + 2 * Y**3)
            - 4 * X * (4 * X**2 * Z - X * Y**2 - 3 * Y * Z)
            - 2 * Y * (2 * Y**2 - 6 * X * Z)
        )
        expected = (
            -108 * Z**2
            + 72 * X * Y * Z
            - 16 * Y**3
            - 16 * X**3 * Z
            + 4 * X**2 * Y**2
        )
        assert total == expected

    def test_chart_mismatch_rejected(self):
        t1 = Poly3.variable("t1", ("t1", "t2", "t3"))
        with pytest.raises(ChartMismatchError):
            X + t1

    def test_negative_power_rejected(self):
        with pytest.raises(NegativeExponentError):
            X ** (-1)

    def test_term_iteration_is_graded_lex(self):
        p = X**2 - Y**2 + Z + 1
        order = [exps for exps, _ in _terms(p)]
        assert order == [(2, 0, 0), (0, 2, 0), (0, 0, 1), (0, 0, 0)]

    @settings(max_examples=60, deadline=None)
    @given(polys(), polys(), polys())
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=40, deadline=None)
    @given(polys(), st.integers(0, 4))
    def test_pow_matches_repeated_product(self, a, n):
        expected = Poly3.const(1)
        for _ in range(n):
            expected = expected * a
        assert a**n == expected


# ---------------------------------------------------------------------------
# integer kernels of multiply and exact division, against a schoolbook
# Fraction reference
# ---------------------------------------------------------------------------


def _grlex(exps):
    return (sum(exps), exps)


def _reference_mul(a: Poly3, b: Poly3) -> dict:
    out = {}
    for e1, c1 in _terms(a):
        for e2, c2 in _terms(b):
            exps = tuple(x + y for x, y in zip(e1, e2))
            out[exps] = out.get(exps, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _reference_divmod(a: Poly3, b: Poly3) -> tuple[dict, dict]:
    """Division by one polynomial in graded-lex order: (quotient, remainder).
    The remainder is zero exactly when b divides a."""
    lead = max((e for e, _ in _terms(b)), key=_grlex)
    lead_coeff = dict(_terms(b))[lead]
    rest = dict(_terms(a))
    quotient, remainder = {}, {}
    while rest:
        exps = max(rest, key=_grlex)
        coeff = rest.pop(exps)
        shift = tuple(x - y for x, y in zip(exps, lead))
        if min(shift) < 0:
            remainder[exps] = coeff
            continue
        q = coeff / lead_coeff
        quotient[shift] = q
        for e, c in _terms(b):
            t = tuple(x + y for x, y in zip(e, shift))
            if t == exps:
                continue
            value = rest.get(t, Fraction(0)) - c * q
            if value:
                rest[t] = value
            else:
                rest.pop(t, None)
    return quotient, remainder


# mixed denominators, so that clearing them matters
mixed_coefficients = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
).filter(lambda c: c != 0)


@st.composite
def mixed_polys(draw, max_terms=5):
    n = draw(st.integers(0, max_terms))
    return poly({draw(exponents): draw(mixed_coefficients) for _ in range(n)})


# divisors: non-unit content, negative leading coefficients and constants
divisors = st.one_of(
    st.builds(
        lambda p, content: p * content,
        mixed_polys().filter(lambda p: not p.is_zero()),
        st.sampled_from([Fraction(1), Fraction(-1), Fraction(6), Fraction(-3, 2),
                         Fraction(10, 7), Fraction(-12)]),
    ),
    st.builds(Poly3.const, mixed_coefficients),
)


class TestIntegerKernels:
    @settings(max_examples=150, deadline=None)
    @given(mixed_polys(), divisors)
    def test_product_and_quotient_match_the_reference(self, a, b):
        product = a * b
        assert product == poly(_reference_mul(a, b))
        assert product.try_div(b) == a
        quotient, remainder = _reference_divmod(product, b)
        assert remainder == {}
        assert product.try_div(b) == poly(quotient)

    @settings(max_examples=150, deadline=None)
    @given(mixed_polys(), divisors, st.one_of(st.just(Poly3.const(0)), mixed_polys(max_terms=2)))
    def test_try_div_is_none_exactly_when_a_remainder_is_left(self, q, b, r):
        a = q * b + r
        quotient, remainder = _reference_divmod(a, b)
        result = a.try_div(b)
        if remainder:
            assert result is None
        else:
            assert result == poly(quotient)

    @pytest.mark.parametrize("a, b", [
        (X * Y + 1, X**2 + 1),  # the divisor's lead x^2 does not divide x y
        (Fraction(5, 3) * (2 * X + Y), Fraction(-1, 4) * (3 * X + 1)),  # 3 does not divide 2
    ], ids=["lead triple", "lead coefficient"])
    def test_a_lead_mismatch_is_rejected_before_the_heap_division(self, a, b):
        with mock.patch.object(algebra, "_int_div_exact",
                               side_effect=AssertionError("heap division")):
            assert a.try_div(b) is None

    def test_zero_dividend(self):
        assert Poly3.const(0).try_div(Fraction(-3, 2) * X + 1).is_zero()
        assert (Poly3.const(0) * (X + Fraction(1, 3))).is_zero()

    def test_rational_quotient_without_poly_multiply(self):
        a = Fraction(2, 3) * X**2 - Fraction(5, 4) * Y * Z + Fraction(1, 6)
        b = Fraction(-3, 2) * X + Fraction(7, 10) * Y**2 - 4
        product = a * b
        with mock.patch.object(Poly3, "__mul__", side_effect=AssertionError("Poly3 multiply")):
            assert product.try_div(b) == a
            assert product.try_div(Fraction(7, 5) * a) == Fraction(5, 7) * b

    def test_product_exponent_bound(self):
        top = poly({(MAX_EXPONENT, 0, 0): 1})
        assert next(_terms(top * Y))[0][0] == MAX_EXPONENT
        half_top = poly({(MAX_EXPONENT - 1, 0, 0): Fraction(1, 2)})
        assert next(_terms(half_top * (X + 1)))[0][0] == MAX_EXPONENT
        with pytest.raises(ExponentOverflowError):
            top * X
        with pytest.raises(ExponentOverflowError):
            (Y + Fraction(1, 2)) * poly({(0, MAX_EXPONENT, 1): 3})
        # only one pair of terms overflows, on the last axis
        with pytest.raises(ExponentOverflowError):
            (X + Z) * poly({(0, 0, MAX_EXPONENT): 1})
        assert (Poly3.const(0) * top).is_zero()

    def test_overflow_guard_bounds_by_total_degree_before_each_axis(self):
        top = poly({(MAX_EXPONENT, 0, 0): 1})
        for a, b in ((top, X), (X, top)):
            with pytest.raises(ExponentOverflowError):
                a * b
        # total degree 2^31 passes the bound on the leads, and the exact
        # per-axis check finds no exponent above MAX_EXPONENT
        half = 2**30
        for a, b in ((X**half, Y**half), (Y**half, X**half)):
            assert next(_terms(a * b)) == ((half, half, 0), 1)


# ---------------------------------------------------------------------------
# canonical form: equal values compare and hash equal however they were built
# ---------------------------------------------------------------------------


class TestCanonicalForm:
    @settings(max_examples=100, deadline=None)
    @given(mixed_polys(), mixed_polys().filter(lambda q: not q.is_zero()), mixed_coefficients)
    def test_equal_polynomials_hash_equal(self, p, q, k):
        rebuilt = (poly(dict(_terms(p))), (p * q).try_div(q), (p + q) - q, -(-p),
                   (p * k) * (1 / k))
        for same in rebuilt:
            assert same == p
            assert hash(same) == hash(p)
        assert (p * k).monic() == p.monic()

    @settings(max_examples=40, deadline=None)
    @given(mixed_polys(max_terms=3), denominators(),
           mixed_polys(max_terms=3).filter(lambda r: not r.is_zero()))
    def test_equal_rational_functions_hash_equal(self, p, q, r):
        reduced = RationalFunction(p, q)
        unreduced = RationalFunction(p * r, q * r)
        assert unreduced == reduced
        assert hash(unreduced) == hash(reduced)

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            Poly3.const(0.5)
        with pytest.raises(TypeError):
            RationalFunction(0.5)


# ---------------------------------------------------------------------------
# contents: every value keeps a reduced integer pair over a primitive map
# ---------------------------------------------------------------------------

# negative, huge and fractional contents
contents = st.one_of(
    mixed_coefficients,
    st.builds(Fraction, st.integers(-10**30, 10**30).filter(bool), st.integers(1, 10**30)),
)


@st.composite
def scaled_polys(draw):
    """A polynomial or a constant, times a drawn content."""
    return draw(st.one_of(mixed_polys(max_terms=4), st.builds(Poly3.const, contents))) \
        * draw(contents)


def _assert_canonical(p: Poly3):
    num, den = p._num, p._den
    assert den > 0 and math.gcd(num, den) == 1
    assert (num == 0) == (p._prim == {}) == ((num, den) == (0, 1))
    if p._prim:
        assert p._lead == max(p._prim, key=_grlex) and p._prim[p._lead] > 0
        assert math.gcd(*p._prim.values()) == 1
    else:
        assert p._lead is None


def _derivative(terms: dict, axis: int) -> dict:
    out = {}
    for exps, c in terms.items():
        if exps[axis]:
            shifted = list(exps)
            shifted[axis] -= 1
            out[tuple(shifted)] = c * exps[axis]
    return out


def _sum(*term_maps: dict) -> dict:
    out = {}
    for terms in term_maps:
        for exps, c in terms.items():
            out[exps] = out.get(exps, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


class TestContentInvariant:
    """What every operation returns holds the class invariant, and its
    terms are the Fraction model's value from the operands' terms."""

    @settings(max_examples=150, deadline=None)
    @given(scaled_polys(), scaled_polys(), contents)
    def test_polynomial_operations(self, a, b, k):
        ta, tb = dict(_terms(a)), dict(_terms(b))
        cases = [
            (a + b, _sum(ta, tb)),
            (a - b, _sum(ta, {e: -c for e, c in tb.items()})),
            (a * b, _reference_mul(a, b)),
            (b * a, _reference_mul(a, b)),
            (a * k, {e: c * k for e, c in ta.items()}),
            (k * a, {e: c * k for e, c in ta.items()}),
            (a.diff("y"), _derivative(ta, 1)),
        ]
        if ta:
            lead = ta[max(ta, key=_grlex)]
            cases.append((a.monic(), {e: c / lead for e, c in ta.items()}))
        if tb:
            cases.append(((a * b).try_div(b), ta))
            quotient, remainder = _reference_divmod(a, b)
            result = a.try_div(b)
            assert (result is None) == bool(remainder)
            if result is not None:
                cases.append((result, quotient))
        for result, expected in cases:
            _assert_canonical(result)
            assert dict(_terms(result)) == expected
        if ta or tb:
            g = poly_gcd(a, b)
            _assert_canonical(g)
            assert next(_terms(g))[1] == 1
            assert not any(_reference_divmod(p, g)[1] for p in (a, b) if not p.is_zero())

    @settings(max_examples=60, deadline=None)
    @given(scaled_polys(), scaled_polys().filter(lambda p: not p.is_zero()),
           scaled_polys(), scaled_polys().filter(lambda p: not p.is_zero()))
    def test_rational_function_operations(self, a, b, c, d):
        f, g = RationalFunction(a, b), RationalFunction(c, d)
        cases = [(f, a, b), (f + g, a * d + c * b, b * d), (f * g, a * c, b * d),
                 (f.diff("x"), a.diff("x") * b - a * b.diff("x"), b * b)]
        if not c.is_zero():
            cases.append((f / g, a * d, b * c))
        for h, num, den in cases:
            _assert_canonical(h.num)
            _assert_canonical(h.den)
            assert next(_terms(h.den))[1] == 1
            assert _reference_mul(h.num, den) == _reference_mul(num, h.den)

    @pytest.mark.parametrize("k", [3, Fraction(-2, 7), Fraction(10**30 + 1, 6)])
    def test_a_constant_factor_shares_the_map(self, k):
        p = Fraction(3, 4) * X**2 - 6 * Y * Z
        c = Poly3.const(k)
        for result in (p * k, k * p, p * c, c * p, p.try_div(c)):
            assert result._prim is p._prim
            _assert_canonical(result)


# ---------------------------------------------------------------------------
# gcd
# ---------------------------------------------------------------------------


class TestGcd:
    def test_difference_of_squares(self):
        assert poly_gcd(X**2 - Y**2, X - Y) == X - Y

    def test_monomials(self):
        assert poly_gcd(2 * Z * Y**3, Y) == Y

    def test_guillot_gamma_cancellation(self):
        assert poly_gcd(Y * (Y**4 - X**2), 2 * Z * Y**3) == Y

    def test_gcd_with_zero(self):
        assert poly_gcd(Poly3.const(0), 3 * X) == X
        assert poly_gcd(3 * X, Poly3.const(0)) == X

    def test_gcd_both_zero(self):
        with pytest.raises(ZeroPolynomialError):
            poly_gcd(Poly3.const(0), Poly3.const(0))

    def test_result_is_monic(self):
        g = poly_gcd(4 * X**2 - 4 * Y**2, 6 * X - 6 * Y)
        assert next(_terms(g))[1] == 1
        assert g == X - Y

    def test_proportional_pair_skips_the_prs(self):
        p = 2 * X**2 * Y - 3 * Z + 4
        with mock.patch.object(algebra, "_int_gcd", side_effect=AssertionError("PRS entered")):
            assert poly_gcd(p, Fraction(-3, 2) * p) == p.monic()
            assert poly_gcd(Fraction(-3, 2) * p, p) == p.monic()

    @settings(max_examples=50, deadline=None)
    @given(nonzero_polys, nonzero_polys, nonzero_polys)
    def test_gcd_divides_both(self, a, b, common):
        left = a * common
        right = b * common
        g = poly_gcd(left, right)
        assert left.try_div(g) is not None
        assert right.try_div(g) is not None
        # the injected common factor must divide the gcd
        assert g.try_div(poly_gcd(common, g)) is not None

    @settings(max_examples=50, deadline=None)
    @given(nonzero_polys, nonzero_polys)
    def test_gcd_times_quotients_reconstructs(self, a, b):
        g = poly_gcd(a, b)
        assert a.div_exact(g) * g == a
        assert b.div_exact(g) * g == b

    @settings(max_examples=50, deadline=None)
    @given(nonzero_polys, nonzero_polys, exponents)
    def test_common_monomial_factors_out(self, a, b, exps):
        m = poly({exps: 1})
        with factor_base():
            assert poly_gcd(m * a, m * b) == m * poly_gcd(a, b)


@contextmanager
def factor_base(*factors: Poly3):
    """The gcd kernel with a factor base holding exactly the given nonconstant
    factors, in order, whether or not they divide one another, and an empty
    gcd memo, so that every gcd reaches the kernel."""
    saved = list(algebra._factor_base)
    saved_memo = dict(algebra._gcd_memo)
    algebra._factor_base[:] = [
        (f._prim, algebra._degrees(f._prim), f._lead) for f in factors if not f.is_constant()
    ]
    algebra._gcd_memo.clear()
    try:
        yield algebra._factor_base
    finally:
        algebra._factor_base[:] = saved
        algebra._gcd_memo.clear()
        algebra._gcd_memo.update(saved_memo)


small_polys = polys(max_terms=3).filter(lambda p: not p.is_zero())
nonconstant_polys = small_polys.filter(lambda p: not p.is_constant())


class TestFactorBase:
    @settings(max_examples=50, deadline=None)
    @given(small_polys, small_polys, nonconstant_polys, small_polys, nonconstant_polys,
           nonconstant_polys)
    def test_gcd_does_not_depend_on_the_base(self, a, b, f, g, h, unrelated):
        left, right = a * f, b * f * g
        with factor_base():
            expected = poly_gcd(left, right)
        assert left.try_div(expected) is not None and right.try_div(expected) is not None
        seeds = ([f], [f**2], [f * h], [unrelated, X**3 + 5 * Y - 7, Z - 11],
                 [f * h, f**2, unrelated, f])
        for seed in seeds:
            with factor_base(*seed) as base:
                assert poly_gcd(left, right) == expected
                algebra._gcd_memo.clear()
                assert poly_gcd(right, left) == expected
                assert len(base) <= algebra._FACTOR_BASE_SIZE
        # divisor pairs, with and without the divisor in the base
        for seed in ([], [f]):
            for pair in ((f, f * b), (f * b**2, f)):
                with factor_base(*seed):
                    assert poly_gcd(*pair) == f.monic()

    def test_a_known_factor_is_peeled_without_the_prs(self):
        common = X**2 + Y * Z + 1
        left, right = (X + 2) * common**2, (Y - 3) * common**3
        with factor_base(common), mock.patch.object(
                algebra, "_int_prs_gcd", side_effect=AssertionError("PRS entered")):
            assert poly_gcd(left, right) == common**2

    def test_learned_entries_do_not_nest(self):
        f = X**2 + Y * Z + 1
        with factor_base() as base:
            algebra._learn((f**2)._prim)
            algebra._learn(f._prim)
            assert [entry[0] for entry in base] == [f._prim]

    def test_capacity_evicts_the_oldest(self):
        size = algebra._FACTOR_BASE_SIZE
        factors = [X + k for k in range(1, size + 2)]
        with factor_base() as base:
            for f in factors:
                algebra._learn(f._prim)
                assert base[0][0] == f._prim
                assert len(base) <= size
            held = [entry[0] for entry in base]
            assert held == [f._prim for f in reversed(factors[1:])]


class TestGcdMemo:
    @settings(max_examples=50, deadline=None)
    @given(small_polys, small_polys, nonconstant_polys, nonconstant_polys)
    def test_a_hit_equals_the_cold_answer(self, a, b, f, unrelated):
        left, right = a * f, b * f
        with factor_base():
            cold = poly_gcd(left, right)
        with factor_base(unrelated, f * unrelated):
            poly_gcd(left, right)
            # every call below is a hit: the kernel is never entered
            with mock.patch.object(algebra, "_int_gcd", side_effect=AssertionError("kernel")):
                assert poly_gcd(left, right) == cold
                assert poly_gcd(right, left) == cold
                assert poly_gcd(Fraction(-3, 2) * right, 5 * left) == cold

    def test_one_entry_per_unordered_pair_in_any_chart(self):
        common = X**2 + Y * Z + 1
        a, b = (X + 2) * common, (Y - 3) * common
        chart = ("t1", "t2", "t3")
        with factor_base():
            assert poly_gcd(a, b) == common
            assert poly_gcd(2 * b, a) == common
            moved = poly_gcd(poly(dict(_terms(b)), chart), poly(dict(_terms(a)), chart))
            assert len(algebra._gcd_memo) == 1
        assert moved == poly(dict(_terms(common)), chart)


def _certified(a: Poly3, b: Poly3) -> bool:
    return algebra._coprime_certified(a._prim, b._prim,
                                      algebra._degrees(a._prim), algebra._degrees(b._prim))


def _prs_gcd(a: Poly3, b: Poly3) -> Poly3:
    """poly_gcd with the coprimality certificate switched off (and an empty
    gcd memo, which would otherwise answer without the kernel)."""
    with mock.patch.object(algebra, "_coprime_certified", lambda *args: False), \
            mock.patch.object(algebra, "_gcd_memo", {}):
        return poly_gcd(a, b)


class TestCoprimeCertificate:
    @settings(max_examples=100, deadline=None)
    @given(nonzero_polys, nonzero_polys, nonzero_polys)
    def test_certified_pairs_have_constant_prs_gcd(self, a, b, common):
        for left, right in ((a, b), (a * common, b * common)):
            if _certified(left, right):
                assert _prs_gcd(left, right).is_constant()

    @settings(max_examples=100, deadline=None)
    @given(nonzero_polys.filter(lambda p: not p.is_constant()), nonzero_polys, nonzero_polys)
    def test_common_factor_is_never_certified(self, common, h1, h2):
        assert not _certified(common * h1, common * h2)

    def test_the_prs_alone_settles_a_pair_with_no_shared_variable(self):
        # the certificate's False means undecided, so the kernel must still
        # end when it is switched off for a pair that shares no axis (here
        # neither has z, so each is its own content along every axis)
        assert _prs_gcd(X**2 + 1, Y - 3) == ONE
        assert _prs_gcd(Y**3 - Y + 2, X * 5 + 7) == ONE

    def test_images_reduce_below_a_one_digit_prime(self):
        prime = algebra._IMAGE_PRIME
        assert prime < 2**30
        assert all(prime % d for d in range(2, math.isqrt(prime) + 1))
        assert all(0 <= r < prime for r in algebra._IMAGE_POINT)

    def test_falls_back_when_a_leading_coefficient_vanishes(self):
        # Every modular image of `common` at the evaluation point is 1, so
        # only the degree guard keeps the certificate from claiming coprime.
        rx, ry, _ = algebra._IMAGE_POINT
        common = (X - rx) * (Y - ry) + 1
        a, b = common * (X + Z), common * (Y - Z)
        assert not _certified(a, b)
        assert poly_gcd(a, b) == common

    def test_agrees_with_prs_on_a_coprime_pair(self):
        a, b = X**2 * Y + Z**3 - 1, Y**2 * Z - X + 2
        assert _certified(a, b)
        assert poly_gcd(a, b) == _prs_gcd(a, b) == ONE

    def test_a_shared_monomial_factor_is_never_certified(self):
        # the images on the x axis share the root 0; the gcd is x
        a, b = X * (Y + 1), X * (Y + 2)
        assert not _certified(a, b)
        assert poly_gcd(a, b) == X

    def test_a_pair_free_of_one_axis_is_certified(self):
        # a has no z, so only the x and y axes are imaged
        a, b = X**2 - Y + 3, X * Y * Z + X**2 - 1
        assert _certified(a, b)
        assert _prs_gcd(a, b) == ONE

    def test_a_dense_coprime_pair_is_certified(self):
        # each power of each variable has at least two terms
        a = X * Y + X * Z + Y * Z + X + Y + Z + 1
        b = X * Y - 2 * X * Z + 3 * Y * Z + X - Y + 2 * Z - 5
        assert _certified(a, b)
        assert _prs_gcd(a, b) == ONE


class TestOneTermSlices:
    """The certificate images each axis once; it has no one-term-slice short-cut."""

    def test_a_coprime_pair_needs_one_image_pair(self):
        # one image pair on each axis where both inputs have positive degree
        a, b = X**2 * Y + Z**3 - 1, Y**2 * Z - X + 2
        with mock.patch.object(algebra, "_image", wraps=algebra._image) as image:
            assert _certified(a, b)
        assert [call.args[1] for call in image.call_args_list] == [0, 0, 1, 1, 2, 2]

    @settings(max_examples=100, deadline=None)
    @given(nonzero_polys, nonzero_polys)
    def test_certified_pairs_are_coprime(self, a, b):
        if _certified(a, b):
            assert _prs_gcd(a, b).is_constant()


class TestDivisibleInputs:
    def test_a_divisor_of_the_other_input_is_the_gcd(self):
        a, b = 3 * X**2 + Y * Z - 1, X - 2 * Y * Z + 5
        with factor_base() as base:
            assert poly_gcd(a, a * b) == a.monic()
            assert poly_gcd(-a * b**2, 2 * a) == a.monic()
            # learned once, primitive with a positive leading coefficient
            assert [entry[0] for entry in base] == [a._prim]

    def test_a_negative_led_divisor_is_learned_with_a_positive_lead(self):
        # poly_gcd passes positive-led maps; the kernel's own recursion may not
        a, b = 3 * X**2 + Y * Z - 1, X + Z
        negative = {e: -c for e, c in a._prim.items()}
        with factor_base() as base:
            g = algebra._int_gcd(negative, algebra._int_mul(negative, b._prim))
            assert g in (a._prim, negative)
            held = [entry[0] for entry in base]
            assert a._prim in held and negative not in held


def test_verify_of_a_conjugated_frame_takes_few_gcds(capsys):
    """One verify of a linearly conjugated guillot normalises each derived
    coefficient once, not at each product and sum (1088 poly_gcd calls when
    every operation normalised)."""
    from mcflow.cli import main

    calls = []

    def counting(a, b):
        calls.append(None)
        return poly_gcd(a, b)

    modules = [m for name, m in sys.modules.items()
               if name.startswith("mcflow") and vars(m).get("poly_gcd") is poly_gcd]
    path = Path(__file__).parent / "golden" / "guillot_conj0.sys"
    with ExitStack() as stack:
        for module in modules:
            stack.enter_context(mock.patch.object(module, "poly_gcd", counting))
        status = main(["verify", str(path)])
    capsys.readouterr()
    assert status == 0
    assert len(calls) <= 120


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class TestRationalFunction:
    def test_guillot_gamma_dz_coefficient(self):
        f = RationalFunction(Y * (Y**4 - X**2), 2 * Z * Y**3)
        assert f == rf(Y**4 - X**2, 2 * Y**2 * Z)
        assert format_rational(f) == "(y^4 - x^2)/(2*y^2*z)"

    def test_cancel_to_polynomial(self):
        assert RationalFunction(X**2, X) == rf(X)

    def test_zero_numerator(self):
        f = RationalFunction(Poly3.const(0), 2 * Z * Y**3)
        assert f.is_zero()
        assert f.den == ONE

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDenominatorError):
            RationalFunction(X, Poly3.const(0))

    def test_denominator_is_monic(self):
        f = rf(ONE, 2 * Z * Y**3)
        assert next(_terms(f.den))[1] == 1
        assert f.num == Poly3.const(Fraction(1, 2))
        assert format_rational(f) == "1/(2*y^3*z)"

    def test_product_cancellation_property(self):
        f = rf(X + Y) * rf(X - Y) / rf(X**2 - Y**2)
        assert f == rf(ONE)

    @settings(max_examples=40, deadline=None)
    @given(polys(), nonzero_polys)
    def test_normalize_product_cancels(self, f, g):
        assert RationalFunction(f * g, g) == RationalFunction(f, ONE)

    @settings(max_examples=40, deadline=None)
    @given(polys(max_terms=4), polys(max_terms=4), denominators(), denominators())
    def test_field_laws(self, a, b, da, db):
        fa = rf(a, da)
        fb = rf(b, db)
        assert fa + fb == fb + fa
        assert fa * fb == fb * fa
        assert (fa + fb) - fb == fa
        if not fb.is_zero():
            assert (fa / fb) * fb == fa


def _reference(num: Poly3, den: Poly3) -> tuple[Poly3, Poly3]:
    """Canonical (num, den) by one gcd against the whole unreduced
    denominator, then monic scaling: independent of the engine's
    factor-at-a-time reduction."""
    if num.is_zero():
        return num, ONE
    g = poly_gcd(num, den)
    num, den = num.div_exact(g), den.div_exact(g)
    lc = next(_terms(den))[1]
    return num * (1 / lc), den * (1 / lc)


@st.composite
def denominator_pairs(draw):
    """Two denominators that share a factor, repeat one (g*e1 and g^2*e2),
    are coprime (one in x alone, one free of x) or include a constant."""
    g, e1, e2 = draw(denominators()), draw(denominators()), draw(denominators())
    shape = draw(st.sampled_from(["shared", "repeated", "coprime", "constant"]))
    if shape == "shared":
        return g * e1, g * e2
    if shape == "repeated":
        return g * e1, g**2 * e2
    if shape == "coprime":
        in_x = math.prod((X + c for c in draw(st.lists(coefficients, min_size=1, max_size=2))),
                         start=ONE)
        free_of_x = poly({(0, b, c): k for (_, b, c), k in _terms(e2)})
        return in_x, Y if free_of_x.is_zero() else free_of_x
    return draw(st.sampled_from([ONE, Poly3.const(Fraction(-3, 2))])), g * e2


@st.composite
def normalizations(draw):
    """(num, factors): num = c h g^i k^j, and one to three factors, each a
    signed rational content times g, k, g k or g^2, so that a factor divides num outright,
    shares only part of it, repeats another factor, or is coprime to it."""
    h, g, k = draw(small_polys), draw(nonconstant_polys), draw(nonconstant_polys)
    num = draw(mixed_coefficients) * h * g ** draw(st.integers(0, 2)) * k ** draw(st.integers(0, 1))
    pool = [g, k, g * k, g * g]
    factors = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    return num, [draw(mixed_coefficients) * f for f in factors]


class TestNormalisationAgainstReference:
    """Every arithmetic result, and the constructor over several factors,
    equals one gcd against the unreduced product."""

    @settings(max_examples=80, deadline=None)
    @given(polys(max_terms=3), polys(max_terms=3), denominator_pairs())
    def test_arithmetic_matches_one_gcd_against_the_product(self, n1, n2, dens):
        d1, d2 = dens
        a, b = RationalFunction(n1, d1), RationalFunction(n2, d2)
        assert (a.num, a.den) == _reference(n1, d1)
        assert (b.num, b.den) == _reference(n2, d2)
        total = a + b
        assert (total.num, total.den) == _reference(a.num * b.den + b.num * a.den, a.den * b.den)
        product = a * b
        assert (product.num, product.den) == _reference(a.num * b.num, a.den * b.den)
        if not b.is_zero():
            quotient = a / b
            assert (quotient.num, quotient.den) == _reference(a.num * b.den, a.den * b.num)

    @settings(max_examples=80, deadline=None)
    @given(polys(max_terms=3), denominator_pairs())
    def test_constructor_over_factors_matches_one_gcd_against_the_product(self, n, dens):
        f1, f2 = dens
        built = RationalFunction(n, f1, f2)
        assert (built.num, built.den) == _reference(n, f1 * f2)

    @settings(max_examples=150, deadline=None)
    @given(normalizations())
    def test_factors_that_divide_or_share_match_one_gcd_against_the_product(self, case):
        num, factors = case
        assert algebra._normalize(num, *factors) == _reference(num, math.prod(factors, start=ONE))


class TestSumReduction:
    """A sum reduces its numerator only against gcd(d1, d2): no other factor
    of the lcm can cancel (Henrici; Knuth, TAOCP vol. 2, 4.5.1)."""

    @staticmethod
    def gcd_calls(monkeypatch, a, b):
        calls = []

        def recording(p, q):
            calls.append((p, q))
            return poly_gcd(p, q)

        monkeypatch.setattr(algebra, "poly_gcd", recording)
        total = a + b
        monkeypatch.undo()
        return total, calls

    @pytest.mark.parametrize("b", [rf(Z), rf(Z, 3)], ids=["polynomial", "constant"])
    def test_constant_denominator_takes_no_gcd(self, monkeypatch, b):
        a = rf(X, Y + 1)
        total, calls = self.gcd_calls(monkeypatch, a, b)
        assert (total, calls) == (rf(X + b.num * (Y + 1), Y + 1), [])

    def test_coprime_denominators_take_only_their_gcd(self, monkeypatch):
        total, calls = self.gcd_calls(monkeypatch, rf(X, Y + 1), rf(Z, X + 2))
        assert total == rf(X * (X + 2) + Z * (Y + 1), (Y + 1) * (X + 2))
        assert calls == [(Y + 1, X + 2)]

    def test_a_common_factor_cancels_against_the_gcd(self, monkeypatch):
        # 1/(x(x+1)) + 1/(x(x-1)) = 2x/(x(x^2-1)) = 2/(x^2-1)
        total, calls = self.gcd_calls(monkeypatch, rf(ONE, X * (X + 1)), rf(ONE, X * (X - 1)))
        assert total == rf(2, X**2 - 1)
        # x divides the sum 2x over the lcm outright, so no second gcd
        assert calls == [(X**2 + X, X**2 - X)]


class TestDivisionFirst:
    """_normalize settles a factor that divides the numerator by that one
    division; only a factor that leaves a remainder takes a gcd."""

    @pytest.mark.parametrize("factors", [
        [X + Fraction(1, 2) * Y],
        [-3 * (X + Fraction(1, 2) * Y), Fraction(2, 3) * (X + Fraction(1, 2) * Y)],
        [X * Y - Z, Fraction(-5, 4) * (X + Fraction(1, 2) * Y)],
    ], ids=["once", "repeated", "two"])
    def test_a_dividing_factor_takes_no_gcd(self, factors):
        cofactor = Fraction(-7, 2) * (Y**2 + Z) * (X + Fraction(1, 2) * Y)**2 * (X * Y - Z)
        with mock.patch.object(algebra, "poly_gcd", side_effect=AssertionError("gcd taken")):
            num, den = algebra._normalize(cofactor, *factors)
        assert (num, den) == _reference(cofactor, math.prod(factors, start=ONE))


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


class TestPartialDerivative:
    def test_power_rule_on_multiplier(self):
        m = rf(ONE, 2 * Z * Y**3)
        assert m.diff("y") == rf(Poly3.const(-3), 2 * Z * Y**4)

    def test_first_integral_gradient_x(self):
        h1 = rf(X**2, Y**2) - rf(Y**2)
        assert h1.diff("x") == rf(2 * X, Y**2)

    def test_constant_direction(self):
        assert rf(X).diff("z").is_zero()

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            rf(X).diff("t")

    @settings(max_examples=30, deadline=None)
    @given(polys(max_terms=4), polys(max_terms=4), denominators(), denominators())
    def test_leibniz_rule(self, a, b, da, db):
        fa = RationalFunction(a, da)
        fb = RationalFunction(b, db)
        product = fa * fb
        for var in ("x", "y", "z"):
            lhs = product.diff(var)
            rhs = fa.diff(var) * fb + fa * fb.diff(var)
            assert lhs == rhs

    def test_repeated_factor_denominator(self):
        # d/dx of (x + y)/((x - y)^2 z^3) = -(x + 3y)/((x - y)^3 z^3)
        f = rf(X + Y, (X - Y) ** 2 * Z**3)
        assert f.diff("x") == rf(-(X + 3 * Y), (X - Y) ** 3 * Z**3)
        assert f.diff("z") == rf(-3 * (X + Y), (X - Y) ** 2 * Z**4)

    @settings(max_examples=30, deadline=None)
    @given(polys(max_terms=4), denominators(), denominators(), st.integers(1, 3))
    def test_quotient_rule_over_repeated_factors(self, a, d, e, k):
        f = RationalFunction(a, d**k * e)
        for var in ("x", "y", "z"):
            # the quotient rule in canonical arithmetic, one operation at a time
            den = d**k * e
            expected = rf(a.diff(var)) / rf(den) - rf(a) * rf(den.diff(var)) / rf(den) ** 2
            assert f.diff(var) == expected


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


class TestEvaluate:
    def test_multiplier_at_unit_point(self):
        m = rf(ONE, 2 * Z * Y**3)
        assert m.eval((Fraction(1), Fraction(1), Fraction(1))) == Fraction(1, 2)

    def test_coordinate_projection(self):
        p = (Fraction(5, 7), Fraction(2), Fraction(-3))
        assert rf(X).eval(p) == Fraction(5, 7)

    def test_singular_point_reported(self):
        f = rf(ONE, Y)
        with pytest.raises(SingularPointError) as info:
            f.eval((Fraction(1), Fraction(0), Fraction(1)))
        assert "y" in str(info.value)

    def test_float_mode(self):
        m = rf(ONE, 2 * Z * Y**3)
        assert m.eval((1.0, 1.0, 1.0)) == pytest.approx(0.5)

    @pytest.mark.parametrize("point, kind", [
        ((1, 2, -3), Fraction),
        ((Fraction(1, 2), Fraction(2), Fraction(-3, 4)), Fraction),
        ((Fraction(1, 2), 2, -3), Fraction),
        ((0.5, 2.0, -3.0), float),
        ((0.5, 2, -3), float),
    ])
    def test_the_coordinates_type_picks_the_path(self, point, kind):
        # ints and Fractions evaluate exactly, any float coordinate in floats
        m = rf(X**2 + ONE, 2 * Z * Y**3)
        value = m.eval(point)
        assert type(value) is kind
        exact = m.eval(tuple(Fraction(c) for c in point))
        assert value == exact if kind is Fraction else value == pytest.approx(float(exact))
        assert type(X.eval(point)) is kind

    @pytest.mark.parametrize("point, shown", [
        ((1.0, 0.0, 1.0), "(1.0, 0.0, 1.0)"),
        ((1, 0, Fraction(1, 2)), "(1, 0, 1/2)"),
    ])
    def test_a_singular_point_prints_as_a_triple(self, point, shown):
        with pytest.raises(SingularPointError) as info:
            rf(ONE, Y**2).eval(point)
        assert str(info.value) == f"denominator y^2 vanishes at {shown}"

    @settings(max_examples=40, deadline=None)
    @given(polys(max_terms=4), polys(max_terms=4))
    def test_evaluation_is_multiplicative(self, a, b):
        point = (Fraction(2, 3), Fraction(-1, 2), Fraction(5, 4))
        assert (a * b).eval(point) == a.eval(point) * b.eval(point)


# ---------------------------------------------------------------------------
# printing round trips (value-level checks live in the parser tests)
# ---------------------------------------------------------------------------


class TestFormatting:
    def test_zero(self):
        assert format_rational(rf(Poly3.const(0))) == "0"

    def test_difference_of_squares(self):
        assert format_rational(rf(X**2 - Y**2)) == "x^2 - y^2"

    def test_single_variable_denominator_unparenthesised(self):
        assert format_rational(rf(X, Y)) == "x/y"
        assert format_rational(rf(X, Y**3)) == "x/y^3"

    def test_integers_past_the_digit_limit_print_exactly(self):
        # decimal strings made while the limit (4300 by default) allows them
        numbers = [10**k + j for k in (639, 640, 1278, 1279, 2000) for j in (0, 1, 987654321)]
        numbers += [7**2000, 3**4000 - 1]
        expected = [str(n) for n in numbers]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            printed = [format_rational(rf(Poly3.const(n))) for n in numbers]
            fraction = format_rational(rf(Fraction(-(10**1000), 7) * X))
        finally:
            sys.set_int_max_str_digits(limit)
        assert printed == expected
        assert fraction == "-" + str(10**1000) + "*x/7"

    def test_fraction_coefficients_cleared(self):
        f = rf(X) / 2 + rf(Y) / 2
        assert format_rational(f) == "(x + y)/2"

    def test_composition(self):
        t_chart = ("t1", "t2", "t3")
        t1 = RationalFunction(Poly3.variable("t1", t_chart))
        t2 = RationalFunction(Poly3.variable("t2", t_chart))
        t3 = RationalFunction(Poly3.variable("t3", t_chart))
        f = rf(X * Y + Z)
        composed = f.compose((t1, t2, t3))
        assert composed == t1 * t2 + t3

import random
from fractions import Fraction

import pytest

from mcflow.algebra import Point3, Poly3, RationalFunction
from mcflow.calculus import LogIntegral
from mcflow.parser import (
    BinOp,
    ParseError,
    Pow,
    Var,
    parse_expr,
    parse_rational,
    parse_system,
    to_log_integral,
    to_rational,
)

X = Poly3.variable("x")
Y = Poly3.variable("y")
Z = Poly3.variable("z")


def rf(num, den=1):
    return RationalFunction(num, den)


class TestParseExpr:
    def test_guillot_xdot(self):
        node = parse_expr("x^2 + y^4")
        assert node == BinOp("+", Pow(Var("x"), 2), Pow(Var("y"), 4))

    def test_unary_minus_equals_subtraction(self):
        assert to_rational(parse_expr("-(x)")) == to_rational(parse_expr("0 - x"))

    def test_precedence_against_reference_form(self):
        lhs = parse_rational("2*x*z - 1/2*y^2")
        rhs = parse_rational("(4*x*z - y^2)/2")
        assert lhs == rhs
        for seed in range(5):
            rng = random.Random(seed)
            p = Point3.exact(
                Fraction(rng.randint(1, 9), rng.randint(1, 4)),
                Fraction(rng.randint(1, 9), rng.randint(1, 4)),
                Fraction(rng.randint(1, 9), rng.randint(1, 4)),
            )
            assert lhs.eval(p) == rhs.eval(p)

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse_rational("-x^2") == rf(-(X**2))
        assert parse_rational("(-x)^2") == rf(X**2)

    def test_power_is_right_associative_integer_only(self):
        node = parse_expr("x^3")
        assert node == Pow(Var("x"), 3)
        assert parse_rational("x^-2") == rf(Poly3.const(1), X**2)

    def test_unknown_identifier_positioned(self):
        with pytest.raises(ParseError) as info:
            parse_expr("x + foo")
        assert info.value.line == 1
        assert info.value.column == 5

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError) as info:
            parse_expr("x^y")
        assert "exponent" in str(info.value)

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("2 x")

    def test_empty_expression(self):
        with pytest.raises(ParseError):
            parse_expr("   ")

    def test_log_rejected_outside_integrals(self):
        with pytest.raises(ParseError) as info:
            parse_expr("log(x)")
        assert "integral" in str(info.value)

    def test_log_arity_error(self):
        with pytest.raises(ParseError):
            parse_expr("log(x, y)", allow_log=True)
        with pytest.raises(ParseError):
            parse_expr("log x", allow_log=True)

    def test_division_by_zero_constant(self):
        from mcflow.algebra import ZeroDenominatorError

        with pytest.raises(ZeroDenominatorError):
            parse_rational("x/0")

    @pytest.mark.parametrize("text", ["x + (10^3000)^2", "x*(2/3)^-9100", "(-(7 - 2))^7000",
                                      "x^" + "1" * 5000])
    def test_integer_past_the_digit_limit(self, text):
        with pytest.raises(ParseError, match=r"limit of \d+ digits"):
            parse_expr(text)

    @pytest.mark.parametrize("text, value", [("(10^2000)^2", Fraction(10) ** 4000),
                                             ("(1/2)^-13000", Fraction(2) ** 13000),
                                             ("1^99999999999999999999", Fraction(1)),
                                             ("0^99999999999999999999", Fraction(0))])
    def test_constant_power_within_the_digit_limit(self, text, value):
        assert parse_rational(text) == rf(Poly3.const(value))


class TestFormatExpr:
    def test_round_trip_simple(self):
        for text in ("x^2 - y^2", "x + y*z", "-x^2", "1/(2*y^3*z)", "x/(y/z)"):
            value = parse_rational(text)
            assert parse_rational(str(value)) == value

    def test_multiplier_printing(self):
        value = rf(Poly3.const(1), 2 * Z * Y**3)
        assert str(value) == "1/(2*y^3*z)"
        assert parse_rational(str(value)) == value

    def test_zero_and_difference(self):
        assert str(rf(Poly3.zero())) == "0"
        assert str(rf(X**2 - Y**2)) == "x^2 - y^2"

    def test_value_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(200):
            terms = {}
            for _ in range(rng.randint(0, 5)):
                exps = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2))
                terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            num = Poly3(terms)
            den_terms = {}
            for _ in range(rng.randint(1, 2)):
                exps = (rng.randint(0, 1), rng.randint(0, 2), rng.randint(0, 1))
                den_terms[exps] = Fraction(rng.randint(-4, 4))
            den = Poly3(den_terms)
            if den.is_zero():
                den = Poly3.const(1)
            value = rf(num, den)
            assert parse_rational(str(value)) == value


class TestParseIntegral:
    def test_guillot_h1(self):
        h = to_log_integral(parse_expr("x^2/y^2 - y^2", allow_log=True))
        assert h == LogIntegral(rf(X**2, Y**2) - rf(Y**2), [])

    def test_guillot_h2_plus(self):
        h = to_log_integral(
            parse_expr("log(x + y^2) - 3/2*log(y) - 1/2*log(z)", allow_log=True)
        )
        assert h == LogIntegral(
            rf(Poly3.zero()),
            [
                (Fraction(1), rf(X + Y**2)),
                (Fraction(-3, 2), rf(Y)),
                (Fraction(-1, 2), rf(Z)),
            ],
        )

    def test_log_scaled_by_non_constant_rejected(self):
        with pytest.raises(ParseError):
            to_log_integral(parse_expr("x*log(y)", allow_log=True))

    def test_log_over_constant(self):
        h = to_log_integral(parse_expr("log(y)/2", allow_log=True))
        assert h.log_terms == ((Fraction(1, 2), rf(Y)),)

    def test_mixed_rational_and_log(self):
        h = to_log_integral(parse_expr("x + 2*log(y) - log(z)/3", allow_log=True))
        assert h.rational_part == rf(X)
        assert h.log_terms == (
            (Fraction(2), rf(Y)),
            (Fraction(-1, 3), rf(Z)),
        )


GUILLOT_SYS = """\
# quadratic flow with quartic forcing
name: guillot
variables: x, y, z
v: x^2 + y^4; x*y; 2*y^2*z - x*z
u: 2*x; y; -z
w: -1; 0; 0
integral H1: x^2/y^2 - y^2
multiplier: 1/(2*y^3*z)
"""


class TestParseSystem:
    def test_full_file(self):
        spec = parse_system(GUILLOT_SYS)
        assert spec.name == "guillot"
        assert spec.variables == ("x", "y", "z")
        assert spec.v == (rf(X**2 + Y**4), rf(X * Y), rf(2 * Y**2 * Z - X * Z))
        assert spec.u == (rf(2 * X), rf(Y), rf(-Z))
        assert spec.w == (rf(Poly3.const(-1)), rf(Poly3.zero()), rf(Poly3.zero()))
        assert spec.multiplier_hint == rf(Poly3.const(1), 2 * Z * Y**3)
        assert spec.integral("H1") == LogIntegral(rf(X**2, Y**2) - rf(Y**2), [])

    def test_minimal_file_leaves_options_absent(self):
        spec = parse_system("name: toy\nvariables: x, y, z\nv: y; -x; 0\n")
        assert spec.u is None
        assert spec.w is None
        assert spec.integrals == ()
        assert spec.multiplier_hint is None

    def test_duplicate_key_rejected(self):
        source = "name: a\nvariables: x, y, z\nv: 1; 0; 0\nv: 0; 1; 0\n"
        with pytest.raises(ParseError) as info:
            parse_system(source)
        assert "duplicate" in str(info.value)
        assert info.value.line == 4

    def test_missing_required_key(self):
        with pytest.raises(ParseError) as info:
            parse_system("name: a\nvariables: x, y, z\n")
        assert "v" in str(info.value)

    def test_malformed_expression_carries_file_line(self):
        source = "name: a\nvariables: x, y, z\nv: x + ; 0; 0\n"
        with pytest.raises(ParseError) as info:
            parse_system(source)
        assert info.value.line == 3

    @pytest.mark.parametrize(
        "lines, column",
        [
            # the 2 of a constant power past the digit limit
            ("v: 2^100000*x; y; z", 4),
            # the * in the second component
            ("v: x; y +* 2; z", 10),
            # the * of a multiplier value after two spaces
            ("v: x; y; z\nmultiplier:  1/(x +* y)", 20),
        ],
        ids=["first_component", "second_component", "multiplier"],
    )
    def test_error_column_counts_from_the_start_of_the_line(self, lines, column):
        source = f"name: a\nvariables: x, y, z\n{lines}\n"
        with pytest.raises(ParseError) as info:
            parse_system(source)
        assert (info.value.line, info.value.column) == (source.count("\n"), column)

    def test_unknown_key(self):
        with pytest.raises(ParseError):
            parse_system("name: a\nvariables: x, y, z\nv: 1; 0; 0\ncolour: blue\n")

    def test_t_variable_chart(self):
        source = (
            "name: halphen\nvariables: t1, t2, t3\n"
            "v: t2*t3 - t1*t2 - t1*t3; t1*t3 - t3*t2 - t1*t2; t1*t2 - t3*t1 - t3*t2\n"
        )
        spec = parse_system(source)
        assert spec.variables == ("t1", "t2", "t3")
        t1 = RationalFunction.var("t1", spec.variables)
        t2 = RationalFunction.var("t2", spec.variables)
        t3 = RationalFunction.var("t3", spec.variables)
        assert spec.v[0] == t2 * t3 - t1 * t2 - t1 * t3

    def test_round_trip_through_serialization(self):
        spec = parse_system(GUILLOT_SYS)
        chart = spec.variables
        for value in (*spec.v, *spec.u, *spec.w, spec.multiplier_hint):
            assert parse_rational(str(value), chart) == value
        for _, h in spec.integrals:
            assert to_log_integral(parse_expr(str(h), chart, allow_log=True), chart) == h

import operator
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mcflow.algebra import Poly3, RationalFunction
from mcflow.calculus import LogIntegral
from mcflow.parser import ParseError, _parse_value, parse_rational, parse_system

X = Poly3.variable("x")
Y = Poly3.variable("y")
Z = Poly3.variable("z")


def rf(num, den=1):
    return RationalFunction(num, den)


def poly(terms, chart=("x", "y", "z")):
    """The sum of c * x^a * y^b * z^e over the term map {(a, b, e): c}."""
    x, y, z = (Poly3.variable(name, chart) for name in chart)
    total = Poly3.const(0, chart)
    for (a, b, e), c in terms.items():
        total = total + Poly3.const(c, chart) * x**a * y**b * z**e
    return total


def parse_integral(text, chart=("x", "y", "z")):
    """An integral value as parse_system reads it, at line 1, column 1."""
    return _parse_value(text, chart, 1, 1, allow_log=True)


class TestParseExpr:
    def test_guillot_xdot(self):
        assert parse_rational("x^2 + y^4") == rf(X**2 + Y**4)

    def test_unary_minus_equals_subtraction(self):
        assert parse_rational("-(x)") == parse_rational("0 - x") == rf(-X)

    def test_precedence_against_reference_form(self):
        lhs = parse_rational("2*x*z - 1/2*y^2")
        rhs = parse_rational("(4*x*z - y^2)/2")
        assert lhs == rhs
        for seed in range(5):
            rng = random.Random(seed)
            p = (
                Fraction(rng.randint(1, 9), rng.randint(1, 4)),
                Fraction(rng.randint(1, 9), rng.randint(1, 4)),
                Fraction(rng.randint(1, 9), rng.randint(1, 4)),
            )
            assert lhs.eval(p) == rhs.eval(p)

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse_rational("-x^2") == rf(-(X**2))
        assert parse_rational("(-x)^2") == rf(X**2)

    def test_power_is_right_associative_integer_only(self):
        assert parse_rational("x^3") == rf(X**3)
        assert parse_rational("x^(3)") == parse_rational("x^3")
        assert parse_rational("x^-2") == rf(Poly3.const(1), X**2)

    def test_unknown_identifier_positioned(self):
        with pytest.raises(ParseError) as info:
            parse_rational("x + foo")
        assert info.value.line == 1
        assert info.value.column == 5

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError) as info:
            parse_rational("x^y")
        assert "exponent" in str(info.value)

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_rational("2 x")

    def test_empty_expression(self):
        with pytest.raises(ParseError):
            parse_rational("   ")

    def test_log_rejected_outside_integrals(self):
        with pytest.raises(ParseError) as info:
            parse_rational("log(x)")
        assert "integral" in str(info.value)

    def test_log_arity_error(self):
        with pytest.raises(ParseError):
            parse_integral("log(x, y)")
        with pytest.raises(ParseError):
            parse_integral("log x")

    def test_division_by_zero_constant(self):
        from mcflow.algebra import ZeroDenominatorError

        with pytest.raises(ZeroDenominatorError):
            parse_rational("x/0")

    @pytest.mark.parametrize("text", ["x + (10^3000)^2", "x*(2/3)^-9100", "(-(7 - 2))^7000",
                                      "x^" + "1" * 5000])
    def test_integer_past_the_digit_limit(self, text):
        with pytest.raises(ParseError, match=r"limit of \d+ digits"):
            parse_rational(text)

    @pytest.mark.parametrize("text, value", [("(10^2000)^2", Fraction(10) ** 4000),
                                             ("(1/2)^-13000", Fraction(2) ** 13000),
                                             ("1^99999999999999999999", Fraction(1)),
                                             ("0^99999999999999999999", Fraction(0))])
    def test_constant_power_within_the_digit_limit(self, text, value):
        assert parse_rational(text) == rf(Poly3.const(value))

    def test_a_power_past_the_term_pair_limit_is_refused_quickly(self):
        # (x + y + z)^300 has 45451 terms and took about a minute to compute
        source = "name: big\nvariables: x, y, z\nv: 1; 1; (x + y + z)^300\n"
        start = time.process_time()
        with pytest.raises(ParseError, match="term pairs exceeds the limit") as error:
            parse_system(source)
        assert time.process_time() - start < 1
        assert (error.value.line, error.value.column) == (3, 21)

    # each '(' and each unary '-' nests one level: 100 levels parse, and the
    # token of the 101st is refused before the recursion limit is reached
    @pytest.mark.parametrize("shape, column", [
        (lambda n: "(" * n + "x" + ")" * n, 101),
        (lambda n: "-" * n + "x", 101),
        (lambda n: "x^" + "(" * n + "2" + ")" * n, 103),
        (lambda n: ("(-" * n)[:n] + "x" + ")" * ((n + 1) // 2), 101),
    ], ids=["parentheses", "unary_minus", "exponent", "alternating"])
    def test_nesting_past_the_limit_is_refused(self, shape, column):
        parse_rational(shape(100))
        for depth in (101, 1000):
            with pytest.raises(ParseError, match="nesting deeper than 100 levels") as error:
                parse_rational(shape(depth))
            assert (error.value.line, error.value.column) == (1, column)

    def test_nesting_inside_log_is_counted(self):
        with pytest.raises(ParseError, match="nesting deeper than 100 levels"):
            parse_integral("log(" * 1000 + "x" + ")" * 1000)

    def test_a_product_past_the_term_pair_limit_is_refused(self):
        # each factor has 1001 terms: 1002001 pairs
        factor = "(" + " + ".join(f"x^{k}" for k in range(1001)) + ")"
        with pytest.raises(ParseError, match="a product of 1002001 term pairs") as error:
            parse_rational(f"{factor}*{factor}")
        assert error.value.column == len(factor) + 1
        assert parse_rational(f"{factor}*(x + y)") == rf(parse_rational(factor).num * (X + Y))


def outcome(function, *args):
    """The value, or the type and message of the error raised."""
    try:
        return function(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def reference(function, *operands):
    """function of reference outcomes, with RationalFunction arithmetic at
    every step: the first operand's error, else the outcome."""
    for operand in operands:
        if isinstance(operand, tuple):
            return operand
    return outcome(function, *operands)


ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

# (text, reference outcome) pairs; every operand is parenthesised
expressions = st.recursive(
    st.one_of(
        st.integers(0, 3).map(lambda n: (str(n), RationalFunction.const(n))),
        st.sampled_from("xyz").map(lambda v: (v, RationalFunction(Poly3.variable(v)))),
    ),
    lambda children: st.one_of(
        children.map(lambda a: (f"-({a[0]})", reference(operator.neg, a[1]))),
        st.builds(lambda op, a, b: (f"({a[0]}) {op} ({b[0]})", reference(ARITHMETIC[op], a[1], b[1])),
                  st.sampled_from("+-*/"), children, children),
        st.builds(lambda a, n: (f"({a[0]})^{n}", reference(operator.pow, a[1], n)),
                  children, st.integers(-2, 3)),
    ),
    max_leaves=8,
)

RX, RY, RZ = (RationalFunction(Poly3.variable(v)) for v in "xyz")


def const(n):
    return RationalFunction.const(n)


QUOTIENTS = {
    "x/(x-x)": lambda: RX / (RX - RX),
    "(x-x)^-1": lambda: (RX - RX) ** -1,
    "(y - y)^(-2) + x": lambda: (RY - RY) ** -2 + RX,
    "x + 1/0": lambda: RX + const(1) / const(0),
    "0/x": lambda: const(0) / RX,
    "(x-x)^0": lambda: (RX - RX) ** 0,
    "x/2": lambda: RX / const(2),
    "(x^2 - 1)/(3/2) - 2^-1*y": lambda: (RX**2 - const(1)) / (const(3) / const(2)) - const(2) ** -1 * RY,
    "(x^2 - y^2)/(x + y)": lambda: (RX**2 - RY**2) / (RX + RY),
    "x^-2*y/(2*z)": lambda: RX**-2 * RY / (const(2) * RZ),
}


class TestPolynomialFirstEvaluation:
    @settings(max_examples=300, deadline=None)
    @given(expressions)
    def test_matches_rational_arithmetic_at_every_node(self, pair):
        text, expected = pair
        assert outcome(parse_rational, text) == expected

    @pytest.mark.parametrize("text", QUOTIENTS)
    def test_quotients_and_negative_powers(self, text):
        value = outcome(parse_rational, text)
        assert value == outcome(QUOTIENTS[text])
        assert isinstance(value, (RationalFunction, tuple))

    def test_a_zero_divisor_raises_the_same_error(self):
        from mcflow.algebra import ZeroDenominatorError

        for text in ("x/(x-x)", "(x-x)^-1", "x/0"):
            with pytest.raises(ZeroDenominatorError, match="^reciprocal of zero$"):
                parse_rational(text)


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
        assert str(rf(Poly3.const(0))) == "0"
        assert str(rf(X**2 - Y**2)) == "x^2 - y^2"

    def test_value_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(200):
            terms = {}
            for _ in range(rng.randint(0, 5)):
                exps = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2))
                terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            num = poly(terms)
            den_terms = {}
            for _ in range(rng.randint(1, 2)):
                exps = (rng.randint(0, 1), rng.randint(0, 2), rng.randint(0, 1))
                den_terms[exps] = Fraction(rng.randint(-4, 4))
            den = poly(den_terms)
            if den.is_zero():
                den = Poly3.const(1)
            value = rf(num, den)
            assert parse_rational(str(value)) == value


class TestParseIntegral:
    def test_guillot_h1(self):
        h = parse_integral("x^2/y^2 - y^2")
        assert h == LogIntegral(rf(X**2, Y**2) - rf(Y**2), [])

    def test_guillot_h2_plus(self):
        h = parse_integral("log(x + y^2) - 3/2*log(y) - 1/2*log(z)")
        assert h == LogIntegral(
            rf(Poly3.const(0)),
            [
                (Fraction(1), rf(X + Y**2)),
                (Fraction(-3, 2), rf(Y)),
                (Fraction(-1, 2), rf(Z)),
            ],
        )

    def test_log_scaled_by_non_constant_rejected(self):
        with pytest.raises(ParseError):
            parse_integral("x*log(y)")

    def test_log_over_constant(self):
        h = parse_integral("log(y)/2")
        assert h.log_terms == ((Fraction(1, 2), rf(Y)),)

    def test_mixed_rational_and_log(self):
        h = parse_integral("x + 2*log(y) - log(z)/3")
        assert h.rational_part == rf(X)
        assert h.log_terms == (
            (Fraction(2), rf(Y)),
            (Fraction(-1, 3), rf(Z)),
        )


    def test_terms_merge_by_argument_in_order_of_first_appearance(self):
        h = parse_integral("log(z)*0 + log(y) + log(z)")
        assert h.log_terms == ((Fraction(1), rf(Z)), (Fraction(1), rf(Y)))

    def test_terms_that_sum_to_zero_are_dropped(self):
        h = parse_integral("x + log(y) - 2*(log(y)/2)")
        assert h.rational_part == rf(X) and h.log_terms == ()
        # a dropped term's zero argument is not an error
        assert parse_integral("0*log(x - x)").log_terms == ()

    def test_log_free_integral_is_its_rational_part(self):
        h = parse_integral("(x^2 - 1)/(x - 1)")
        assert h == LogIntegral(rf(X + 1), [])


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
        assert spec.w == (rf(Poly3.const(-1)), rf(Poly3.const(0)), rf(Poly3.const(0)))
        assert spec.multiplier_hint == rf(Poly3.const(1), 2 * Z * Y**3)
        assert dict(spec.integrals)["H1"] == LogIntegral(rf(X**2, Y**2) - rf(Y**2), [])

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

    @pytest.mark.parametrize("key", ["integrals H", "integralH"])
    def test_integral_key_starts_with_the_word_integral(self, key):
        source = f"name: a\nvariables: x, y, z\nv: 1; 0; 0\n{key}: y\n"
        with pytest.raises(ParseError) as info:
            parse_system(source)
        assert (info.value.message, info.value.line) == (f"unknown key {key!r}", 4)

    def test_t_variable_chart(self):
        source = (
            "name: halphen\nvariables: t1, t2, t3\n"
            "v: t2*t3 - t1*t2 - t1*t3; t1*t3 - t3*t2 - t1*t2; t1*t2 - t3*t1 - t3*t2\n"
        )
        spec = parse_system(source)
        assert spec.variables == ("t1", "t2", "t3")
        t1 = RationalFunction(Poly3.variable("t1", spec.variables))
        t2 = RationalFunction(Poly3.variable("t2", spec.variables))
        t3 = RationalFunction(Poly3.variable("t3", spec.variables))
        assert spec.v[0] == t2 * t3 - t1 * t2 - t1 * t3

    # a variable is a name the lexer reads back as one identifier
    @pytest.mark.parametrize("name", ["x\u203f", "e\u0301"], ids=["undertie", "decomposed_e"])
    def test_a_variable_the_lexer_splits_is_refused(self, name):
        with pytest.raises(ParseError) as info:
            parse_system(f"name: a\nvariables: {name}, y, z\nv: {name}; y; z\n")
        assert (info.value.message, info.value.line, info.value.column) == (
            "variables must be 3 distinct identifiers", 2, 1)

    def test_a_variable_the_lexer_reads_as_one_identifier_is_accepted(self):
        spec = parse_system("name: a\nvariables: x\u00b2, y, z\nv: x\u00b2^2; y; z\n")
        assert spec.variables == ("x\u00b2", "y", "z")
        assert spec.v[0] == rf(Poly3.variable("x\u00b2", spec.variables) ** 2)

    def test_round_trip_through_serialization(self):
        spec = parse_system(GUILLOT_SYS)
        chart = spec.variables
        for value in (*spec.v, *spec.u, *spec.w, spec.multiplier_hint):
            assert parse_rational(str(value), chart) == value
        for _, h in spec.integrals:
            assert parse_integral(str(h), chart) == h


LIMIT = sys.get_int_max_str_digits()


def parse_error(source):
    with pytest.raises(ParseError) as info:
        parse_system("name: a\nvariables: x, y, z\n" + source + "\n")
    return info.value.message, info.value.line, info.value.column


class TestSingleFaults:
    """One fault gives its message at its line and column; these are the
    reports of the parser that built an expression tree first."""

    @pytest.mark.parametrize("source, message, line, column", [
        ("v: x; y +* 2; z", "expected an expression, found *", 3, 10),
        ("v: x; y; foo", "unknown identifier 'foo'; variables are x, y, z", 3, 10),
        ("v: x; y; 2 z", "unexpected trailing input 'z'", 3, 12),
        ("v: x; y/(x - x); z", "reciprocal of zero", 3, 7),
        ("v: x; (1/0)^2*y; z", "reciprocal of zero", 3, 7),
        ("v: 2^100000*x; y; z", f"constant power exceeds the limit of {LIMIT} digits", 3, 4),
        ("v: x + 2^100000; y; z", f"constant power exceeds the limit of {LIMIT} digits", 3, 8),
        ("v: x*(2)^100000; y; z", f"constant power exceeds the limit of {LIMIT} digits", 3, 6),
        ("v: (x - x + 10)^5000; y; z", f"constant power exceeds the limit of {LIMIT} digits", 3, 4),
        ("v: x; y^x; z", "exponent must be an integer, found x", 3, 9),
        ("v: x; log(y); z", "log is only allowed in integral expressions", 3, 7),
        ("v: x; y; (z", "expected ')', found end of input", 3, 12),
        ("v: x; y; z\nmultiplier: 1/(x - x)", "reciprocal of zero", 4, 13),
        # div(0 v) = 0 would hold for every v
        ("v: x; y; z\nmultiplier: 0", "the multiplier is identically zero", 4, 13),
        ("v: x; y; z\nmultiplier:   x*y - y*x", "the multiplier is identically zero", 4, 15),
        ("v: x; y; z\nu: x; y; z", "missing key 'w': the companion fields u and w come together",
         4, 1),
        ("w: -1; 0; 0\nv: x; y; z", "missing key 'u': the companion fields u and w come together",
         3, 1),
        ("v: x; y; z\nintegral H:  x*log(y)", "log may only be scaled by rational constants", 4, 14),
        ("v: x; y; z\nintegral H: log(y)*x + z", "log may only be scaled by rational constants", 4, 13),
        ("v: x; y; z\nintegral H: log(y) * log(z)", "log may only be scaled by rational constants", 4, 13),
        ("v: x; y; z\nintegral H: x + log(y)/x", "log may only be divided by nonzero constants", 4, 13),
        ("v: x; y; z\nintegral H: x + log(y)/0", "log may only be divided by nonzero constants", 4, 13),
        ("v: x; y; z\nintegral H: x + log(y)^2", "log terms must enter linearly, as c*log(f)", 4, 13),
        ("v: x; y; z\nintegral H: x / log(y)", "log terms must enter linearly, as c*log(f)", 4, 13),
        ("v: x; y; z\nintegral H:   2 + log(log(y))", "log is only allowed in integral expressions", 4, 15),
        ("v: x; y; z\nintegral H: log(x - x) + y", "log argument is identically zero", 4, 13),
        ("v: x; y; z\nintegral H: log(y) - log(y) + log(0)", "log argument is identically zero", 4, 13),
        ("v: x; y; z\nintegral H: log(y) + 1/(z - z)", "reciprocal of zero", 4, 13),
        ("v: x; y; z\nintegral H: log(x, y)", "log takes exactly one argument", 4, 18),
        ("v: x; y; z\nintegral H: log x", "log takes exactly one parenthesised argument", 4, 13),
        ("v: x^10001; y; z", "degree 10001 in one variable exceeds the limit of 10000", 3, 4),
        ("v: x; 1/(z^20000 + 1); z", "degree 20000 in one variable exceeds the limit of 10000",
         3, 7),
        ("v: x; (y^30000 + x)/(y^30000 + z); z",
         "degree 30000 in one variable exceeds the limit of 20000", 3, 20),
        ("v: x; y; z^30000*y + 1/(x + 1)",
         "degree 30000 in one variable exceeds the limit of 20000", 3, 20),
        ("v: x; y; z\nintegral H: x + 2*log(y^10001)",
         "degree 10001 in one variable exceeds the limit of 10000", 4, 13),
    ])
    def test_report_of_one_fault(self, source, message, line, column):
        assert parse_error(source) == (message, line, column)

    def test_degree_at_the_limit_is_accepted(self):
        # only the finished value counts: x^20000/x^10000 is x^10000
        spec = parse_system("name: a\nvariables: x, y, z\nv: x^10000; x^20000/x^10000; z\n"
                            "integral H: log(y^10000)\n")
        assert spec.v[:2] == (rf(X**10000), rf(X**10000))
        assert dict(spec.integrals)["H"].log_terms == ((1, rf(Y**10000)),)

    def test_several_faults_report_the_first_one_reached(self):
        # the zero divisor stands left of the syntax error
        assert parse_error("v: x; 1/(y-y) +* z; z") == ("reciprocal of zero", 3, 7)

    def test_log_of_zero_is_reported_before_a_later_fault(self):
        # the log of zero stands left of the unclosed parenthesis
        assert parse_error("v: x; y; z\nintegral H: log(y - y) + (z") == (
            "log argument is identically zero", 4, 13)


class TestUnicodeDigits:
    @pytest.mark.parametrize("source, column", [
        ("v: ²; y; z", 4), ("v: x; 2①; z", 8), ("v: x; y^²; z", 9)])
    def test_a_digit_that_is_not_decimal_is_an_unexpected_character(self, source, column):
        message, line, at = parse_error(source)
        assert message.startswith("unexpected character") and (line, at) == (3, column)

    def test_a_decimal_digit_of_another_script_is_a_number(self):
        spec = parse_system("name: a\nvariables: x, y, z\nv: \u0663*x; y^\u0662; z\n")
        assert spec.v == (rf(3 * X), rf(Y**2), rf(Z))
        assert parse_rational("\u0661\u0660") == rf(Poly3.const(10))

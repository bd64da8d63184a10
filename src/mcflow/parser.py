"""Expression and system-file parsing.

Expression grammar (recursive descent, first error aborts with position):

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' exponent)?          # binds tighter than unary '-'
    exponent := ['-'] INT | '(' ['-'] INT ')'
    atom     := INT | IDENT | '(' expr ')' | 'log' '(' expr ')'

Each rule returns the value of what it read; there is no syntax tree, so
of several faults the first one reached from the left is reported.  A
value nests at most 100 levels of '(' and unary '-'.
Implicit multiplication is rejected; ``log`` is accepted only where a
log-combination integral is expected.  System files are UTF-8 and
line-oriented: one ``key: value`` pair per line, ``#`` starts a comment.

    name: <string>
    variables: <id>, <id>, <id>
    v: <expr>; <expr>; <expr>
    u: <expr>; <expr>; <expr>          # optional, together with w
    w: <expr>; <expr>; <expr>          # optional, together with u
    integral <name>: <sum of c*log(f) and rational terms>   # optional, repeatable
    multiplier: <expr>                 # optional, not identically zero
"""

from __future__ import annotations

import math
import operator
import sys
from typing import Optional, Sequence

from . import Record
from .algebra import (
    DEFAULT_CHART,
    ExponentOverflowError,
    Poly3,
    RationalFunction,
    ZeroDenominatorError,
    highest_exponent,
    widest_printed_integer,
)
from .calculus import LogIntegral


class ParseError(Exception):
    """Lexical or syntactic failure, carrying a 1-based position; line None
    for a value that is no text, such as a check named by an option."""

    def __init__(self, message: str, line: int | None = 1, column: int = 1):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(message if line is None else f"{message} (line {line}, column {column})")


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

_OPERATORS = set("+-*/^();,:")


class _Token(Record):
    __slots__ = ("kind", "text", "line", "column")
    kind: str  # "int" | "ident" | "op" | "end"
    text: str
    line: int
    column: int

    # the most numerous record: spelled out, this is faster than Record's
    # generic __init__
    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text: str, line: int = 1, column: int = 1) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            column += 1
            i += 1
            continue
        # int() reads decimal digits only: '²' is not one, '٣' is
        if ch.isdecimal():
            start = i
            start_col = column
            while i < len(text) and text[i].isdecimal():
                i += 1
                column += 1
            tokens.append(_Token("int", text[start:i], line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            start_col = column
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
                column += 1
            tokens.append(_Token("ident", text[start:i], line, start_col))
            continue
        if ch in _OPERATORS:
            tokens.append(_Token("op", ch, line, column))
            i += 1
            column += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(_Token("end", "", line, column))
    return tokens


# ---------------------------------------------------------------------------
# parser: tokens -> values
# ---------------------------------------------------------------------------

# A rational value is a Poly3 until it is divided by a nonconstant or raised
# to a negative power, so that polynomial values take no gcd; then it is a
# RationalFunction.  With log allowed, a value with log terms is a _Logs.
# A rational constant is a constant Poly3, which holds its value as a
# reduced integer pair.


class _Logs:
    """A rational part plus (coefficient, argument) log terms, in the order
    they appear; each coefficient is a constant Poly3."""

    __slots__ = ("rational", "terms")

    def __init__(self, rational, terms: list[tuple[Poly3, RationalFunction]]):
        self.rational = rational
        self.terms = terms

    def scaled(self, k: Poly3) -> "_Logs":
        return _Logs(self.rational * k, [(c * k, a) for c, a in self.terms])


def _split(value) -> tuple:
    """The rational part and log terms of a value."""
    return (value.rational, value.terms) if isinstance(value, _Logs) else (value, [])


def _rational(value) -> RationalFunction:
    return value if isinstance(value, RationalFunction) else RationalFunction(value)


def _scalar(value) -> Poly3:
    """A constant rational value as a constant Poly3: a constant
    RationalFunction is its numerator over 1."""
    return value.num if isinstance(value, RationalFunction) else value


# A product step multiplies each term of one operand by each term of the
# other.  Past this many term pairs a step is refused before it is computed:
# (x + y + z)^300 would take about a minute, and no shipped or benchmark
# input needs more than a few hundred pairs.
_MAX_TERM_PAIRS = 10**6

# A parsed value of higher degree than this in one variable is refused: the
# gcd images its inputs as dense lists of degree + 1 coefficients, so x^(2^30)
# would ask for gigabytes.  Shipped and benchmark inputs have degree 4 at most.
_MAX_DEGREE = 10**4

# The operands of a rational step (a quotient, or a sum or product with one)
# are checked before the step runs its gcds, which image them too: up to
# twice the limit, the degree of a product of two values at the limit
# (x^20000/x^10000 is x^10000).  Between monomials every gcd is read off the
# exponents, so only a step with a part of several terms is refused.
_MAX_OPERAND_DEGREE = 2 * _MAX_DEGREE

# Each '(' and each unary '-' takes the parser one level deeper, and a level
# costs up to five Python frames: past this many levels a value is refused
# at the token that goes past it, well before the interpreter's recursion
# limit.  No shipped, golden or benchmark input nests more than 6 levels.
_MAX_NESTING = 100


def _degree_message(degree: int, limit: int) -> str:
    return f"degree {degree} in one variable exceeds the limit of {limit}"


def _parts(value) -> tuple:
    """A rational value's numerator and denominator, or the polynomial."""
    return (value.num, value.den) if isinstance(value, RationalFunction) else (value,)


def _term_count(value) -> int:
    """Terms of a value's rational part, numerator and denominator."""
    if isinstance(value, Poly3):
        return value.term_count()
    if isinstance(value, RationalFunction):
        return value.num.term_count() + value.den.term_count()
    return _term_count(value.rational)


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _arithmetic(op: str, left, right, token: _Token):
    """left op right for rational values; an exponent past what a monomial
    holds, or an operand past _MAX_OPERAND_DEGREE, is a ParseError at the
    operator token (for a power, its '^')."""
    if op == "/" and isinstance(right, Poly3) and right.is_constant() and not right.is_zero():
        return left * right.reciprocal()
    if op == "/" or isinstance(left, RationalFunction) or isinstance(right, RationalFunction):
        parts = [p for value in (left, right) for p in _parts(value)]
        degree = max(map(highest_exponent, parts))
        if degree > _MAX_OPERAND_DEGREE and any(p.term_count() > 1 for p in parts):
            raise ParseError(_degree_message(degree, _MAX_OPERAND_DEGREE),
                             token.line, token.column)
    # a RationalFunction takes a Poly3 operand, and divides by zero with
    # the error "reciprocal of zero"
    if isinstance(left, Poly3) and (op == "/" or isinstance(right, RationalFunction)):
        left = RationalFunction(left)
    try:
        return _ARITHMETIC[op](left, right)
    except ExponentOverflowError as exc:
        raise ParseError(str(exc), token.line, token.column) from None


class _Parser:
    def __init__(self, tokens: list[_Token], variables: Sequence[str], allow_log: bool):
        self.tokens = tokens
        self.pos = 0
        self.variables = tuple(variables)
        self.allow_log = allow_log
        # the index of the last identifier consumed: a power whose base
        # starts after it has a constant base
        self.last_ident = -1
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, text: str) -> _Token:
        token = self.peek()
        if token.kind == "op" and token.text == text:
            return self.advance()
        raise ParseError(f"expected {text!r}, found {token.text or 'end of input'}",
                         token.line, token.column)

    def enter(self) -> None:
        """Consume the next token, a '(' or a unary '-', one level deeper;
        the caller leaves the level with depth -= 1."""
        token = self.advance()
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING} levels",
                             token.line, token.column)

    def at_op(self, *symbols: str) -> bool:
        token = self.peek()
        return token.kind == "op" and token.text in symbols

    def fail(self, message: str):
        """A fault of the whole value, such as a misplaced log term, reported
        at the value's first character."""
        first = self.tokens[0]
        raise ParseError(message, first.line, first.column)

    def combine(self, op: str, left, right, token: _Token):
        if not (isinstance(left, _Logs) or isinstance(right, _Logs)):
            return _arithmetic(op, left, right, token)
        if op in "+-":
            (left, left_terms), (right, right_terms) = _split(left), _split(right)
            if op == "-":
                right_terms = [(-c, a) for c, a in right_terms]
            return _Logs(_arithmetic(op, left, right, token), left_terms + right_terms)
        if op == "*":
            for constant, logs in ((left, right), (right, left)):
                if not isinstance(constant, _Logs) and constant.is_constant():
                    return logs.scaled(_scalar(constant))
            self.fail("log may only be scaled by rational constants")
        if isinstance(right, _Logs):
            self.fail("log terms must enter linearly, as c*log(f)")
        if right.is_constant() and not right.is_zero():
            return left.scaled(_scalar(right).reciprocal())
        self.fail("log may only be divided by nonzero constants")

    # grammar rules ----------------------------------------------------

    def expr(self):
        value = self.term()
        while self.at_op("+", "-"):
            token = self.advance()
            value = self.combine(token.text, value, self.term(), token)
        return value

    def term(self):
        value = self.unary()
        while self.at_op("*", "/"):
            token = self.advance()
            value = self.product(token.text, value, self.unary(), token)
        # a log of zero is refused once its term is read, before any fault to
        # its right, unless the term scales it by zero
        if isinstance(value, _Logs) and any(a.is_zero() and not c.is_zero()
                                            for c, a in value.terms):
            self.fail("log argument is identically zero")
        return value

    def product(self, op: str, left, right, token: _Token):
        """left op right for op '*' or '/'; past _MAX_TERM_PAIRS term pairs,
        a ParseError at the operator token."""
        pairs = _term_count(left) * _term_count(right)
        if pairs > _MAX_TERM_PAIRS:
            raise ParseError(f"a product of {pairs} term pairs exceeds the limit of "
                             f"{_MAX_TERM_PAIRS}", token.line, token.column)
        return self.combine(op, left, right, token)

    def unary(self):
        if self.at_op("-"):
            self.enter()
            value = self.unary()
            self.depth -= 1
            return value.scaled(-1) if isinstance(value, _Logs) else -value
        return self.power()

    def power(self):
        first = self.pos
        base = self.atom()
        if not self.at_op("^"):
            return base
        caret = self.advance()
        exponent = self.exponent()
        if isinstance(base, _Logs):
            self.fail("log terms must enter linearly, as c*log(f)")
        limit = sys.get_int_max_str_digits()
        if limit and self.last_ident < first:
            # the base is constant: refuse a power whose numerator or
            # denominator would have more digits than the limit, before it
            # is computed; a positive integer n has floor(log10 n) + 1 digits
            num, den = base.constant_value()
            if abs(exponent) * math.log10(max(abs(num), den)) >= limit:
                start = self.tokens[first]
                raise ParseError(f"constant power exceeds the limit of {limit} digits",
                                 start.line, start.column)
        if exponent < 0:
            base, exponent = _rational(base).reciprocal(), -exponent
        # square and multiply, as Poly3.__pow__, each step through product
        result = base ** 0
        while exponent:
            if exponent & 1:
                result = self.product("*", result, base, caret)
            exponent >>= 1
            if exponent:
                base = self.product("*", base, base, caret)
        return result

    def exponent(self) -> int:
        token = self.peek()
        if self.at_op("("):
            self.enter()
            value = self.exponent()
            self.expect(")")
            self.depth -= 1
            return value
        sign = 1
        if self.at_op("-"):
            self.advance()
            sign = -1
        token = self.peek()
        if token.kind != "int":
            raise ParseError(
                f"exponent must be an integer, found {token.text or 'end of input'}",
                token.line, token.column)
        self.advance()
        return sign * _int_literal(token)

    def atom(self):
        token = self.peek()
        if token.kind == "int":
            self.advance()
            return Poly3.const(_int_literal(token), self.variables)
        if token.kind == "ident":
            self.last_ident = self.pos
            self.advance()
            if token.text == "log":
                return self.log(token)
            if token.text not in self.variables:
                raise ParseError(
                    f"unknown identifier {token.text!r}; variables are "
                    f"{', '.join(self.variables)}",
                    token.line, token.column)
            return Poly3.variable(token.text, self.variables)
        if self.at_op("("):
            self.enter()
            value = self.expr()
            self.expect(")")
            self.depth -= 1
            return value
        raise ParseError(f"expected an expression, found {token.text or 'end of input'}",
                         token.line, token.column)

    def log(self, token: _Token) -> _Logs:
        if not self.allow_log:
            raise ParseError("log is only allowed in integral expressions",
                             token.line, token.column)
        if not self.at_op("("):
            raise ParseError("log takes exactly one parenthesised argument",
                             token.line, token.column)
        self.enter()
        argument = self.expr()
        if self.at_op(","):
            comma = self.peek()
            raise ParseError("log takes exactly one argument", comma.line, comma.column)
        self.expect(")")
        self.depth -= 1
        if isinstance(argument, _Logs):
            self.fail("log is only allowed in integral expressions")
        return _Logs(Poly3.const(0, self.variables),
                     [(Poly3.const(1, self.variables), _rational(argument))])


# Integers print in decimal, and Python converts between int and str only up to
# sys.get_int_max_str_digits() digits (0 means no limit): a literal past that
# limit is refused here and a constant power in _Parser.power, before either is
# computed, and a system file's value that would print a longer integer in
# _parse_value.


def _int_literal(token: _Token) -> int:
    limit = sys.get_int_max_str_digits()
    if limit and len(token.text) > limit:
        raise ParseError(f"integer literal of {len(token.text)} digits exceeds the "
                         f"limit of {limit} digits", token.line, token.column)
    return int(token.text)


def _parse(text: str, variables: Sequence[str], allow_log: bool, line: int, column: int):
    """The value of text whose first character sits at (line, column)."""
    if not text.strip():
        raise ParseError("empty expression", line, column)
    parser = _Parser(_tokenize(text, line, column), variables, allow_log)
    value = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected trailing input {trailing.text!r}",
                         trailing.line, trailing.column)
    rational, terms = _split(value)
    degree = max(highest_exponent(part) for part in (rational, *(a for _, a in terms)))
    if degree > _MAX_DEGREE:
        parser.fail(_degree_message(degree, _MAX_DEGREE))
    return value


def parse_rational(text: str, variables: Sequence[str] = DEFAULT_CHART) -> RationalFunction:
    return _rational(_parse(text, variables, False, 1, 1))


def _log_integral(value) -> LogIntegral:
    """A value as an integral: log terms merged by argument, in order of
    first appearance, with zero sums dropped."""
    rational, terms = _split(value)
    merged: dict[RationalFunction, Poly3] = {}
    for coeff, argument in terms:
        merged[argument] = merged[argument] + coeff if argument in merged else coeff
    return LogIntegral(_rational(rational),
                       [(c, a) for a, c in merged.items() if not c.is_zero()])


# ---------------------------------------------------------------------------
# system files
# ---------------------------------------------------------------------------


class SystemSpec(Record):
    """Fully resolved content of a system file."""

    __slots__ = ("name", "variables", "v", "u", "w", "integrals", "multiplier_hint")
    name: str
    variables: tuple[str, str, str]
    v: tuple[RationalFunction, RationalFunction, RationalFunction]
    u: Optional[tuple[RationalFunction, RationalFunction, RationalFunction]]
    w: Optional[tuple[RationalFunction, RationalFunction, RationalFunction]]
    integrals: tuple[tuple[str, LogIntegral], ...]
    multiplier_hint: Optional[RationalFunction]


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _parse_value(text: str, variables, line_no: int, column: int, allow_log: bool = False):
    """The value of one expression of a system file, whose first character
    sits at (line_no, column).  A zero divisor carries no position of its
    own: it reports the value's first character."""
    start = column + len(text) - len(text.lstrip())
    try:
        value = _parse(text, variables, allow_log, line_no, column)
        value = _log_integral(value) if allow_log else _rational(value)
    except ZeroDenominatorError as exc:
        raise ParseError(str(exc), line_no, start) from None
    # a log coefficient is a constant RationalFunction, which prints its pair
    rationals = (value,) if not allow_log else (
        value.rational_part, *(part for term in value.log_terms for part in term))
    limit = sys.get_int_max_str_digits()
    widest = max(map(widest_printed_integer, rationals))
    # an integer below 2^(3 limit) < 10^limit has at most limit digits
    if limit and widest.bit_length() > 3 * limit and widest >= 10 ** limit:
        raise ParseError(f"a coefficient exceeds the limit of {limit} digits", line_no, start)
    return value


def _parse_components(value: str, variables, line_no: int, column: int) -> tuple:
    parts = value.split(";")
    if len(parts) != 3:
        raise ParseError(f"expected 3 ';'-separated components, got {len(parts)}", line_no)
    components = []
    for part in parts:
        components.append(_parse_value(part, variables, line_no, column))
        column += len(part) + 1
    return tuple(components)


def parse_system(source: str) -> SystemSpec:
    """Parse a system document; the first error aborts with its line."""
    seen: dict[str, int] = {}
    # (line, value, column of the value's first character)
    raw: dict[str, tuple[int, str, int]] = {}
    integrals: list[tuple[str, int, str, int]] = []
    for line_no, line in enumerate(source.splitlines(), start=1):
        body = _strip_comment(line).strip()
        if not body:
            continue
        key, sep, value = body.partition(":")
        if not sep:
            raise ParseError("expected 'key: value'", line_no)
        key = key.strip()
        column = line.index(":") + 2 + len(value) - len(value.lstrip())
        value = value.strip()
        if key.split(None, 1)[:1] == ["integral"]:
            integral_name = key[len("integral"):].strip()
            if not integral_name:
                raise ParseError("integral lines read 'integral <name>: <expr>'", line_no)
            if any(existing == integral_name for existing, *_ in integrals):
                raise ParseError(f"duplicate integral {integral_name!r}", line_no)
            integrals.append((integral_name, line_no, value, column))
            continue
        if key not in ("name", "variables", "v", "u", "w", "multiplier"):
            raise ParseError(f"unknown key {key!r}", line_no)
        if key in seen:
            raise ParseError(f"duplicate key {key!r} (first on line {seen[key]})", line_no)
        seen[key] = line_no
        raw[key] = (line_no, value, column)

    for required in ("name", "variables", "v"):
        if required not in raw:
            raise ParseError(f"missing required key {required!r}")
    for present, missing in (("u", "w"), ("w", "u")):
        if present in raw and missing not in raw:
            raise ParseError(f"missing key {missing!r}: the companion fields u and w "
                             f"come together", raw[present][0])

    name = raw["name"][1]
    if not name:
        raise ParseError("empty system name", raw["name"][0])

    vars_line, vars_value, _ = raw["variables"]
    names = tuple(part.strip() for part in vars_value.split(","))
    if len(names) != 3 or len(set(names)) != 3 or not all(
        n and (n[0].isalpha() or n[0] == "_") and n.isidentifier() for n in names
    ):
        raise ParseError("variables must be 3 distinct identifiers", vars_line)
    # log names the logarithm in every expression, so no value could use it
    if "log" in names:
        raise ParseError("variables must be 3 distinct identifiers other than log", vars_line)

    v = _parse_components(raw["v"][1], names, raw["v"][0], raw["v"][2])
    u = _parse_components(raw["u"][1], names, raw["u"][0], raw["u"][2]) if "u" in raw else None
    w = _parse_components(raw["w"][1], names, raw["w"][0], raw["w"][2]) if "w" in raw else None
    multiplier = None
    if "multiplier" in raw:
        m_line, m_value, m_column = raw["multiplier"]
        multiplier = _parse_value(m_value, names, m_line, m_column)
        # div(0 v) = 0 holds for every flow v
        if multiplier.is_zero():
            raise ParseError("the multiplier is identically zero", m_line, m_column)
    resolved = tuple(
        (integral_name, _parse_value(value, names, line_no, column, allow_log=True))
        for integral_name, line_no, value, column in integrals
    )
    return SystemSpec(name, names, v, u, w, resolved, multiplier)

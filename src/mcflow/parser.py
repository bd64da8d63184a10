"""Expression and system-file parsing.

Expression grammar (recursive descent, first error aborts with position):

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' exponent)?          # binds tighter than unary '-'
    exponent := ['-'] INT | '(' ['-'] INT ')'
    atom     := INT | IDENT | '(' expr ')' | 'log' '(' expr ')'

Implicit multiplication is rejected; ``log`` is accepted only where a
log-combination integral is expected.  System files are UTF-8 and
line-oriented: one ``key: value`` pair per line, ``#`` starts a comment.

    name: <string>
    variables: <id>, <id>, <id>
    v: <expr>; <expr>; <expr>
    u: <expr>; <expr>; <expr>          # optional
    w: <expr>; <expr>; <expr>          # optional
    integral <name>: <sum of c*log(f) and rational terms>   # optional, repeatable
    multiplier: <expr>                 # optional
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import Record
from .algebra import DEFAULT_CHART, RationalFunction, widest_printed_integer
from .calculus import LogIntegral


class ParseError(Exception):
    """Lexical or syntactic failure, carrying a 1-based position."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Num(Record):
    __slots__ = ("value",)
    value: int


class Var(Record):
    __slots__ = ("name",)
    name: str


class Neg(Record):
    __slots__ = ("operand",)
    operand: "Expr"


class BinOp(Record):
    __slots__ = ("op", "left", "right")
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


class Pow(Record):
    __slots__ = ("base", "exponent")
    base: "Expr"
    exponent: int


class Log(Record):
    __slots__ = ("argument",)
    argument: "Expr"


Expr = Num | Var | Neg | BinOp | Pow | Log


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
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "column", column)


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
        if ch.isdigit():
            start = i
            start_col = column
            while i < len(text) and text[i].isdigit():
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
# parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], variables: Sequence[str], allow_log: bool):
        self.tokens = tokens
        self.pos = 0
        self.variables = tuple(variables)
        self.allow_log = allow_log

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

    def at_op(self, *symbols: str) -> bool:
        token = self.peek()
        return token.kind == "op" and token.text in symbols

    # grammar rules ----------------------------------------------------

    def expr(self) -> Expr:
        node = self.term()
        while self.at_op("+", "-"):
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.at_op("*", "/"):
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.at_op("-"):
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        start = self.peek()
        base = self.atom()
        if self.at_op("^"):
            self.advance()
            node = Pow(base, self.exponent())
            _check_constant_power(node, start)
            return node
        return base

    def exponent(self) -> int:
        token = self.peek()
        if self.at_op("("):
            self.advance()
            value = self.exponent()
            self.expect(")")
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

    def atom(self) -> Expr:
        token = self.peek()
        if token.kind == "int":
            self.advance()
            return Num(_int_literal(token))
        if token.kind == "ident":
            self.advance()
            if token.text == "log":
                if not self.allow_log:
                    raise ParseError("log is only allowed in integral expressions",
                                     token.line, token.column)
                if not self.at_op("("):
                    raise ParseError("log takes exactly one parenthesised argument",
                                     token.line, token.column)
                self.advance()
                argument = self.expr()
                if self.at_op(","):
                    comma = self.peek()
                    raise ParseError("log takes exactly one argument",
                                     comma.line, comma.column)
                self.expect(")")
                return Log(argument)
            if token.text not in self.variables:
                raise ParseError(
                    f"unknown identifier {token.text!r}; variables are "
                    f"{', '.join(self.variables)}",
                    token.line, token.column)
            return Var(token.text)
        if self.at_op("("):
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"expected an expression, found {token.text or 'end of input'}",
                         token.line, token.column)


# Integers print in decimal, and Python converts between int and str only up to
# sys.get_int_max_str_digits() digits (0 means no limit): a literal or a
# constant power past that limit is refused here, before it is computed, and a
# system file's value that would print a longer integer in parse_system.


def _int_literal(token: _Token) -> int:
    limit = sys.get_int_max_str_digits()
    if limit and len(token.text) > limit:
        raise ParseError(f"integer literal of {len(token.text)} digits exceeds the "
                         f"limit of {limit} digits", token.line, token.column)
    return int(token.text)


def _check_constant_power(node: Pow, start: _Token) -> None:
    """Refuse a constant power whose numerator or denominator would have
    more digits than the limit; start is the base's first token."""
    limit = sys.get_int_max_str_digits()
    if not limit or _contains(node.base, (Var, Log)):
        return
    base = to_rational(node.base).constant_value()
    largest = max(abs(base.numerator), base.denominator)
    # a positive integer n has floor(log10 n) + 1 digits
    if abs(node.exponent) * math.log10(largest) >= limit:
        raise ParseError(f"constant power exceeds the limit of {limit} digits",
                         start.line, start.column)


def _parse_tokens(tokens: list[_Token], variables: Sequence[str], allow_log: bool) -> Expr:
    parser = _Parser(tokens, variables, allow_log)
    node = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected trailing input {trailing.text!r}",
                         trailing.line, trailing.column)
    return node


def parse_expr(text: str, variables: Sequence[str] = DEFAULT_CHART,
               allow_log: bool = False, line_offset: int = 1, column_offset: int = 1) -> Expr:
    """Parse text whose first character sits at (line_offset, column_offset)."""
    if not text.strip():
        raise ParseError("empty expression", line_offset, column_offset)
    return _parse_tokens(_tokenize(text, line_offset, column_offset), variables, allow_log)


# ---------------------------------------------------------------------------
# AST -> values
# ---------------------------------------------------------------------------


def to_rational(node: Expr, variables: Sequence[str] = DEFAULT_CHART) -> RationalFunction:
    variables = tuple(variables)
    if isinstance(node, Num):
        return RationalFunction.const(node.value, variables)
    if isinstance(node, Var):
        return RationalFunction.var(node.name, variables)
    if isinstance(node, Neg):
        return -to_rational(node.operand, variables)
    if isinstance(node, Pow):
        return to_rational(node.base, variables) ** node.exponent
    if isinstance(node, BinOp):
        left = to_rational(node.left, variables)
        right = to_rational(node.right, variables)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        return left / right
    raise ParseError("log is only allowed in integral expressions")


def parse_rational(text: str, variables: Sequence[str] = DEFAULT_CHART) -> RationalFunction:
    return to_rational(parse_expr(text, variables), variables)


def _contains(node: Expr, kinds) -> bool:
    """Whether the tree has a node of one of the given classes."""
    if isinstance(node, kinds):
        return True
    if isinstance(node, Neg):
        return _contains(node.operand, kinds)
    if isinstance(node, Pow):
        return _contains(node.base, kinds)
    if isinstance(node, BinOp):
        return _contains(node.left, kinds) or _contains(node.right, kinds)
    return False


def to_log_integral(node: Expr, variables: Sequence[str] = DEFAULT_CHART) -> LogIntegral:
    """Interpret an AST as rational part plus constant multiples of logs."""
    variables = tuple(variables)
    rational = RationalFunction.const(0, variables)
    logs: list[tuple[Fraction, RationalFunction]] = []

    def collect(n: Expr, scale: Fraction) -> None:
        nonlocal rational
        if not _contains(n, Log):
            rational = rational + to_rational(n, variables) * scale
            return
        if isinstance(n, Log):
            logs.append((scale, to_rational(n.argument, variables)))
            return
        if isinstance(n, Neg):
            collect(n.operand, -scale)
            return
        if isinstance(n, BinOp) and n.op in "+-":
            collect(n.left, scale)
            collect(n.right, scale if n.op == "+" else -scale)
            return
        if isinstance(n, BinOp) and n.op == "*":
            for constant, logish in ((n.left, n.right), (n.right, n.left)):
                if not _contains(constant, Log):
                    value = to_rational(constant, variables)
                    if value.is_constant():
                        collect(logish, scale * value.constant_value())
                        return
            raise ParseError("log may only be scaled by rational constants")
        if isinstance(n, BinOp) and n.op == "/" and not _contains(n.right, Log):
            value = to_rational(n.right, variables)
            if value.is_constant() and value.constant_value() != 0:
                collect(n.left, scale / value.constant_value())
                return
            raise ParseError("log may only be divided by nonzero constants")
        raise ParseError("log terms must enter linearly, as c*log(f)")

    collect(node, Fraction(1))
    merged: dict[RationalFunction, Fraction] = {}
    order: list[RationalFunction] = []
    for coeff, argument in logs:
        if argument not in merged:
            merged[argument] = Fraction(0)
            order.append(argument)
        merged[argument] += coeff
    return LogIntegral(rational, [(merged[a], a) for a in order if merged[a] != 0])


# ---------------------------------------------------------------------------
# system files
# ---------------------------------------------------------------------------


class SystemSpec(Record):
    """Fully resolved content of a system file."""

    __slots__ = ("name", "variables", "v", "u", "w", "integrals", "multiplier_hint")
    _defaults = (None, None, (), None)
    name: str
    variables: tuple[str, str, str]
    v: tuple[RationalFunction, RationalFunction, RationalFunction]
    u: Optional[tuple[RationalFunction, RationalFunction, RationalFunction]]
    w: Optional[tuple[RationalFunction, RationalFunction, RationalFunction]]
    integrals: tuple[tuple[str, LogIntegral], ...]
    multiplier_hint: Optional[RationalFunction]

    def integral(self, name: str) -> LogIntegral:
        for key, value in self.integrals:
            if key == name:
                return value
        raise KeyError(name)


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _parse_value(text: str, variables, line_no: int, column: int, allow_log: bool = False):
    """The value of one expression of a system file, whose first character
    sits at (line_no, column)."""
    node = parse_expr(text, variables, allow_log, line_no, column)
    if not allow_log:
        value = to_rational(node, variables)
        rationals, constants = (value,), ()
    else:
        value = to_log_integral(node, variables)
        rationals = (value.rational_part, *(a for _, a in value.log_terms))
        constants = (x for c, _ in value.log_terms for x in (c.numerator, c.denominator))
    limit = sys.get_int_max_str_digits()
    widest = max(*map(widest_printed_integer, rationals), *map(abs, constants), 0)
    # an integer below 2^(3 limit) < 10^limit has at most limit digits
    if limit and widest.bit_length() > 3 * limit and widest >= 10 ** limit:
        raise ParseError(f"a coefficient exceeds the limit of {limit} digits",
                         line_no, column + len(text) - len(text.lstrip()))
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
        if key.startswith("integral"):
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

    name = raw["name"][1]
    if not name:
        raise ParseError("empty system name", raw["name"][0])

    vars_line, vars_value, _ = raw["variables"]
    names = tuple(part.strip() for part in vars_value.split(","))
    if len(names) != 3 or len(set(names)) != 3 or not all(
        n and (n[0].isalpha() or n[0] == "_") and n.isidentifier() for n in names
    ):
        raise ParseError("variables must be 3 distinct identifiers", vars_line)

    v = _parse_components(raw["v"][1], names, raw["v"][0], raw["v"][2])
    u = _parse_components(raw["u"][1], names, raw["u"][0], raw["u"][2]) if "u" in raw else None
    w = _parse_components(raw["w"][1], names, raw["w"][0], raw["w"][2]) if "w" in raw else None
    multiplier = None
    if "multiplier" in raw:
        m_line, m_value, m_column = raw["multiplier"]
        multiplier = _parse_value(m_value, names, m_line, m_column)
    resolved = tuple(
        (integral_name, _parse_value(value, names, line_no, column, allow_log=True))
        for integral_name, line_no, value, column in integrals
    )
    return SystemSpec(name, names, v, u, w, resolved, multiplier)

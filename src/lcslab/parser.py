"""A small arithmetic-expression language for declaring fields in text/JSON.

Grammar: float literals, identifiers (chart coordinates), ``+ - * /``,
integer powers via ``^``, unary minus, parentheses, and the function set
sqrt, exp, log, sin, cos, atan2.  Errors carry the offending position in the
source string.

Tokens compile straight into nodes of the coefficient DAG of
:mod:`lcslab.dual` as they are read (coordinates, constants, arithmetic and
function nodes), so equal subexpressions of one document are one node.
"""

from __future__ import annotations

import re
from typing import Sequence

from . import dual
from .charts import Chart
from .errors import ParseError, UsageError
from .forms import ScalarField

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)

_FUNCTIONS = {
    "sqrt": (1, dual.sqrt),
    "exp": (1, dual.exp),
    "log": (1, dual.log),
    "sin": (1, dual.sin),
    "cos": (1, dual.cos),
    "atan2": (2, dual.atan2),
}


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:]
            bad = pos + (len(stripped) - len(stripped.lstrip()))
            if bad >= len(text):
                break
            raise ParseError(f"unexpected character {text[bad]!r}", bad, text)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# Parentheses, function calls and unary minuses nest at most this deep: the
# parser recurses once per level, so deeper input is a parse error.  Integer
# exponents are bounded alike: a power's derivative expands into |n| products.
_MAX_NESTING = 100


class _Parser:
    """Compiles as it reads: every production returns a node of the coefficient DAG."""

    def __init__(self, text: str, coords: Sequence[str]):
        self.text = text
        self.coords = coords
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # the factors being parsed: one per nesting level, and the outermost
        self.unknown = None  # the first unknown identifier, as (name, pos): reported once the whole text parses

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos, self.text)
        return self.advance()

    # expr := term (('+'|'-') term)*
    def expr(self) -> dual.Node:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = node + self.term() if val == "+" else node - self.term()
            else:
                return node

    # term := factor (('*'|'/') factor)*
    def term(self) -> dual.Node:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = node * self.factor() if val == "*" else node / self.factor()
            else:
                return node

    # factor := '-' factor | power
    def factor(self) -> dual.Node:
        kind, val, pos = self.peek()
        if self.depth > _MAX_NESTING:
            raise ParseError(f"expression nests deeper than {_MAX_NESTING} levels", pos, self.text)
        self.depth += 1
        if kind == "op" and val == "-":
            self.advance()
            node = -self.factor()
        else:
            node = self.power()
        self.depth -= 1
        return node

    # power := atom ('^' integer)*
    def power(self) -> dual.Node:
        node = self.atom()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "^":
                self.advance()
                node = dual.power(node, self.integer_exponent())
            else:
                return node

    def integer_exponent(self) -> int:
        sign = 1
        kind, val, pos = self.peek()
        start = pos
        if kind == "op" and val == "-":
            self.advance()
            sign = -1
            kind, val, pos = self.peek()
        if kind != "num" or any(c in val for c in ".eE"):
            raise ParseError("exponent must be an integer literal", pos, self.text)
        self.advance()
        digits = val.lstrip("0") or "0"  # compared before int(), which refuses thousands of digits
        if len(digits) > 3 or int(digits) > _MAX_NESTING:
            raise ParseError(f"exponent must be at most {_MAX_NESTING} in magnitude", start, self.text)
        return sign * int(digits)

    def atom(self) -> dual.Node:
        kind, val, pos = self.advance()
        if kind == "num":
            return dual.const(float(val))
        if kind == "name":
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "(":
                if val not in _FUNCTIONS:
                    raise ParseError(f"unknown function {val!r}", pos, self.text)
                arity, fn = _FUNCTIONS[val]
                self.advance()
                args = [self.expr()]
                while self.peek()[:2] == ("op", ","):
                    self.advance()
                    args.append(self.expr())
                self.expect_op(")")
                if len(args) != arity:
                    raise ParseError(
                        f"{val} takes {arity} argument{'s' if arity > 1 else ''}, got {len(args)}",
                        pos,
                        self.text,
                    )
                return fn(*args)
            if val in self.coords:
                return dual.var(self.coords.index(val))
            self.unknown = self.unknown or (val, pos)
            return dual.const(0.0)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("expected a number, name or parenthesised expression", pos, self.text)

    def parse(self) -> dual.Node:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos, self.text)
        if self.unknown is not None:
            name, pos = self.unknown
            raise ParseError(f"unknown identifier {name!r}", pos, self.text)
        return node


def parse_field(expr: str, chart: Chart) -> ScalarField:
    """Parse ``expr`` into a scalar field on ``chart``; its identifiers are the chart's coordinates."""
    if not isinstance(expr, str):
        raise UsageError(f"an expression must be a string, got {expr!r}")
    return ScalarField(chart, _Parser(expr, chart.coords).parse())


def parse_fields(exprs: Sequence[str], chart: Chart) -> list[ScalarField]:
    return [parse_field(e, chart) for e in exprs]

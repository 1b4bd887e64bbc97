"""A small arithmetic-expression language for declaring fields in text/JSON.

Grammar: float literals, identifiers (chart coordinates or named parameters),
``+ - * /``, integer powers via ``^``, unary minus, parentheses, and the
function set sqrt, exp, log, sin, cos, atan2.  Errors carry the offending
position in the source string.

A parsed expression compiles straight into nodes of the coefficient DAG of
:mod:`lcslab.dual` (coordinates, constants, arithmetic and function nodes),
so equal subexpressions of one document are one node.
"""

from __future__ import annotations

import operator
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
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # the factors being parsed: one per nesting level, and the outermost

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
    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                node = ("add" if val == "+" else "sub", node, rhs)
            else:
                return node

    # term := factor (('*'|'/') factor)*
    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.factor()
                node = ("mul" if val == "*" else "div", node, rhs)
            else:
                return node

    # factor := '-' factor | power
    def factor(self):
        kind, val, pos = self.peek()
        if self.depth > _MAX_NESTING:
            raise ParseError(f"expression nests deeper than {_MAX_NESTING} levels", pos, self.text)
        self.depth += 1
        if kind == "op" and val == "-":
            self.advance()
            node = ("neg", self.factor())
        else:
            node = self.power()
        self.depth -= 1
        return node

    # power := atom ('^' integer)*
    def power(self):
        node = self.atom()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "^":
                self.advance()
                node = ("pow", node, self.integer_exponent())
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

    def atom(self):
        kind, val, pos = self.advance()
        if kind == "num":
            return ("const", float(val))
        if kind == "name":
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "(":
                if val not in _FUNCTIONS:
                    raise ParseError(f"unknown function {val!r}", pos, self.text)
                arity, fn = _FUNCTIONS[val]
                self.advance()
                args = [self.expr()]
                while True:
                    k2, v2, p2 = self.peek()
                    if k2 == "op" and v2 == ",":
                        self.advance()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                if len(args) != arity:
                    raise ParseError(
                        f"{val} takes {arity} argument{'s' if arity > 1 else ''}, got {len(args)}",
                        pos,
                        self.text,
                    )
                return ("call", fn, args)
            return ("var", val, pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("expected a number, name or parenthesised expression", pos, self.text)

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos, self.text)
        return node


_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}


def _compile(node, binding) -> dual.Node:
    """The syntax tree as a node of the coefficient DAG, operands left to right.

    Sums, products and powers chain to the left without bound, so that spine
    is walked on an explicit stack; every other edge is a nesting level, and
    the parser bounds those.
    """
    spine = []
    while node[0] in _BINARY or node[0] == "pow":
        spine.append(node)
        node = node[1]
    op = node[0]
    if op == "const":
        out = dual.const(node[1])
    elif op == "var":
        out = binding(node[1], node[2])
    elif op == "neg":
        out = -_compile(node[1], binding)
    else:  # a function call
        out = node[1](*[_compile(a, binding) for a in node[2]])
    for n in reversed(spine):
        out = dual.power(out, n[2]) if n[0] == "pow" else _BINARY[n[0]](out, _compile(n[2], binding))
    return out


def parse_field(expr: str, chart: Chart, params: dict[str, float] | None = None) -> ScalarField:
    """Parse ``expr`` into a scalar field on ``chart``.

    Identifiers resolve to chart coordinates first, then to entries of
    ``params``; anything else is an unknown-identifier parse error.
    """
    if not isinstance(expr, str):
        raise UsageError(f"an expression must be a string, got {expr!r}")
    params = params or {}
    tree = _Parser(expr).parse()

    def binding(name: str, pos: int):
        if name in chart.coords:
            return dual.var(chart.coords.index(name))
        if name in params:
            return dual.const(params[name])
        raise ParseError(f"unknown identifier {name!r}", pos, expr)

    return ScalarField(chart, _compile(tree, binding))


def parse_fields(exprs: Sequence[str], chart: Chart, params=None) -> list[ScalarField]:
    return [parse_field(e, chart, params) for e in exprs]

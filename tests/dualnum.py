"""Dual numbers: the tests' independent oracle for the coefficient DAG's derivatives.

:class:`Dual` is a truncated number ``a + b*eps`` over floats, arrays or
further duals, each lift with a fresh tag so that nested derivatives of one
coordinate do not collide.  The elementary functions here take floats,
arrays and duals, and hand a node of :mod:`lcslab.dual` to that module, so a
closure written with them still traces into nodes.

:func:`interpret` evaluates nodes op by op with these functions, so a
node's value and its dual-number derivatives come from arithmetic that
shares nothing with :class:`lcslab.dual.Tape` or the derivative nodes.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from lcslab import dual

_TAGS = itertools.count(1)


def fresh_tag() -> int:
    return next(_TAGS)


class Dual:
    __slots__ = ("tag", "a", "b")
    # Make numpy defer to our reflected operators instead of building object
    # arrays element by element.
    __array_ufunc__ = None
    __array_priority__ = 1000

    def __init__(self, tag, a, b):
        self.tag = tag
        self.a = a
        self.b = b

    def __repr__(self):
        return f"Dual({self.tag}, {self.a!r}, {self.b!r})"

    # -- helpers ----------------------------------------------------------

    def _order(self, other):
        """Split self/other against the larger of the two tags.

        Returns (tag, va, ea, vb, eb) where e* is None when that operand is
        constant with respect to the winning tag.
        """
        if isinstance(other, Dual):
            if other.tag == self.tag:
                return self.tag, self.a, self.b, other.a, other.b
            if other.tag > self.tag:
                return other.tag, self, None, other.a, other.b
        return self.tag, self.a, self.b, other, None

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        t, va, ea, vb, eb = self._order(other)
        if ea is None:
            return Dual(t, va + vb, eb)
        if eb is None:
            return Dual(t, va + vb, ea)
        return Dual(t, va + vb, ea + eb)

    __radd__ = __add__

    def __sub__(self, other):
        t, va, ea, vb, eb = self._order(other)
        if ea is None:
            return Dual(t, va - vb, -eb)
        if eb is None:
            return Dual(t, va - vb, ea)
        return Dual(t, va - vb, ea - eb)

    def __rsub__(self, other):
        t, va, ea, vb, eb = self._order(other)
        # other - self with the same split
        if ea is None:
            return Dual(t, vb - va, eb)
        if eb is None:
            return Dual(t, vb - va, -ea)
        return Dual(t, vb - va, eb - ea)

    def __mul__(self, other):
        t, va, ea, vb, eb = self._order(other)
        if ea is None:
            return Dual(t, va * vb, va * eb)
        if eb is None:
            return Dual(t, va * vb, ea * vb)
        return Dual(t, va * vb, ea * vb + va * eb)

    __rmul__ = __mul__

    def __truediv__(self, other):
        t, va, ea, vb, eb = self._order(other)
        if eb is None:
            return Dual(t, va / vb, ea / vb)
        if ea is None:
            return Dual(t, va / vb, -(va * eb) / (vb * vb))
        return Dual(t, va / vb, (ea * vb - va * eb) / (vb * vb))

    def __rtruediv__(self, other):
        # other / self; self is Dual
        return Dual(self.tag, other / self.a, -(other * self.b) / (self.a * self.a))

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("Dual powers must be integers; use sqrt/exp/log for the rest")
        if n == 0:
            return 1.0
        if n < 0:
            return 1.0 / (self ** (-n))
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def __neg__(self):
        return Dual(self.tag, -self.a, -self.b)

    def __pos__(self):
        return self


def value(x):
    """Strip every dual layer, leaving the float (or array) payload."""
    while isinstance(x, Dual):
        x = x.a
    return x


def lift(x, tag):
    """Mark ``x`` as the active variable for ``tag`` (seed derivative 1)."""
    return Dual(tag, x, 1.0)


def eps(x, tag):
    """Derivative slot of ``x`` with respect to the lift ``tag`` (0 if absent)."""
    if isinstance(x, Dual) and x.tag == tag:
        return x.b
    return 0.0


def _split(x):
    if isinstance(x, Dual):
        return x.tag, x.a, x.b
    return None, x, None


# -- elementary functions, generic over float / ndarray / Dual / Node -------


def exp(x):
    if isinstance(x, dual.Node):
        return dual.exp(x)
    t, v, e = _split(x)
    if t is None:
        return np.exp(v) if isinstance(v, np.ndarray) else math.exp(v)
    base = exp(v)
    return Dual(t, base, e * base)


def log(x):
    if isinstance(x, dual.Node):
        return dual.log(x)
    t, v, e = _split(x)
    if t is None:
        return np.log(v) if isinstance(v, np.ndarray) else math.log(v)
    base = log(v)
    # ``0.0 * base`` carries log's domain into the derivative, as sqrt's does
    return Dual(t, base, e / v + 0.0 * base)


def sqrt(x):
    if isinstance(x, dual.Node):
        return dual.sqrt(x)
    t, v, e = _split(x)
    if t is None:
        return np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v)
    s = sqrt(v)
    return Dual(t, s, e / (2.0 * s))


def sin(x):
    if isinstance(x, dual.Node):
        return dual.sin(x)
    t, v, e = _split(x)
    if t is None:
        return np.sin(v) if isinstance(v, np.ndarray) else math.sin(v)
    return Dual(t, sin(v), e * cos(v))


def cos(x):
    if isinstance(x, dual.Node):
        return dual.cos(x)
    t, v, e = _split(x)
    if t is None:
        return np.cos(v) if isinstance(v, np.ndarray) else math.cos(v)
    return Dual(t, cos(v), -(e * sin(v)))


def atan2(y, x):
    if isinstance(y, dual.Node) or isinstance(x, dual.Node):
        return dual.atan2(y, x)
    ty = y.tag if isinstance(y, Dual) else 0
    tx = x.tag if isinstance(x, Dual) else 0
    t = max(ty, tx)
    if t == 0:
        if isinstance(y, np.ndarray) or isinstance(x, np.ndarray):
            return np.arctan2(y, x)
        return math.atan2(y, x)
    yv, yd = (y.a, y.b) if ty == t else (y, None)
    xv, xd = (x.a, x.b) if tx == t else (x, None)
    base = atan2(yv, xv)
    den = xv * xv + yv * yv
    if yd is None:
        deriv = -(yv * xd) / den
    elif xd is None:
        deriv = (xv * yd) / den
    else:
        deriv = (xv * yd - yv * xd) / den
    return Dual(t, base, deriv)


def power(x, n: int):
    """``x ** n`` for an integer ``n``: repeated products on dual numbers, ``1 / x ** -n`` below zero."""
    if isinstance(x, (Dual, dual.Node)):
        return x**n
    return x**n if n >= 0 else 1.0 / x ** (-n)


def derivative(fn, x):
    """d/dx of a scalar callable, exact to rounding."""
    tag = fresh_tag()
    return eps(fn(lift(x, tag)), tag)


def partial(fn, coords, i):
    """i-th partial derivative of ``fn`` (which takes a coordinate sequence)."""
    tag = fresh_tag()
    lifted = list(coords)
    lifted[i] = lift(lifted[i], tag)
    return eps(fn(lifted), tag)


# -- the generic interpretation of nodes --------------------------------------

_UNARY = {"neg": operator.neg, "exp": exp, "log": log, "sqrt": sqrt, "sin": sin, "cos": cos}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "atan2": atan2}


def interpret(value, inputs, number=float):
    """``value`` (a node, a number or nested lists of them) with ``inputs[i]`` for coordinate ``i``.

    The inputs may be floats, columns, dual numbers or nodes.  A constant
    is ``number`` of its value: a float by default, so the functions of
    ``math`` compute the constant subexpressions, or a one-point column,
    ``number=lambda c: np.array([c])``, so numpy computes every value.  Each
    node is evaluated once, arguments first, on an explicit stack.  Nodes
    key the values by identity, as in :class:`lcslab.dual.Tape`.
    """
    vals: dict = {}

    def run(root):
        stack = [root]
        while stack:
            n = stack[-1]
            args = n.args
            todo = [a for a in args if a not in vals]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            if n in vals:
                continue
            if n.op == "c":
                vals[n] = number(n.data)
            elif n.op == "x":
                vals[n] = inputs[n.data]
            elif n.op == "pow":
                vals[n] = power(vals[args[0]], n.data)
            elif n.op in _UNARY:
                vals[n] = _UNARY[n.op](vals[args[0]])
            else:
                vals[n] = _BINARY[n.op](vals[args[0]], vals[args[1]])
        return vals[root]

    def walk(v):
        if isinstance(v, (list, tuple)):
            return [walk(e) for e in v]
        return run(v) if isinstance(v, dual.Node) else v

    return walk(value)

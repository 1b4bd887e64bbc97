"""Coefficient expressions: a hash-consed DAG and the evaluation boundary.

Every coefficient is a :class:`Node` of one expression DAG.  Nodes are
interned by structure, so a subexpression that many coefficients share (a
weighted denominator, a second derivative) exists once.  ``node.partial(j)``
is the derivative in coordinate ``j``, another node, built when first asked
for and memoized per (node, coordinate) by the forward-mode rules of dual
numbers, term for term: forward-mode differentiation is symbolic
differentiation with sharing, exact to rounding.  A :class:`Tape` lists the
nodes some roots need, each once, arguments first, and replays them on
point columns; calling a node interprets it generically (on floats,
columns, or nodes, which substitutes them for the coordinates).  Every
replay goes through :func:`tape`, which keeps one tape per root set for as
long as all of its roots live, so a check run again builds no tape.

A closure becomes a node by running once on coordinate nodes
(:func:`trace`).  It must be written with this module's arithmetic and its
``exp``/``log``/``sqrt``/``sin``/``cos``/``atan2``; one that branches on a
value or calls ``math`` cannot run on nodes and is refused, so every
coefficient has a derivative node.

This module is the evaluation boundary: expressions run on point batches
only through :func:`evaluate` and :func:`jet`, the one place numpy's
floating-point warnings are silenced during evaluation.  A point outside an
expression's domain yields a non-finite value; :mod:`lcslab.report` decides
what that means for a check.
"""

from __future__ import annotations

import functools
import math
import operator
import weakref

import numpy as np

from .errors import UsageError

# -- elementary functions, on floats, numpy columns and nodes -----------------


def exp(x):
    if isinstance(x, Node):
        return _node("exp", (x,))
    return np.exp(x) if isinstance(x, np.ndarray) else math.exp(x)


def log(x):
    if isinstance(x, Node):
        return _node("log", (x,))
    return np.log(x) if isinstance(x, np.ndarray) else math.log(x)


def sqrt(x):
    if isinstance(x, Node):
        return _node("sqrt", (x,))
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def sin(x):
    if isinstance(x, Node):
        return _node("sin", (x,))
    return np.sin(x) if isinstance(x, np.ndarray) else math.sin(x)


def cos(x):
    if isinstance(x, Node):
        return _node("cos", (x,))
    return np.cos(x) if isinstance(x, np.ndarray) else math.cos(x)


def atan2(y, x):
    if isinstance(y, Node) or isinstance(x, Node):
        return _binop("atan2", y, x)
    if isinstance(y, np.ndarray) or isinstance(x, np.ndarray):
        return np.arctan2(y, x)
    return math.atan2(y, x)


def power(x, n: int):
    """``x ** n`` for an integer ``n``: a ``pow`` node on a node, ``1 / x ** -n`` below zero on numbers."""
    if isinstance(x, Node):
        return x**n
    return x**n if n >= 0 else 1.0 / x ** (-n)


# --------------------------------------------------------------------------
# the expression DAG

# Interned nodes by structure, held weakly: a node lives as long as a field,
# form or larger node refers to it, and its entry leaves with it.
_NODES: dict = {}


def _forget(ref: weakref.KeyedRef) -> None:
    if _NODES.get(ref.key) is ref:
        del _NODES[ref.key]


class Node:
    """One expression of the chart coordinates, hash-consed.

    Build nodes with :func:`const`, :func:`var`, :func:`trace`, arithmetic
    and the elementary functions of this module.  A node has no truth value
    and no comparisons, so a closure that branches on one is refused by :func:`trace`.
    """

    __slots__ = ("op", "args", "data", "_partials", "__weakref__")
    __array_ufunc__ = None
    __hash__ = object.__hash__

    def __call__(self, point):
        """Generic interpretation on one point, columns or nodes (which substitutes them for the coordinates)."""
        return tape([self]).run(list(point))[0]

    def partial(self, j: int) -> "Node":
        """The derivative in coordinate ``j``, built when first asked for and memoized; ``0.0`` if structurally zero."""
        d = _partial(self, j)
        return _ZERO if d is None else d

    def __add__(self, other):
        return _binop("+", self, other)

    def __sub__(self, other):
        return _binop("-", self, other)

    def __rsub__(self, other):
        return _binop("-", other, self)

    def __mul__(self, other):
        return _binop("*", self, other)

    def __truediv__(self, other):
        return _binop("/", self, other)

    def __rtruediv__(self, other):
        return _binop("/", other, self)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("powers must be integers; use sqrt/exp/log for the rest")
        return _node("pow", (self,), n)

    def __neg__(self):
        return _node("neg", (self,))

    def __pos__(self):
        return self

    def _no_value(self, *_):
        raise TypeError("an expression node has no value to compare or branch on")

    __radd__, __rmul__ = __add__, __mul__
    __bool__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _no_value


def _intern(key, op, args, data) -> Node:
    ref = _NODES.get(key)
    node = None if ref is None else ref()
    if node is None:
        node = object.__new__(Node)
        node.op, node.args, node.data, node._partials = op, args, data, None
        _NODES[key] = weakref.KeyedRef(node, _forget, key)
    return node


def _node(op: str, args: tuple, data=None) -> Node:
    """The interned node ``op(*args)``.

    ``+`` and ``*`` take their arguments in one order (IEEE addition and
    multiplication commute exactly).  Only the bit-exact identities ``x*1``,
    ``x/1`` and ``x-0.0`` fold: ``x+0.0`` changes the sign of a zero, and
    ``0*x`` must carry a non-finite ``x``.
    """
    if op in ("+", "*") and id(args[0]) > id(args[1]):
        args = (args[1], args[0])
    if op in ("*", "/") and args[1] is _ONE or op == "-" and args[1] is _ZERO:
        return args[0]
    if op == "*" and args[0] is _ONE:
        return args[1]
    return _intern((op, data, *map(id, args)), op, args, data)


def const(c) -> Node:
    """The constant ``c``; keyed by its sign too, so ``0.0`` and ``-0.0`` stay distinct."""
    c = float(c)
    return _intern(("c", c, math.copysign(1.0, c)), "c", (), c)


def var(i: int) -> Node:
    """Coordinate ``i``."""
    return _intern(("x", i), "x", (), i)


# held for the life of the module: folding tests them by identity
_ZERO, _ONE, _TWO = const(0.0), const(1.0), const(2.0)


def as_node(x):
    """``x`` as a node when it is a node or a number, else None."""
    if isinstance(x, Node):
        return x
    return const(x) if isinstance(x, (int, float, np.number)) else None


def _binop(op: str, a, b):
    a, b = as_node(a), as_node(b)
    return NotImplemented if a is None or b is None else _node(op, (a, b))


_FIX = "write closures with lcslab.dual's exp/log/sqrt/sin/cos/atan2 and do not branch on values"


def on_coordinates(fn, dim: int):
    """``fn`` called once on the ``dim`` coordinate nodes; a closure that raises there is refused."""
    try:
        return fn([var(i) for i in range(dim)])
    except Exception as err:  # whatever the closure raised, it cannot run on nodes
        raise UsageError(f"closure cannot run on coordinate nodes ({type(err).__name__}: {err}); {_FIX}") from err


def trace(fn, dim: int) -> Node:
    """``fn`` (a number, a node, or a closure over ``dim`` coordinates returning one) as one node.

    A closure runs once, on coordinate nodes.  One that cannot, because it
    branches on a value or calls ``math``, or that returns something other
    than a number or node, is refused with :class:`UsageError`.
    """
    node = as_node(fn)
    if node is not None:
        return node
    value = on_coordinates(fn, dim) if callable(fn) else fn
    node = as_node(value)
    if node is None:
        raise UsageError(f"a coefficient must be a number or node, not {type(value).__name__}; {_FIX}")
    return node


# -- derivatives: the forward-mode rules of dual numbers, term for term; None is a structural zero


def _plus(x, y):
    return y if x is None else x if y is None else x + y


def _minus(x, y):
    return -y if x is None else x if y is None else x - y


def _times(x, y):
    return None if x is None or y is None else x * y


def _partial(n: Node, j: int):
    """The derivative of ``n`` in coordinate ``j``, memoized, or None where it is structurally zero.

    Derivatives are taken on an explicit stack of nodes, arguments first, so
    a DAG of any depth differentiates without recursion: a node's rule
    (:func:`_derive`) applies once its arguments' derivatives are memoized.
    """
    memo = n._partials
    if memo is not None and j in memo:
        return memo[j]
    stack = [n]
    while stack:
        node = stack[-1]
        if node.args:
            a, b = node.args[0], node.args[-1]
            ma, mb = a._partials, b._partials
            if ma is None or j not in ma:
                stack.append(a)
                continue
            if mb is None or j not in mb:
                stack.append(b)
                continue
            d = _derive(node, j, a, b, ma[j], mb[j])
        else:
            d = _ONE if node.op == "x" and node.data == j else None
        if node._partials is None:
            node._partials = {}
        node._partials[j] = d
        stack.pop()
    return d


def _derive(n: Node, j: int, a: Node, b: Node, ea, eb):
    """The derivative in ``j`` of ``n``, of ``a`` (and ``b``) with memoized derivatives ``ea`` (and ``eb``).

    These are the rules of dual numbers, term for term; the tests'
    dual-number oracle applies them to numbers.  A power is differentiated
    as dual numbers compute it, as repeated products (``1 / a ** -n`` below
    zero), by a nested :func:`_partial` that finds ``ea`` memoized.
    """
    if ea is None and eb is None:
        return None
    op = n.op
    if op == "+":
        return _plus(ea, eb)
    if op == "-":
        return _minus(ea, eb)
    if op == "*":
        return _plus(_times(ea, b), _times(a, eb))
    if op == "/":
        return ea / b if eb is None else _minus(_times(ea, b), a * eb) / (b * b)
    if op == "atan2":  # atan2(y, x) with y = a, x = b
        return _minus(_times(ea, b), _times(a, eb)) / (b * b + a * a)
    if op == "pow":
        e = _ONE
        for _ in range(abs(n.data)):
            e = e * a
        return _partial(e if n.data >= 0 else _ONE / e, j)
    if op == "neg":
        return -ea
    if op == "exp":
        return ea * n
    if op == "log":  # ``0.0 * log(a)`` carries log's domain into the derivative
        return ea / a + _ZERO * n
    if op == "sqrt":
        return ea / (_TWO * n)
    if op == "sin":
        return ea * cos(a)
    return -(ea * sin(a))  # cos


# -- replay ------------------------------------------------------------------

_UNARY = {"neg": operator.neg, "exp": exp, "log": log, "sqrt": sqrt, "sin": sin, "cos": cos}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "atan2": atan2}


class Tape:
    """The nodes that ``roots`` need, each once, arguments before their users.

    :meth:`run` evaluates them on coordinate inputs, one step per node.  A
    tape holds no node; :func:`tape` builds the tape of each root set once.
    """

    __slots__ = ("steps", "last", "outputs")

    def __init__(self, roots):
        # keyed by the nodes themselves: their hash is their identity, and the
        # dict holds them, so no two keys ever compare
        pos: dict[Node, int] = {}
        steps: list[tuple] = []  # (code, function or value, first argument, second argument)
        last: list[int] = []  # the step that uses each value last
        push, pop = (stack := []).append, stack.pop
        for root in roots:  # depth first on an explicit stack, arguments left to right
            push(root)
            while stack:
                n = pop()
                if n.__class__ is tuple:  # met again: its arguments have their steps now
                    if len(n) == 3:
                        n, a, b = n
                        ka, kb = pos[a], pos[b]
                    else:  # a unary function or a power
                        n, a = n
                        ka, k = pos[a], len(steps)
                        pos[n] = last[ka] = k
                        last.append(k)
                        steps.append((1, _UNARY.get(n.op) or functools.partial(power, n=n.data), ka, None))
                        continue
                elif n in pos:
                    continue
                elif len(n.args) == 2:  # the common case, kept short
                    a, b = n.args
                    ka, kb = pos.get(a), pos.get(b)
                    if ka is None or kb is None:
                        push((n, a, b))
                        if kb is None:
                            push(b)
                        if ka is None:
                            push(a)
                        continue
                elif n.args:
                    a = n.args[0]
                    push((n, a))
                    if a not in pos:
                        push(a)
                    continue
                else:
                    k = pos[n] = len(steps)
                    last.append(k)
                    steps.append((0, n.data, None, None) if n.op == "c" else (3, None, n.data, None))
                    continue
                k = pos[n] = len(steps)
                last[ka] = last[kb] = k
                last.append(k)
                steps.append((2, _BINARY[n.op], ka, kb))
        self.outputs = [pos[r] for r in roots]
        for k in self.outputs:
            last[k] = len(steps)
        self.steps, self.last = steps, last

    def run(self, inputs) -> list:
        """The roots' values, with ``inputs[i]`` for coordinate ``i``; each intermediate is freed after its last use."""
        vals: list = [None] * len(self.steps)
        last = self.last
        for k, (code, f, a, b) in enumerate(self.steps):
            if code == 2:
                vals[k] = f(vals[a], vals[b])
                if last[b] == k:
                    vals[b] = None
            elif code == 1:
                vals[k] = f(vals[a])
            elif code == 0:
                vals[k] = f
                continue
            else:
                vals[k] = inputs[a]
                continue
            if last[a] == k:
                vals[a] = None
        return [vals[k] for k in self.outputs]


# Tapes by the ids of their roots, with weak references to the roots: the
# first root to die drops its entry, before its id can be reused.
_TAPES: dict = {}


def _drop(ref: weakref.KeyedRef) -> None:
    entry = _TAPES.get(ref.key)
    if entry is not None and any(r is ref for r in entry[1]):
        del _TAPES[ref.key]


def tape(roots) -> Tape:
    """The tape of the nodes ``roots``, built on first use and kept while every root lives."""
    key = tuple(map(id, roots))
    entry = _TAPES.get(key)
    if entry is None:
        entry = _TAPES[key] = Tape(roots), tuple(weakref.KeyedRef(r, _drop, key) for r in roots)
    return entry[0]


# -- the evaluation boundary ---------------------------------------------------


# Points per replay of a tape: a large batch runs in slices, so the hundreds
# of intermediates a Lie derivative keeps alive stay a few megabytes (peak
# RSS of the 4096-point gallery runs: 2048 points would add about 7 MB).
_SLICE = 1024


def _replay(values, points) -> list:
    """Each nested value in ``values`` on an (n, dim) batch, from one tape replayed slice by slice."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    shapes, leaves = zip(*map(_flatten, values))
    roots = [x for xs in leaves for x in xs if isinstance(x, Node)]
    run = tape(roots).run
    # one row per leaf, points last, laid out as a stack of (n,) columns
    outs = [np.empty((len(xs), len(pts))) for xs in leaves]
    with np.errstate(all="ignore"):
        for start in range(0, len(pts), _SLICE):
            got = dict(zip(map(id, roots), run(list(pts[start : start + _SLICE].T))))
            for out, xs in zip(outs, leaves):
                for row, x in zip(out, xs):
                    row[start : start + _SLICE] = got[id(x)] if isinstance(x, Node) else x
    return [out.reshape(*shape, len(pts)).transpose(-1, *range(len(shape))) for out, shape in zip(outs, shapes)]


def _flatten(value) -> tuple[tuple, list]:
    """The shape of nested lists (rectangular, as the first entries show it) and their leaves in order."""
    if not isinstance(value, (list, tuple)):
        return (), [value]
    parts = [_flatten(v) for v in value]
    return (len(value), *(parts[0][0] if parts else ())), [x for _, xs in parts for x in xs]


def evaluate(value, points) -> np.ndarray:
    """``value`` on one point or an (n, dim) batch, points axis first, constants broadcast.

    ``value`` is a node, a number or nested lists of them (a field's
    components, a chart's domain), replayed on the coordinate columns.  A
    point outside an expression's domain yields non-finite entries.
    """
    return _replay([value], points)[0]


def jet(value, points) -> tuple[np.ndarray, np.ndarray]:
    """Value and first derivatives of nested nodes on an (n, dim) batch, from one replay.

    ``value`` holds nodes or numbers in nested lists (the components of a
    vector field or map, the rows of an endomorphism).  Returns the value
    with the points axis first and the derivatives with one more, trailing
    axis over the coordinates: ``D[..., j] = d value / d x_j``.
    """
    dim = np.atleast_2d(np.asarray(points)).shape[1]

    def grads(v):  # memoized derivative nodes: a warm jet interns nothing
        if isinstance(v, (list, tuple)):
            return [grads(e) for e in v]
        ds = [_partial(v, j) if isinstance(v, Node) else None for j in range(dim)]
        return [0.0 if d is None else d for d in ds]

    return tuple(_replay([value, grads(value)], points))

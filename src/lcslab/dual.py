"""Coefficient expressions: a hash-consed DAG and the evaluation boundary.

Every coefficient is a :class:`Node` of one expression DAG.  Nodes are
interned by structure, signs folded (``a + (-b)`` is ``a - b``), so a
subexpression that many coefficients share (a weighted denominator, a second
derivative) exists once.  ``node.partial(j)`` is the derivative in coordinate
``j``, another node, built when first asked for and memoized per (node,
coordinate) by the forward-mode rules of dual numbers, term for term, one
node per mixed partial whatever the order: forward-mode differentiation is
symbolic differentiation with sharing, exact to rounding.  A sum of terms,
such as a coefficient of the exterior operations, is built by :func:`total`
from its first nonzero term, so no sum carries an added zero into the DAG.  A
:class:`Tape` is a register program: the nodes some roots need, each once,
arguments first, constant subtrees folded, each step writing into a register
that is taken again after the last use of its value.  It replays on point
columns into registers allocated once per call, a root straight into its
output row, in slices as wide as its scratch registers fit in a byte budget;
:meth:`Tape.run` runs the same program on nodes, which substitutes them for
the coordinates.  Every tape comes from :func:`tape`, which keeps one per
root set for as long as all of its roots live (a :class:`Kept` table, which
also keeps the derived forms of :mod:`lcslab.forms`), so a check run again
builds no tape.

A closure becomes a node by running once on coordinate nodes
(:func:`trace`).  It must be written with this module's arithmetic and its
``exp``/``log``/``sqrt``/``sin``/``cos``/``atan2``, which build a node from
a node or a number; one that branches on a value or calls ``math`` cannot
run on nodes and is refused, so every coefficient has a derivative node.

This module computes numbers one way only, with numpy's ufuncs on columns.
Expressions run on point batches only through :func:`replay`, which
evaluates every value a check needs on one batch from one tape (with
:func:`grads` for first derivatives; :func:`evaluate` and :func:`jet` are
its one-value forms).  It is the one place numpy's floating-point warnings
are silenced during evaluation; a tape folds its constants under the same
silence, arithmetic on np.float64 scalars and the other functions on
one-point columns, so a folded constant is its replay bit for bit, and a
node's value does not depend on which tape computes it.  A point outside an
expression's domain, or a constant outside a function's, yields a non-finite
value; :mod:`lcslab.report` decides what that means for a check.
"""

from __future__ import annotations

import functools
import math
import operator
import weakref

import numpy as np

from .errors import UsageError

# -- elementary functions: each builds a node, from a node or a number -------


def exp(x) -> Node:
    return _apply("exp", x)


def log(x) -> Node:
    return _apply("log", x)


def sqrt(x) -> Node:
    return _apply("sqrt", x)


def sin(x) -> Node:
    return _apply("sin", x)


def cos(x) -> Node:
    return _apply("cos", x)


def atan2(y, x) -> Node:
    return _apply("atan2", y, x)


def power(x, n: int):
    """``x ** n`` for an integer ``n``: a ``pow`` node on a node; on a column, ``1 / x ** -n`` below zero."""
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

    __slots__ = ("op", "args", "data", "_partials", "_origin", "__weakref__")
    __array_ufunc__ = None
    __hash__ = object.__hash__

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
        node.op, node.args, node.data, node._partials, node._origin = op, args, data, None, None
        _NODES[key] = weakref.KeyedRef(node, _forget, key)
    return node


def _node(op: str, args: tuple, data=None) -> Node:
    """The interned node ``op(*args)``.

    ``+`` and ``*`` take their arguments in one order (IEEE addition and
    multiplication commute exactly).  Only bit-exact identities fold: ``x*1``,
    ``x/1``, ``x-0.0`` and ``-(-x)``, and ``a + (-b)``, ``(-b) + a`` and
    ``a - (-b)`` become ``a - b``, ``a - b`` and ``a + b`` (IEEE 754 subtracts
    by adding the negation).  A negation leaves a product or quotient for those
    rules to absorb, ``(-a)*b`` is ``-(a*b)`` and ``(-a)/(-b)`` is ``a/b``
    (IEEE 754 rounds symmetrically in sign).  ``x+0.0`` changes the sign of a
    zero, and ``0*x`` must carry a non-finite ``x``.
    """
    if op == "neg" and args[0].op == "neg":
        return args[0].args[0]
    if op in ("*", "/") and (args[0].op == "neg" or args[1].op == "neg"):
        a, b = args
        inner = _node(op, (a.args[0] if a.op == "neg" else a, b.args[0] if b.op == "neg" else b))
        return inner if a.op == b.op else _node("neg", (inner,))
    if op in ("+", "-") and args[1].op == "neg":
        return _node("-" if op == "+" else "+", (args[0], args[1].args[0]))
    if op == "+" and args[0].op == "neg":
        return _node("-", (args[1], args[0].args[0]))
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
_NUMBERS = (int, float, np.number)


def as_node(x):
    """``x`` as a node when it is a node or a number, else None."""
    if isinstance(x, Node):
        return x
    return const(x) if isinstance(x, _NUMBERS) else None


def total(terms):
    """The sum of ``(sign, term)`` pairs, left to right from the first term kept; ``0.0`` if none is.

    Zero constants (``_ZERO``, a structurally zero partial, and numbers equal
    to 0.0) are dropped and a leading negative term is negated, so no sum is
    seeded with a zero that stays a replayed step (``x + 0.0`` does not fold).
    A product with a zero factor is kept: its other factor may be non-finite.
    Only ``+``, ``-`` and unary minus are used, on nodes, numbers or fields.
    """
    out = None
    for sign, t in terms:
        if t is _ZERO or isinstance(t, _NUMBERS) and t == 0.0:
            continue
        if out is None:
            out = t if sign > 0 else -t
        else:
            out = out + t if sign > 0 else out - t
    return 0.0 if out is None else out


def _binop(op: str, a, b):
    a, b = as_node(a), as_node(b)
    return NotImplemented if a is None or b is None else _node(op, (a, b))


def _apply(op: str, *args) -> Node:
    """The node of the elementary function ``op`` on nodes or numbers."""
    nodes = tuple(map(as_node, args))
    if any(a is None for a in nodes):
        raise TypeError(f"{op} takes nodes or numbers, not {', '.join(type(a).__name__ for a in args)}")
    return _node(op, nodes)


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


_PENDING = object()  # a derivative not yet taken


def _known(n: Node, j: int):
    return _PENDING if n._partials is None else n._partials.get(j, _PENDING)


def _partial(n: Node, j: int):
    """The derivative of ``n`` in coordinate ``j``, memoized, or None where it is structurally zero.

    Derivatives are taken on an explicit stack of (node, coordinate) pairs,
    so a DAG of any depth differentiates without recursion.  A derivative
    node with no derivatives of its own records its origin ``(f, i)``, ``f``
    held weakly, and its derivative in ``j < i`` is taken as ``d_i (d_j f)``,
    so a mixed partial is one node.  Other nodes apply their rule
    (:func:`_derive`) once their arguments' derivatives are memoized, as do
    all nodes of a call that meets a pair in progress (a cycle of origins).
    """
    memo = n._partials
    if memo is not None and j in memo:
        return memo[j]
    stack, busy, plain = [(n, j)], set(), False  # busy: the pairs taken through their origins
    while stack:
        node, k = stack[-1]
        d, origin = _PENDING, node._origin
        f = None if plain or origin is None or k >= origin[1] else origin[0]()
        if f is not None:  # node is d_i f, so its derivative is d_i (d_k f), once d_k f is known
            busy.add((id(node), k))
            want, d = (f, k), _known(f, k)
            if d is not _PENDING and d is not None:
                want, d = (d, origin[1]), _known(d, origin[1])
        elif node.args:
            a, b = node.args[0], node.args[-1]
            ma, mb = a._partials, b._partials
            ea = _PENDING if ma is None else ma.get(k, _PENDING)
            eb = _PENDING if mb is None else mb.get(k, _PENDING)
            if ea is _PENDING or eb is _PENDING:
                want = (a, k) if ea is _PENDING else (b, k)
            else:
                d = _derive(node, a, b, ea, eb)
        else:
            d = _ONE if node.op == "x" and node.data == k else None
        if d is _PENDING:
            if want[0]._origin is not None and (id(want[0]), want[1]) in busy:  # a cycle: start again, by rules only
                stack, busy, plain = [(n, j)], set(), True
            else:
                stack.append(want)
            continue
        if node._partials is None:
            node._partials = {}
        node._partials[k] = d
        if k and d is not None and d.args and d._partials is None and d._origin is None:  # d_0 needs no origin
            d._origin = (weakref.ref(node), k)
        stack.pop()
    return d


def _derive(n: Node, a: Node, b: Node, ea, eb):
    """The derivative of ``n``, of ``a`` (and ``b``) with memoized derivatives ``ea`` (and ``eb``) in one coordinate.

    These are the rules of dual numbers, term for term; the tests'
    dual-number oracle applies them to numbers.  A power is differentiated
    as dual numbers compute it, as repeated products (``1 / a ** -n`` below
    zero), by the product and quotient rules.
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
        e, de = a, ea
        for _ in range(abs(n.data) - 1):
            e, de = e * a, de * a + e * ea
        return None if n.data == 0 else de if n.data > 0 else -de / (e * e)
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
# a sum of nodes drops a zero constant, as total does, so substituting 0 for a coordinate adds no step
_BINARY = {"+": lambda a, b: total([(1, a), (1, b)]), "-": lambda a, b: total([(1, a), (-1, b)])}
_BINARY.update({"*": operator.mul, "/": operator.truediv, "atan2": atan2})
# the same operations as ufuncs on float columns, each writing into the array passed after its arguments
_UFUNCS = {
    "neg": np.negative, "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "sin": np.sin, "cos": np.cos,
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "atan2": np.arctan2,
}
_OPS = {op: (_UFUNCS[op], f) for op, f in {**_UNARY, **_BINARY}.items()}

# Scratch bytes per replay of a tape: a batch runs in slices as wide as the
# tape's scratch registers fit in this budget, so the hundreds of registers a
# Lie derivative keeps live stay a few megabytes (hopf(4)'s certificate uses
# 332, in slices of at most 1,579 points), and a small tape replays a large
# batch in one slice, where a ufunc call costs its arithmetic, not its dispatch.
_SCRATCH_BYTES = 4 << 20

# the ufuncs that compute their IEEE operation on np.float64 scalars as on columns, bit for bit
_SCALAR = {np.add, np.subtract, np.multiply, np.divide, np.negative}


def _fold(u, f, *args) -> float:
    """The step (ufunc ``u``, function ``f``) on constants, as a replay computes it on one point.

    Arithmetic runs on np.float64 scalars, the other functions on one-point columns.
    """
    if u in _SCALAR:
        return float(u(np.float64(args[0]), *args[1:]))
    return float((u or f)(*[np.array([a]) for a in args])[0])


class Tape:
    """The nodes that ``roots`` need, each once, arguments before their users, as a register program.

    A step ``[ufunc, function, a, b, out]`` reads the slots ``a`` and ``b``
    (``b`` is None for one argument) and writes the slot ``out``: the ufunc
    on columns, the function on nodes (a power's function serves both).
    Slots from 0 are registers, and register ``i`` holds root ``i`` at the
    end; a register is taken again once the value it held has had its last
    use.  Negative slots hold constants and coordinates.  Subtrees of
    constants are folded as the tape is built (:func:`_fold`), bit for bit
    as a replay computes them, and a constant root takes no step.  A tape
    holds no node; :func:`tape` builds the tape of each root set once.
    """

    __slots__ = ("program", "registers", "roots", "tail", "coords", "constants")

    def __init__(self, roots):
        # keyed by the nodes themselves: their hash is their identity, and the
        # dict holds them, so no two keys ever compare
        pos: dict[Node, int] = {}  # a step's index, or the negative slot of a constant or coordinate
        steps: list[list] = []  # [ufunc, function, first argument, second argument or None, register]
        tail: list = []  # slots -1, -2, ...: a constant, or None for a coordinate
        self.coords = []  # (slot, coordinate index)

        def constant(n, value):  # a constant node, or a folded subtree of constants
            pos[n] = ~len(tail)
            tail.append(value)

        push, pop, emit = (stack := []).append, stack.pop, steps.append
        with np.errstate(all="ignore"):  # a fold outside its domain gives the nan or inf a replay gives
            for root in roots:  # depth first on an explicit stack, arguments left to right
                push(root)
                while stack:
                    n = pop()
                    if n in pos:
                        continue
                    args = n.args
                    if len(args) == 2:  # the common case, kept short
                        a, b = args
                        ka, kb = pos.get(a), pos.get(b)
                        if ka is None or kb is None:  # met again once its arguments have their slots
                            push(n)
                            if kb is None:
                                push(b)
                            if ka is None:
                                push(a)
                            continue
                        u, f = _OPS[n.op]
                        if ka < 0 and kb < 0 and tail[~ka] is not None and tail[~kb] is not None:
                            constant(n, _fold(u, f, tail[~ka], tail[~kb]))
                        else:
                            pos[n] = len(steps)
                            emit([u, f, ka, kb, None])
                    elif args:  # a unary function or a power
                        a = args[0]
                        ka = pos.get(a)
                        if ka is None:
                            push(n)
                            push(a)
                            continue
                        u, f = _OPS.get(n.op) or (None, functools.partial(power, n=n.data))
                        if ka < 0 and tail[~ka] is not None:
                            constant(n, _fold(u, f, tail[~ka]))
                        else:
                            pos[n] = len(steps)
                            emit([u, f, ka, None, None])
                    elif n.op == "c":
                        constant(n, n.data)
                    else:
                        pos[n] = ~len(tail)
                        self.coords.append((pos[n], n.data))
                        tail.append(None)
        self.tail = tail[::-1]  # as the end of a list of slots, so slot -1 is its last entry
        # Root i goes to register i: its step writes there, a constant is filled
        # in as a number's row is, and a coordinate or an earlier root is copied.
        self.constants = {}  # root: its value, constant or folded
        for i, root in enumerate(roots):
            k = pos[root]
            if k < 0 and tail[~k] is not None:
                self.constants[i] = tail[~k]
            elif k >= 0 and steps[k][4] is None:
                steps[k][4] = i
            else:
                emit([np.positive, operator.pos, k, None, i])
        # The other registers, from the last step back: there the first use of
        # a value met is its last, which takes a free register for it, and the
        # value's own step frees that register again.
        registers = self.roots = len(roots)
        free: list[int] = []
        for step in reversed(steps):
            free.append(step[4])
            a, b = step[2], step[3]
            if a >= 0:
                arg = steps[a]
                if arg[4] is None:
                    arg[4] = free.pop()
                step[2] = arg[4]
            if b is not None and b >= 0:
                arg = steps[b]
                if arg[4] is None:
                    if free:
                        arg[4] = free.pop()
                    else:
                        arg[4], registers = registers, registers + 1
                step[3] = arg[4]
        self.program, self.registers = steps, registers

    def run(self, nodes) -> list:
        """The roots with the node ``nodes[i]`` substituted for coordinate ``i``; a constant root stays a number."""
        slots = [self.constants.get(i) for i in range(self.registers)] + self.tail
        for k, i in self.coords:
            slots[k] = nodes[i]
        for _, f, a, b, out in self.program:
            slots[out] = f(slots[a]) if b is None else f(slots[a], slots[b])
        return slots[: self.roots]

    def replay(self, points: np.ndarray, rows) -> None:
        """The roots' values on the (n, dim) ``points``, each written into its (n,) row of ``rows``.

        The registers are allocated once, a root's being its own row, and the
        points run in slices as wide as the scratch registers fit in
        ``_SCRATCH_BYTES``.  Each step writes into its register with its
        ufunc; a power, which has none, assigns what its function computes
        on the column.
        """
        n, roots = len(points), self.roots
        width = max(1, min(n, _SCRATCH_BYTES // (8 * max(1, self.registers - roots))))
        scratch = [np.empty(width) for _ in range(self.registers - roots)]
        for i, c in self.constants.items():
            rows[i][:] = c
        slots = [None] * roots + scratch + self.tail
        for start in range(0, n, width):
            stop = min(start + width, n)
            if stop - start < width:  # a last, shorter slice
                slots[roots : self.registers] = [r[: stop - start] for r in scratch]
            slots[:roots] = [row[start:stop] for row in rows]
            cols = points[start:stop].T
            for k, i in self.coords:
                slots[k] = cols[i]
            for u, f, a, b, out in self.program:
                if b is not None:
                    u(slots[a], slots[b], slots[out])
                elif u is not None:
                    u(slots[a], slots[out])
                else:  # a power
                    slots[out][:] = f(slots[a])


class Kept(dict):
    """Values by the ids of the objects they derive from, each kept while every one of those objects lives.

    An entry holds one weak reference per object; the first of them to die
    drops the entry, before its id can be reused.
    """

    __slots__ = ()

    def keep(self, key, objects, build, *args):
        """The value at ``key``, ``build(*args)`` on first use, kept while every one of ``objects`` lives."""
        entry = self.get(key)
        if entry is None:
            entry = self[key] = build(*args), tuple(weakref.KeyedRef(x, self._drop, key) for x in objects)
        return entry[0]

    def _drop(self, ref: weakref.KeyedRef) -> None:
        entry = self.get(ref.key)
        if entry is not None and any(r is ref for r in entry[1]):
            del self[ref.key]


# Tapes by the ids of their roots.
_TAPES = Kept()


def tape(roots) -> Tape:
    """The tape of the nodes ``roots``, built on first use and kept while every root lives."""
    return _TAPES.keep(tuple(map(id, roots)), roots, Tape, roots)


# -- the evaluation boundary ---------------------------------------------------


def replay(values, points) -> list:
    """Each nested value in ``values`` on an (n, dim) batch, points axis first, from one replay of one tape.

    Each value is laid out as for :func:`evaluate`.  Numbers fill their rows
    directly; values that hold no node look up no tape.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    shapes, leaves = zip(*map(_flatten, values))
    # one row per leaf, points last, laid out as a stack of (n,) columns
    outs = [np.empty((len(xs), len(pts))) for xs in leaves]
    roots, rows = [], []
    for out, xs in zip(outs, leaves):
        for row, x in zip(out, xs):
            if isinstance(x, Node):
                roots.append(x)
                rows.append(row)
            else:
                row[:] = x
    if roots:
        with np.errstate(all="ignore"):
            tape(roots).replay(pts, rows)
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
    return replay([value], points)[0]


def grads(value, dim: int):
    """The first derivatives of nested nodes in ``dim`` coordinates, as nested nodes with one more, trailing level.

    The derivative nodes are memoized, so a warm call interns nothing; a
    number, or a structurally zero derivative, is ``0.0``.
    """
    if isinstance(value, (list, tuple)):
        return [grads(v, dim) for v in value]
    ds = [_partial(value, j) if isinstance(value, Node) else None for j in range(dim)]
    return [0.0 if d is None else d for d in ds]


def jet(value, points) -> tuple[np.ndarray, np.ndarray]:
    """Value and first derivatives of nested nodes on an (n, dim) batch, from one replay.

    ``value`` holds nodes or numbers in nested lists (the components of a
    vector field or map, the rows of an endomorphism).  Returns the value
    with the points axis first and the derivatives with one more, trailing
    axis over the coordinates: ``D[..., j] = d value / d x_j``.
    """
    return tuple(replay([value, grads(value, np.atleast_2d(np.asarray(points)).shape[1])], points))

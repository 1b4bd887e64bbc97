"""Forward-mode dual numbers with tagged nesting.

Every differentiation in this package goes through :class:`Dual`: a truncated
number ``a + b*eps`` whose components may be floats, numpy arrays (for batched
point evaluation) or further ``Dual`` values (for higher derivatives).  Each
lift carries a fresh integer tag so that nested derivatives of the same
coordinate do not collide ("perturbation confusion"); arithmetic always aligns
on the highest tag and treats lower-tagged values as constants for it.

Derivatives obtained this way are algebraic, not finite differences: the only
error is ordinary floating-point rounding.

This module is also the package's evaluation boundary: closures run on point
batches only through :func:`evaluate` and :func:`jet`, the one place numpy's
floating-point warnings are silenced during evaluation.  A point outside an
expression's domain yields a non-finite value; :mod:`lcslab.report` decides
what that means for a check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

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


# -- elementary functions, generic over float / ndarray / Dual -------------


def exp(x):
    t, v, e = _split(x)
    if t is None:
        return np.exp(v) if isinstance(v, np.ndarray) else math.exp(v)
    base = exp(v)
    return Dual(t, base, e * base)


def log(x):
    t, v, e = _split(x)
    if t is None:
        return np.log(v) if isinstance(v, np.ndarray) else math.log(v)
    base = log(v)
    # ``0.0 * base`` carries log's domain into the derivative, as sqrt's does
    return Dual(t, base, e / v + 0.0 * base)


def sqrt(x):
    t, v, e = _split(x)
    if t is None:
        return np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v)
    s = sqrt(v)
    return Dual(t, s, e / (2.0 * s))


def sin(x):
    t, v, e = _split(x)
    if t is None:
        return np.sin(v) if isinstance(v, np.ndarray) else math.sin(v)
    return Dual(t, sin(v), e * cos(v))


def cos(x):
    t, v, e = _split(x)
    if t is None:
        return np.cos(v) if isinstance(v, np.ndarray) else math.cos(v)
    return Dual(t, cos(v), -(e * sin(v)))


def atan2(y, x):
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


def point_array(value, n: int, leaf=None) -> np.ndarray:
    """Nested lists of scalars or (n,) columns as one array, points axis first.

    ``leaf``, when given, maps each scalar first (to strip or read a dual layer).
    """

    def stack(v):
        if isinstance(v, (list, tuple)):
            return np.stack([stack(e) for e in v])
        a = np.asarray(v if leaf is None else leaf(v), dtype=float)
        return a if a.shape == (n,) else np.broadcast_to(a, (n,))

    return np.moveaxis(stack(value), -1, 0)


def evaluate(fn, points) -> np.ndarray:
    """``fn`` on one point or an (n, dim) batch, points axis first, constants broadcast.

    ``fn`` maps coordinate columns to a scalar or nested lists of scalars and
    is called once; a point outside its domain yields non-finite entries.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    with np.errstate(all="ignore"):
        return point_array(fn(list(pts.T)), len(pts))


def jet(fn, points) -> tuple[np.ndarray, np.ndarray]:
    """Value and first derivatives of ``fn`` on an (n, dim) batch, one lift per coordinate.

    ``fn`` maps coordinate columns to nested lists of scalars (the components
    of a vector field or map, the rows of an endomorphism).  Returns the value
    with the points axis first and the derivatives with one more, trailing
    axis over the coordinates: ``D[..., j] = d value / d x_j``.  Evaluation
    runs with numpy's floating-point warnings silenced; a point outside the
    domain yields non-finite entries.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    cols = list(pts.T)
    val, grads = None, []
    with np.errstate(all="ignore"):
        for j in range(len(cols)):
            tag = fresh_tag()
            lifted = list(cols)
            lifted[j] = lift(cols[j], tag)
            out = fn(lifted)
            if val is None:
                val = point_array(out, len(pts), value)
            grads.append(point_array(out, len(pts), lambda v: eps(v, tag)))
    return val, np.stack(grads, axis=-1)

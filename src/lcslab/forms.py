"""Scalar/vector fields, differential forms, smooth maps and the exterior ops.

Representation choices:

* a :class:`ScalarField` is one node of the coefficient DAG of
  :mod:`lcslab.dual`, a :class:`DifferentialForm` one node per coefficient
  on strictly increasing index tuples, and a :class:`VectorField` or
  :class:`SmoothMap` one node per component.  Constructors make their nodes
  at one boundary (:func:`_on_chart`), where a closure over the coordinate
  tuple, written with the generic arithmetic of that module, is traced
  once; ``form.coefficient(I)`` is the :class:`ScalarField` view;
* the exterior operations (wedge, ``d``, interior product, the Lie
  derivative by its coordinate formula, pullback and composition by
  substitution, contraction) build their coefficients as nodes directly,
  each sum of terms through :func:`lcslab.dual.total`, which starts from
  the first nonzero term; every derivative they take is a memoized
  derivative node, exact to rounding — never finite differences.

Forms of degree larger than the chart dimension are permitted only as
canonical zero forms (no increasing index tuple exists), which is what
``d`` of a top-degree form returns.

``.batch`` evaluates through :func:`lcslab.dual.evaluate`, the one-value form
of the evaluation boundary :func:`lcslab.dual.replay`; this module carries no
floating-point guard of its own.

The exterior operations are memoized on their operands (:func:`derived`):
a derived form lives as long as the forms and fields it derives from, so a
check run again finds its forms, and with them their tapes, already built.
"""

from __future__ import annotations

import functools
import operator
from itertools import combinations
from typing import Sequence

import numpy as np

from . import dual
from .charts import Chart, check_same_chart
from .errors import UsageError

# Derived forms and fields by their operation and the ids of its operands.
_DERIVED = dual.Kept()


def derived(fn):
    """``fn`` memoized on its operands: its value is kept while every operand lives.

    Operands are keyed by identity, a tuple (a direction) by its ``repr``,
    which tells 0.0 from -0.0; the value must hold no operand, or its entry
    would keep that operand alive.
    """

    @functools.wraps(fn)
    def kept(*operands):
        key = (fn, *[repr(x) if type(x) is tuple else id(x) for x in operands])
        return _DERIVED.keep(key, [x for x in operands if type(x) is not tuple], fn, *operands)

    return kept


# --------------------------------------------------------------------------
# scalar fields


class ScalarField:
    """A function of the chart coordinates: one node of the coefficient DAG.

    Built from a node, a number, or a closure over the coordinate sequence
    that uses the generic arithmetic of :mod:`lcslab.dual`; a closure is
    traced once, here, and one that branches on a value or calls ``math``
    is refused (see :func:`lcslab.dual.trace`).
    """

    __slots__ = ("chart", "node", "__weakref__")

    def __init__(self, chart: Chart, fn):
        self.chart = chart
        self.node = dual.trace(fn, chart.dim)

    def batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate on an (n, dim) batch; a point outside the domain gives a non-finite value."""
        return dual.evaluate(self.node, points)

    def partial(self, i: int) -> "ScalarField":
        if not 0 <= i < self.chart.dim:
            raise UsageError(f"partial index {i} out of range for chart {self.chart.name!r}")
        return ScalarField(self.chart, self.node.partial(i))

    # arithmetic --------------------------------------------------------

    def _with(self, other, op, reflected=False):
        if not isinstance(other, (ScalarField, int, float)):
            return NotImplemented
        other = _on_chart(self.chart, other, "scalar fields")
        return ScalarField(self.chart, op(other, self.node) if reflected else op(self.node, other))

    def __add__(self, other):
        return self._with(other, operator.add)

    def __sub__(self, other):
        return self._with(other, operator.sub)

    def __rsub__(self, other):
        return self._with(other, operator.sub, reflected=True)

    def __mul__(self, other):
        return self._with(other, operator.mul)

    def __truediv__(self, other):
        return self._with(other, operator.truediv)

    def __rtruediv__(self, other):
        return self._with(other, operator.truediv, reflected=True)

    @derived  # kept while the field lives, as the forms derived from it are
    def __neg__(self):
        return ScalarField(self.chart, -self.node)

    __radd__, __rmul__ = __add__, __mul__


def constant(chart: Chart, c: float) -> ScalarField:
    return ScalarField(chart, dual.const(c))


def coordinate(chart: Chart, i) -> ScalarField:
    if isinstance(i, str):
        i = chart.index(i)
    return ScalarField(chart, dual.var(i))


def _on_chart(chart: Chart, f, what: str) -> dual.Node:
    """``f`` as a node on ``chart``: a scalar field must live there, the rest goes through :func:`lcslab.dual.trace`."""
    if isinstance(f, ScalarField):
        check_same_chart(chart, f.chart, what)
        return f.node
    return dual.trace(f, chart.dim)


# --------------------------------------------------------------------------
# vector fields


class VectorField:
    __slots__ = ("chart", "components", "__weakref__")

    def __init__(self, chart: Chart, components: Sequence):
        comps = tuple(_on_chart(chart, c, "vector components") for c in components)
        if len(comps) != chart.dim:
            raise UsageError(f"vector field needs {chart.dim} components on chart {chart.name!r}, got {len(comps)}")
        self.chart = chart
        self.components = comps

    def batch(self, points: np.ndarray) -> np.ndarray:
        """The components at every point, shape (n, dim)."""
        return dual.evaluate(self.components, points)

    def __add__(self, other):
        check_same_chart(self.chart, other.chart, "vector fields")
        return VectorField(self.chart, [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        check_same_chart(self.chart, other.chart, "vector fields")
        return VectorField(self.chart, [a - b for a, b in zip(self.components, other.components)])

    def __mul__(self, other):
        other = _on_chart(self.chart, other, "vector field factors")
        return VectorField(self.chart, [c * other for c in self.components])

    __rmul__ = __mul__

    def __neg__(self):
        return VectorField(self.chart, [-c for c in self.components])


def basis_vector(chart: Chart, i: int) -> VectorField:
    return VectorField(chart, [1.0 if j == i else 0.0 for j in range(chart.dim)])


# --------------------------------------------------------------------------
# differential forms


def _merge(I: tuple, J: tuple):
    """Merge two strictly increasing tuples; returns (tuple, sign) or None."""
    if not set(I).isdisjoint(J):
        return None
    # the sign of sorting I + J: one inversion for each i in I above a j in J
    return tuple(sorted(I + J)), (-1) ** sum(i > j for i in I for j in J)


def _insert(j: int, I: tuple):
    """Insert index j into increasing tuple I; returns (tuple, sign)."""
    K = tuple(sorted(I + (j,)))
    t = K.index(j)
    return K, (-1) ** t


class DifferentialForm:
    __slots__ = ("chart", "degree", "coeffs", "__weakref__")

    def __init__(self, chart: Chart, degree: int, coeffs: dict):
        if degree < 0:
            raise UsageError("form degree must be non-negative")
        clean = {}
        for I, f in coeffs.items():
            I = tuple(I)
            if degree == 0:
                if I != ():
                    raise UsageError("0-forms take a single () coefficient")
            else:
                if len(I) != degree or list(I) != sorted(set(I)):
                    raise UsageError(f"coefficient index {I} is not strictly increasing of length {degree}")
                if I and (I[0] < 0 or I[-1] >= chart.dim):
                    raise UsageError(f"coefficient index {I} out of range for chart {chart.name!r}")
            clean[I] = _on_chart(chart, f, "form coefficients")
        if degree > chart.dim and clean:
            raise UsageError("forms of degree above the chart dimension must be zero")
        self.chart = chart
        self.degree = degree
        self.coeffs = clean

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero(chart: Chart, degree: int) -> "DifferentialForm":
        return DifferentialForm(chart, degree, {})

    @staticmethod
    @derived
    def from_scalar(f: ScalarField) -> "DifferentialForm":
        return DifferentialForm(f.chart, 0, {(): f})

    # ---- arithmetic ---------------------------------------------------

    def __add__(self, other):
        check_same_chart(self.chart, other.chart, "forms")
        if self.degree != other.degree:
            raise UsageError("cannot add forms of different degree")
        out = dict(self.coeffs)
        for I, f in other.coeffs.items():
            out[I] = dual.total([(1, out[I]), (1, f)]) if I in out else f
        return DifferentialForm(self.chart, self.degree, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DifferentialForm(self.chart, self.degree, {I: -f for I, f in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float, ScalarField)):
            other = _on_chart(self.chart, other, "form factors")
            return DifferentialForm(self.chart, self.degree, {I: f * other for I, f in self.coeffs.items()})
        return NotImplemented

    __rmul__ = __mul__

    def coefficient(self, I) -> ScalarField:
        return ScalarField(self.chart, self.coeffs.get(tuple(I), 0.0))


# --------------------------------------------------------------------------
# small determinants by cofactor expansion, of nodes or numbers


def det_generic(M):
    n = len(M)
    if n == 0:
        return 1.0
    if n == 1:
        return M[0][0]
    minors = ([row[:j] + row[j + 1 :] for row in M[1:]] for j in range(n))
    return dual.total(((-1) ** j, M[0][j] * det_generic(minor)) for j, minor in enumerate(minors))


# --------------------------------------------------------------------------
# the exterior operations


@derived
def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    check_same_chart(a.chart, b.chart, "wedge factors")
    deg = a.degree + b.degree
    if deg > a.chart.dim:
        return DifferentialForm.zero(a.chart, deg)
    groups: dict[tuple, list] = {}
    for I, f in a.coeffs.items():
        for J, g in b.coeffs.items():
            m = _merge(I, J)
            if m is None:
                continue
            K, sign = m
            groups.setdefault(K, []).append((sign, f * g))
    return DifferentialForm(a.chart, deg, {K: dual.total(terms) for K, terms in groups.items()})


@derived
def exterior_derivative(form: DifferentialForm) -> DifferentialForm:
    chart = form.chart
    deg = form.degree + 1
    if deg > chart.dim:
        return DifferentialForm.zero(chart, deg)
    groups: dict[tuple, list] = {}
    for I, f in form.coeffs.items():
        for j in range(chart.dim):
            if j in I:
                continue
            K, sign = _insert(j, I)
            groups.setdefault(K, []).append((sign, f.partial(j)))
    return DifferentialForm(chart, deg, {K: dual.total(terms) for K, terms in groups.items()})


@derived
def interior_product(X: VectorField, form: DifferentialForm) -> DifferentialForm:
    check_same_chart(X.chart, form.chart, "interior product operands")
    if form.degree == 0:
        raise UsageError("interior product of a 0-form is undefined")
    groups: dict[tuple, list] = {}
    for I, f in form.coeffs.items():
        for t, i in enumerate(I):
            K = I[:t] + I[t + 1 :]
            groups.setdefault(K, []).append(((-1) ** t, X.components[i] * f))
    return DifferentialForm(form.chart, form.degree - 1, {K: dual.total(terms) for K, terms in groups.items()})


@derived
def lie_derivative(X: VectorField, form: DifferentialForm) -> DifferentialForm:
    """``(L_X w)_I = X^k d_k w_I + sum_t sum_k ±w_{I: i_t->k} d_{i_t} X^k``: Cartan's formula, first derivatives only."""
    check_same_chart(X.chart, form.chart, "Lie derivative operands")
    dim, x = form.chart.dim, X.components
    groups: dict[tuple, list] = {}
    for J, w in form.coeffs.items():
        groups.setdefault(J, []).extend((1, x[k] * d) for k in range(dim) if (d := w.partial(k)) is not dual._ZERO)
        for s, a in enumerate(J):  # w_J d_b X^a, with b in slot s of J in place of a
            rest = J[:s] + J[s + 1 :]
            for b in range(dim):
                if b not in rest:
                    I, sign = _insert(b, rest)
                    terms = groups.setdefault(I, [])
                    if (d := x[a].partial(b)) is not dual._ZERO:
                        terms.append((sign * (-1) ** s, w * d))
    return DifferentialForm(form.chart, form.degree, {I: dual.total(terms) for I, terms in groups.items()})


class SmoothMap:
    __slots__ = ("source", "target", "components", "__weakref__")

    def __init__(self, source: Chart, target: Chart, components: Sequence):
        comps = tuple(_on_chart(source, c, "map components") for c in components)
        if len(comps) != target.dim:
            raise UsageError(f"map into chart {target.name!r} needs {target.dim} components, got {len(comps)}")
        self.source = source
        self.target = target
        self.components = comps

    def batch(self, points: np.ndarray) -> np.ndarray:
        """The images of an (n, source dim) batch, shape (n, target dim)."""
        return dual.evaluate(self.components, points)

    def then(self, other: "SmoothMap") -> "SmoothMap":
        """other ∘ self."""
        check_same_chart(self.target, other.source, "composable maps")
        return SmoothMap(self.source, other.target, _substitute(other.components, self))


def _substitute(nodes, m: SmoothMap) -> list:
    """``nodes`` with the components of ``m`` for the coordinates, through their one shared tape."""
    return dual.tape(nodes).run(m.components)


@derived
def pullback(m: SmoothMap, form: DifferentialForm) -> DifferentialForm:
    check_same_chart(m.target, form.chart, "pullback")
    src = m.source
    k = form.degree
    pulled = list(zip(form.coeffs, _substitute(list(form.coeffs.values()), m)))
    jac = [[c.partial(j) for j in range(src.dim)] for c in m.components]
    coeffs = {
        J: dual.total((1, f * det_generic([[jac[i][j] for j in J] for i in I])) for I, f in pulled)
        for J in combinations(range(src.dim), k)
    }
    return DifferentialForm(src, k, coeffs)


@derived
def contract(form: DifferentialForm, *fields: VectorField) -> ScalarField:
    """Full contraction ω(X, Y, ...) as a scalar field."""
    if len(fields) != form.degree:
        raise UsageError("contract needs exactly one vector field per form slot")
    for X in fields:
        check_same_chart(form.chart, X.chart, "contraction operands")
    vals = [X.components for X in fields]
    terms = ((1, f * det_generic([[X[i] for X in vals] for i in I])) for I, f in form.coeffs.items())
    return ScalarField(form.chart, dual.total(terms))

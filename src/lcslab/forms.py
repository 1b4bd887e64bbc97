"""Scalar/vector fields, differential forms, smooth maps and the exterior ops.

Representation choices:

* a :class:`ScalarField` wraps a closure over the coordinate tuple; closures
  must use the generic arithmetic from :mod:`lcslab.dual` so they evaluate on
  floats, batched numpy columns and nested dual numbers alike;
* a :class:`DifferentialForm` of degree k stores coefficients on strictly
  increasing index tuples only;
* every derivative (exterior derivative, Lie bracket, Jacobians for
  pullbacks) is taken by dual-number lifting — never finite differences.

Forms of degree larger than the chart dimension are permitted only as
canonical zero forms (no increasing index tuple exists), which is what
``d`` of a top-degree form returns.

``.batch`` evaluates through :func:`lcslab.dual.evaluate`, the evaluation
boundary; this module carries no floating-point guard of its own.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from . import dual
from .charts import Chart, check_same_chart
from .errors import UsageError


# --------------------------------------------------------------------------
# scalar fields


class ScalarField:
    """A function of the chart coordinates, closed under dual-number lifting."""

    __slots__ = ("chart", "fn")

    def __init__(self, chart: Chart, fn: Callable):
        self.chart = chart
        self.fn = fn

    def __call__(self, point):
        return self.fn(point)

    def at(self, point: Sequence[float]) -> float:
        """Evaluate at a single concrete point."""
        return float(self.fn([float(c) for c in point]))

    def batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate on an (n, dim) batch; a point outside the domain gives a non-finite value."""
        return dual.evaluate(self.fn, points)

    def partial(self, i: int) -> "ScalarField":
        if not 0 <= i < self.chart.dim:
            raise UsageError(f"partial index {i} out of range for chart {self.chart.name!r}")
        fn = self.fn
        return ScalarField(self.chart, lambda p, _fn=fn, _i=i: dual.partial(_fn, p, _i))

    # arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ScalarField):
            check_same_chart(self.chart, other.chart, "scalar fields")
            return other.fn
        if isinstance(other, (int, float)):
            c = float(other)
            return lambda p: c
        return None

    def __add__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        f = self.fn
        return ScalarField(self.chart, lambda p: f(p) + g(p))

    __radd__ = __add__

    def __sub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        f = self.fn
        return ScalarField(self.chart, lambda p: f(p) - g(p))

    def __rsub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        f = self.fn
        return ScalarField(self.chart, lambda p: g(p) - f(p))

    def __mul__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        f = self.fn
        return ScalarField(self.chart, lambda p: f(p) * g(p))

    __rmul__ = __mul__

    def __truediv__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        f = self.fn
        return ScalarField(self.chart, lambda p: f(p) / g(p))

    def __rtruediv__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        f = self.fn
        return ScalarField(self.chart, lambda p: g(p) / f(p))

    def __neg__(self):
        f = self.fn
        return ScalarField(self.chart, lambda p: -f(p))


def constant(chart: Chart, c: float) -> ScalarField:
    c = float(c)
    return ScalarField(chart, lambda p: c)


def coordinate(chart: Chart, i) -> ScalarField:
    if isinstance(i, str):
        i = chart.index(i)
    return ScalarField(chart, lambda p, _i=i: p[_i])


# --------------------------------------------------------------------------
# vector fields


class VectorField:
    __slots__ = ("chart", "components")

    def __init__(self, chart: Chart, components: Sequence):
        comps = []
        for c in components:
            if isinstance(c, ScalarField):
                check_same_chart(chart, c.chart, "vector components")
                comps.append(c)
            else:
                comps.append(constant(chart, c))
        if len(comps) != chart.dim:
            raise UsageError(
                f"vector field needs {chart.dim} components on chart {chart.name!r}, got {len(comps)}"
            )
        self.chart = chart
        self.components = tuple(comps)

    def __call__(self, point):
        return [c(point) for c in self.components]

    def at(self, point: Sequence[float]) -> np.ndarray:
        return np.array([c.at(point) for c in self.components])

    def batch(self, points: np.ndarray) -> np.ndarray:
        """The components at every point, shape (n, dim)."""
        return dual.evaluate(self, points)

    def __add__(self, other):
        check_same_chart(self.chart, other.chart, "vector fields")
        return VectorField(self.chart, [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        check_same_chart(self.chart, other.chart, "vector fields")
        return VectorField(self.chart, [a - b for a, b in zip(self.components, other.components)])

    def __mul__(self, other):
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
    merged = I + J
    seen = set(I)
    for j in J:
        if j in seen:
            return None
    # count inversions taking the concatenation to sorted order
    sign = 1
    arr = list(merged)
    for a in range(len(arr)):
        for b in range(a + 1, len(arr)):
            if arr[a] > arr[b]:
                sign = -sign
    return tuple(sorted(arr)), sign


def _insert(j: int, I: tuple):
    """Insert index j into increasing tuple I; returns (tuple, sign)."""
    K = tuple(sorted(I + (j,)))
    t = K.index(j)
    return K, (-1) ** t


class DifferentialForm:
    __slots__ = ("chart", "degree", "coeffs")

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
            if not isinstance(f, ScalarField):
                f = constant(chart, f)
            else:
                check_same_chart(chart, f.chart, "form coefficients")
            clean[I] = f
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
    def from_scalar(f: ScalarField) -> "DifferentialForm":
        return DifferentialForm(f.chart, 0, {(): f})

    # ---- arithmetic ---------------------------------------------------

    def __add__(self, other):
        check_same_chart(self.chart, other.chart, "forms")
        if self.degree != other.degree:
            raise UsageError("cannot add forms of different degree")
        out = dict(self.coeffs)
        for I, f in other.coeffs.items():
            out[I] = out[I] + f if I in out else f
        return DifferentialForm(self.chart, self.degree, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DifferentialForm(self.chart, self.degree, {I: -f for I, f in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float, ScalarField)):
            return DifferentialForm(self.chart, self.degree, {I: f * other for I, f in self.coeffs.items()})
        return NotImplemented

    __rmul__ = __mul__

    def coefficient(self, I) -> ScalarField:
        I = tuple(I)
        return self.coeffs.get(I, constant(self.chart, 0.0))


# --------------------------------------------------------------------------
# generic small determinants (entries may be duals)


def det_generic(M):
    n = len(M)
    if n == 0:
        return 1.0
    if n == 1:
        return M[0][0]
    if n == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        term = M[0][j] * det_generic(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


# --------------------------------------------------------------------------
# the exterior operations


def eval_form(form: DifferentialForm, point, vectors, check_domain: bool = True):
    """Multilinear evaluation of ``form`` at ``point`` on ``vectors``."""
    if len(vectors) != form.degree:
        raise UsageError(f"degree-{form.degree} form applied to {len(vectors)} vectors")
    if check_domain:
        form.chart.require(point)
    p = [float(c) for c in point]
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    for v in vecs:
        if v.shape != (form.chart.dim,):
            raise UsageError("vector arguments must match the chart dimension")
    if form.degree == 0:
        return float(form.coefficient(())(p))
    total = 0.0
    for I, f in form.coeffs.items():
        M = [[vecs[s][i] for s in range(form.degree)] for i in I]
        total += float(f(p)) * float(det_generic(M))
    return total


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
            groups.setdefault(K, []).append((sign, f, g))
    coeffs = {}
    for K, terms in groups.items():
        def fn(p, _terms=tuple(terms)):
            total = 0.0
            for sign, f, g in _terms:
                prod = f(p) * g(p)
                total = total + prod if sign > 0 else total - prod
            return total
        coeffs[K] = ScalarField(a.chart, fn)
    return DifferentialForm(a.chart, deg, coeffs)


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
    coeffs = {}
    for K, terms in groups.items():
        def fn(p, _terms=tuple(terms)):
            total = 0.0
            for sign, df in _terms:
                v = df(p)
                total = total + v if sign > 0 else total - v
            return total
        coeffs[K] = ScalarField(chart, fn)
    return DifferentialForm(chart, deg, coeffs)


def interior_product(X: VectorField, form: DifferentialForm) -> DifferentialForm:
    check_same_chart(X.chart, form.chart, "interior product operands")
    if form.degree == 0:
        raise UsageError("interior product of a 0-form is undefined")
    groups: dict[tuple, list] = {}
    for I, f in form.coeffs.items():
        for t, i in enumerate(I):
            K = I[:t] + I[t + 1 :]
            groups.setdefault(K, []).append(((-1) ** t, X.components[i], f))
    coeffs = {}
    for K, terms in groups.items():
        def fn(p, _terms=tuple(terms)):
            total = 0.0
            for sign, xc, f in _terms:
                prod = xc(p) * f(p)
                total = total + prod if sign > 0 else total - prod
            return total
        coeffs[K] = ScalarField(form.chart, fn)
    return DifferentialForm(form.chart, form.degree - 1, coeffs)


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    check_same_chart(X.chart, Y.chart, "bracket operands")
    chart = X.chart
    comps = []
    for i in range(chart.dim):
        def fn(p, _i=i, _X=X, _Y=Y):
            total = 0.0
            for j in range(chart.dim):
                xj = _X.components[j](p)
                yj = _Y.components[j](p)
                total = total + xj * dual.partial(_Y.components[_i].fn, p, j)
                total = total - yj * dual.partial(_X.components[_i].fn, p, j)
            return total
        comps.append(ScalarField(chart, fn))
    return VectorField(chart, comps)


def lie_derivative(X: VectorField, form: DifferentialForm) -> DifferentialForm:
    """Cartan's formula  L_X = i_X d + d i_X  (degree 0: just i_X d).

    The symbolic, composable construction (a form that can be wedged,
    differentiated or pulled back further) and the tests' oracle.  Report
    rows evaluate Lie derivatives with
    :func:`lcslab.report.lie_derivative_arrays` instead, whose coordinate
    formula needs only first derivatives, where this nests ``d`` inside
    ``i_X`` and re-derives every coefficient per generator.
    """
    check_same_chart(X.chart, form.chart, "Lie derivative operands")
    term1 = interior_product(X, exterior_derivative(form))
    if form.degree == 0:
        return term1
    return term1 + exterior_derivative(interior_product(X, form))


class SmoothMap:
    __slots__ = ("source", "target", "components")

    def __init__(self, source: Chart, target: Chart, components: Sequence):
        comps = []
        for c in components:
            if isinstance(c, ScalarField):
                check_same_chart(source, c.chart, "map components")
                comps.append(c)
            else:
                comps.append(constant(source, c))
        if len(comps) != target.dim:
            raise UsageError(
                f"map into chart {target.name!r} needs {target.dim} components, got {len(comps)}"
            )
        self.source = source
        self.target = target
        self.components = tuple(comps)

    def __call__(self, point):
        return [c(point) for c in self.components]

    def at(self, point: Sequence[float]) -> np.ndarray:
        return np.array([c.at(point) for c in self.components])

    def batch(self, points: np.ndarray) -> np.ndarray:
        """The images of an (n, source dim) batch, shape (n, target dim)."""
        return dual.evaluate(self, points)

    @staticmethod
    def identity(chart: Chart) -> "SmoothMap":
        return SmoothMap(chart, chart, [coordinate(chart, i) for i in range(chart.dim)])

    def then(self, other: "SmoothMap") -> "SmoothMap":
        """other ∘ self."""
        check_same_chart(self.target, other.source, "composable maps")
        comps = [compose(c, self) for c in other.components]
        return SmoothMap(self.source, other.target, comps)


def compose(f: ScalarField, m: SmoothMap) -> ScalarField:
    check_same_chart(f.chart, m.target, "composition")
    return ScalarField(m.source, lambda p, _f=f.fn, _m=m: _f(_m(p)))


def pullback(m: SmoothMap, form: DifferentialForm) -> DifferentialForm:
    check_same_chart(m.target, form.chart, "pullback")
    src = m.source
    k = form.degree
    if k == 0:
        return DifferentialForm.from_scalar(compose(form.coefficient(()), m))
    if k > src.dim:
        return DifferentialForm.zero(src, k)
    items = tuple(form.coeffs.items())
    comps = m.components
    coeffs = {}
    for J in combinations(range(src.dim), k):
        def fn(p, _J=J, _items=items, _comps=comps):
            img = [c(p) for c in _comps]
            cache = {}
            def dpart(i, j):
                key = (i, j)
                if key not in cache:
                    cache[key] = dual.partial(_comps[i].fn, p, j)
                return cache[key]
            total = 0.0
            for I, f in _items:
                M = [[dpart(i, j) for j in _J] for i in I]
                total = total + f(img) * det_generic(M)
            return total
        coeffs[J] = ScalarField(src, fn)
    return DifferentialForm(src, k, coeffs)


def differential_1form(f: ScalarField) -> DifferentialForm:
    return exterior_derivative(DifferentialForm.from_scalar(f))


def contract(form: DifferentialForm, *fields: VectorField) -> ScalarField:
    """Full contraction ω(X, Y, ...) as a scalar field (dual-liftable)."""
    if len(fields) != form.degree:
        raise UsageError("contract needs exactly one vector field per form slot")
    for X in fields:
        check_same_chart(form.chart, X.chart, "contraction operands")
    items = tuple(form.coeffs.items())
    def fn(p, _items=items, _fields=fields):
        vals = [[c(p) for c in X.components] for X in _fields]
        total = 0.0
        for I, f in _items:
            M = [[vals[s][i] for s in range(len(_fields))] for i in I]
            total = total + f(p) * det_generic(M)
        return total
    return ScalarField(form.chart, fn)

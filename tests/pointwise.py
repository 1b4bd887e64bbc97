"""The tests' reference path: one concrete point at a time, no batches.

``at`` evaluates a scalar field, vector field, smooth map or endomorphism at
one point (a scalar field through :func:`tests.dualnum.interpret` of its node
on Python floats); ``eval_form`` contracts a form with vectors at one point.
Neither goes through a replayed tape.

``lie_derivative_arrays`` is the coordinate formula for Lie derivatives,
with first derivatives from one dual lift per coordinate of the nodes'
interpretation by :mod:`tests.dualnum`: the independent oracle for the
report rows, which replay the same formula built from derivative nodes on
the DAG.  ``cartan_lie_derivative`` builds Cartan's ``i_X d w + d i_X w``
from nodes, second derivatives and all: the oracle of
:func:`lcslab.forms.lie_derivative`, values and coefficient keys alike.

The node-built references for the numpy assemblies of the coupling
checkers live here too: ``coupled_complex_structure`` (``J~`` as a matrix of
nodes), ``base_times`` (``id x g`` as a map of nodes), ``nijenhuis`` (the
torsion of a structure and two fields from their first-order jets) and
``nijenhuis_tensoriality``, as does ``lie_bracket``, the bracket of vector
fields that the tests' identities are stated with.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from itertools import combinations

import numpy as np

from lcslab import dual
from lcslab.charts import Chart, check_same_chart
from lcslab.coupling import (
    CouplingChart,
    EndomorphismField,
    _matmul,
    _nijenhuis_values,
    _require_structure,
    embed_fiber_field,
)
from lcslab.errors import DomainError, UsageError
from lcslab.forms import (
    DifferentialForm,
    ScalarField,
    SmoothMap,
    VectorField,
    constant,
    coordinate,
    det_generic,
    exterior_derivative,
    interior_product,
)
from tests import dualnum


def at(obj, point):
    """``obj`` (a field, map, form coefficient or node) at a single concrete point."""
    if isinstance(obj, ScalarField):
        obj = obj.node
    if isinstance(obj, dual.Node):
        return float(dualnum.interpret(obj, [float(c) for c in point]))
    if isinstance(obj, (VectorField, SmoothMap)):
        return np.array([at(c, point) for c in obj.components])
    if isinstance(obj, EndomorphismField):
        return obj.batch(point)[0]
    raise TypeError(f"no pointwise evaluation for {type(obj).__name__}")


def eval_form(form: DifferentialForm, point, vectors, check_domain: bool = True):
    """Multilinear evaluation of ``form`` at ``point`` on ``vectors``."""
    if len(vectors) != form.degree:
        raise UsageError(f"degree-{form.degree} form applied to {len(vectors)} vectors")
    if check_domain and not form.chart.contains(point):
        raise DomainError(f"point {tuple(point)} is outside the domain of chart {form.chart.name!r}")
    p = [float(c) for c in point]
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    for v in vecs:
        if v.shape != (form.chart.dim,):
            raise UsageError("vector arguments must match the chart dimension")
    if form.degree == 0:
        return at(form.coefficient(()), p)
    total = 0.0
    for I, f in form.coeffs.items():
        M = [[vecs[s][i] for s in range(form.degree)] for i in I]
        total += at(f, p) * float(det_generic(M))
    return total


def point_array(value, n: int, leaf=None) -> np.ndarray:
    """Nested lists of scalars or (n,) columns as one array, points axis first; ``leaf`` maps each scalar first."""

    def stack(v):
        if isinstance(v, (list, tuple)):
            return np.stack([stack(e) for e in v])
        a = np.asarray(v if leaf is None else leaf(v), dtype=float)
        return a if a.shape == (n,) else np.broadcast_to(a, (n,))

    return np.moveaxis(stack(value), -1, 0)


def _lifts(nodes, points):
    """Nested lists of ``nodes`` on an (n, dim) batch, interpreted with one coordinate lifted at a time.

    Yields ``(value, derivative)`` once per coordinate ``j``: the value with
    the points axis first and ``d value / d x_j`` in the same shape.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, cols, val = len(pts), list(pts.T), None
    for j in range(len(cols)):
        tag = dualnum.fresh_tag()
        lifted = list(cols)
        lifted[j] = dualnum.lift(cols[j], tag)
        with np.errstate(all="ignore"):
            out = dualnum.interpret(nodes, lifted)
        if val is None:
            val = point_array(out, n, dualnum.value)
        yield val, point_array(out, n, lambda v: dualnum.eps(v, tag))


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """``[X, Y]^i = 0.0 + sum_j (X^j d_j Y^i - Y^j d_j X^i)`` as nodes, summed left to right."""
    check_same_chart(X.chart, Y.chart, "bracket operands")
    x, y = X.components, Y.components
    comps = []
    for i in range(len(x)):
        total = dual.const(0.0)
        for j in range(len(x)):
            total = total + x[j] * y[i].partial(j) - y[j] * x[i].partial(j)
        comps.append(total)
    return VectorField(X.chart, comps)


def cartan_lie_derivative(X: VectorField, form: DifferentialForm) -> DifferentialForm:
    """Cartan's formula ``L_X = i_X d + d i_X`` (degree 0: ``i_X d``), as nodes."""
    check_same_chart(X.chart, form.chart, "Lie derivative operands")
    term1 = interior_product(X, exterior_derivative(form))
    if form.degree == 0:
        return term1
    return term1 + exterior_derivative(interior_product(X, form))


def lie_derivative_arrays(
    fields: Sequence[VectorField], form: DifferentialForm, points, twist=None
) -> tuple[tuple, np.ndarray]:
    """``L_X form`` for every field ``X`` in ``fields``, shape (#fields, n, #keys).

    Uses the coordinate formula
    ``(L_X w)_I = X^j d_j w_I + sum_s w_{I[s->a]} d_{I_s} X^a``, which needs
    only first derivatives.  Each coordinate ``j`` is lifted once for all of
    ``w``'s coefficients and once for all the fields; ``X^j d_j w`` goes into
    every field's block and the ``w d_j X`` terms follow through a signed
    index table.  Returns ``(keys, values)``: the index tuples of the
    coefficient columns and one block per field.  ``twist``, one (n,) column
    or scalar per field such as ``theta(X)``, makes block ``i`` the twisted
    ``L_X w - twist[i] w`` instead.  A point outside an expression's domain
    yields non-finite entries.
    """
    for X in fields:
        check_same_chart(X.chart, form.chart, "Lie derivative operands")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    keys, cols, terms = _lie_table(form.chart.dim, form.degree, tuple(form.coeffs))
    # accumulated with the points axis last, the axis point_array's results are contiguous along
    out = np.zeros((len(fields), len(keys), len(pts)))
    if form.coeffs and fields:
        coeff_lifts = _lifts(list(form.coeffs.values()), pts)
        field_lifts = _lifts([X.components for X in fields], pts)
        for j, ((w, dw), (x, dx)) in enumerate(zip(coeff_lifts, field_lifts)):
            # points axis last: dw[c] = d_j w_c, x[i, a] = X_i^a, dx[i, a] = d_j X_i^a
            w, dw, x, dx = w.T, dw.T, x.transpose(1, 2, 0), dx.transpose(1, 2, 0)
            with np.errstate(all="ignore"):
                for i in range(len(fields)):
                    out[i, cols] += x[i, j] * dw
                for a, rows, src, sign in terms[j]:
                    out[:, rows] += dx[:, a, None] * (w[src] * sign)
        with np.errstate(all="ignore"):
            for i, c in enumerate(() if twist is None else twist):
                out[i, cols] -= np.asarray(c) * w
    return keys, out.transpose(0, 2, 1)


@functools.cache
def _lie_table(dim: int, degree: int, keys: tuple) -> tuple:
    """The index table of the ``w dX`` terms of ``L_X w`` for a form with coefficients on ``keys``.

    Returns ``(out_keys, cols, terms)``: the output index tuples (``keys``
    and every tuple a term reaches, in increasing order), the output columns
    of ``keys`` (a slice when they are all of them), and for each coordinate
    ``b`` the entries ``(a, rows, src, sign)`` that add
    ``sign * w[:, src] * d_b X^a`` to the output columns ``rows`` (no column
    twice within an entry).
    """
    pos = {K: c for c, K in enumerate(keys)}
    found: dict[tuple, list] = {}
    for I in combinations(range(dim), degree):
        for s in range(degree):
            rest = I[:s] + I[s + 1 :]
            for a in range(dim):
                K = tuple(sorted(rest + (a,)))
                if a not in rest and K in pos:
                    # the sign of moving a from slot s to its place in K
                    found.setdefault((I[s], a), []).append((I, pos[K], (-1.0) ** (s + K.index(a))))
    out_keys = tuple(sorted(set(keys) | {I for entries in found.values() for I, _, _ in entries}))
    col = {I: c for c, I in enumerate(out_keys)}
    terms = [[] for _ in range(dim)]
    for (b, a), e in sorted(found.items()):
        rows, src, sign = zip(*e)
        terms[b].append((a, np.array([col[I] for I in rows]), np.array(src), np.array(sign)[:, None]))
    cols = slice(None) if out_keys == keys else np.array([col[K] for K in keys])
    return out_keys, cols, tuple(map(tuple, terms))


def coupled_complex_structure(
    c: CouplingChart, J_base: EndomorphismField, J_fiber: EndomorphismField
) -> EndomorphismField:
    """The block structure sending lifts to lifts and verticals to verticals, as nodes.

    ``J~ X* = (J_base X)*`` and ``J~ (0,V) = (0, J_fiber V)``.  With ``L`` the
    vertical block of the horizontal lift, ``X* = (X, L X)``, that is
    ``J~ = [[J_base, 0], [L J_base - J_fiber L, J_fiber]]``; column j of
    ``L`` is read from the lift of the j-th base coordinate vector.
    """
    check_same_chart(c.base, J_base.chart, "base structure")
    check_same_chart(c.fiber.chart, J_fiber.chart, "fiber structure")
    m, k = c.base_dim, c.fiber.chart.dim
    L = c.lift_block[m:]
    Jb = J_base.entries  # base coordinates come first: the same nodes on the total chart
    fiber = [dual.var(m + i) for i in range(k)]
    Jf = dualnum.interpret(J_fiber.entries, fiber)
    LJ, JL = _matmul(L, Jb), _matmul(Jf, L)
    rows = [Jb[i] + [0.0] * k for i in range(m)]
    rows += [[a - b for a, b in zip(LJ[i], JL[i])] + Jf[i] for i in range(k)]
    return EndomorphismField(c.total, rows)


def base_times(base: Chart, g: SmoothMap, source: Chart, target: Chart) -> SmoothMap:
    """``id x g`` between product charts over ``base``: base coordinates kept, ``g`` on the fiber ones."""
    comps = [coordinate(source, i) for i in range(base.dim)]
    comps += [embed_fiber_field(source, base, ScalarField(g.source, f)) for f in g.components]
    return SmoothMap(source, target, comps)


def nijenhuis(J: EndomorphismField, X: VectorField, Y: VectorField, points) -> np.ndarray:
    """``N_J(X,Y) = [X,Y] - [JX,JY] + J[JX,Y] + J[X,JY]`` at one point, shape (dim,), or an (n, dim) batch.

    The value comes from the first-order jets of J and of the two fields;
    a J that does not square to -id at some point is refused.
    """
    check_same_chart(J.chart, X.chart, "Nijenhuis arguments")
    check_same_chart(J.chart, Y.chart, "Nijenhuis arguments")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    Jv, dJ = dual.jet(J.entries, pts)
    _require_structure(Jv, pts)
    F, DF = dual.jet([X.components, Y.components], pts)
    out = _nijenhuis_values(Jv, dJ, F[:, 0], DF[:, 0], F[:, 1], DF[:, 1])
    return out[0] if np.ndim(points) == 1 else out


def nijenhuis_tensoriality(J: EndomorphismField, X: VectorField, Y: VectorField, p, seed: int = 0) -> float:
    """Max deviation between N_J on (X, Y) and on perturbed extensions.

    The perturbations vanish at p but have random first derivatives, so
    agreement certifies the value depends only on the tangent vectors there.
    """
    rng = np.random.default_rng(seed)
    base_val = nijenhuis(J, X, Y, p)
    chart = J.chart
    offsets = [coordinate(chart, i) - float(p[i]) for i in range(chart.dim)]

    def perturb(Z: VectorField) -> VectorField:
        B = rng.standard_normal((chart.dim, chart.dim))
        comps = []
        for i, comp in enumerate(Z.components):
            extra = constant(chart, 0.0)
            for j in range(chart.dim):
                extra = extra + float(B[i, j]) * offsets[j]
            comps.append(comp + extra.node)
        return VectorField(chart, comps)

    val = nijenhuis(J, perturb(X), perturb(Y), p)
    return float(np.abs(val - base_val).max())

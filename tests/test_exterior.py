"""Exterior-calculus kernel identities on random polynomial inputs.

Every identity is checked pointwise on sampled points, never symbolically,
so these tests exercise the same code paths the verification reports use.
"""

import itertools
from itertools import combinations

import numpy as np
import pytest

from lcslab.actions import momentum_from_potential, verify_twisted_hamiltonian
from lcslab.charts import Chart
from lcslab.errors import UsageError
from lcslab import dual, forms
from lcslab.forms import (
    DifferentialForm,
    ScalarField,
    SmoothMap,
    VectorField,
    basis_vector,
    contract,
    coordinate,
    exterior_derivative,
    interior_product,
    lie_derivative,
    pullback,
    wedge,
)
from lcslab.gallery import hopf
from lcslab.parser import parse_field
from lcslab.report import (
    finite_points,
    form_max,
    form_residual,
    form_values,
    worst_residual,
)
from tests.pointwise import at, cartan_lie_derivative, eval_form, lie_bracket, lie_derivative_arrays

TIGHT = 1e-10


def rand_poly(chart, rng, terms=3, max_pow=2, scale=2.0):
    parts = []
    for _ in range(terms):
        c = rng.uniform(-scale, scale)
        mono = [f"({c:.6f})"]
        for name in chart.coords:
            k = int(rng.integers(0, max_pow + 1))
            if k:
                mono.append(f"{name}^{k}")
        parts.append(" * ".join(mono))
    return parse_field(" + ".join(parts), chart)


def rand_form(chart, rng, degree, terms=2, scale=2.0):
    coeffs = {}
    for I in combinations(range(chart.dim), degree):
        coeffs[I] = rand_poly(chart, rng, terms=terms, scale=scale)
    return DifferentialForm(chart, degree, coeffs)


def rand_vf(chart, rng, scale=2.0):
    return VectorField(chart, [rand_poly(chart, rng, terms=2, scale=scale) for _ in range(chart.dim)])


def skew_matrix_at(form, p):
    """The skew coefficient matrix of a 2-form at one point, entry by entry through ``.at``."""
    n = form.chart.dim
    M = np.zeros((n, n))
    for (i, j), f in form.coeffs.items():
        M[i, j] = at(f, p)
        M[j, i] = -M[i, j]
    return M


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_d_squared_vanishes(r4, rng, degree):
    pts = r4.sample(48, seed=3)
    for trial in range(4):
        w = rand_form(r4, rng, degree)
        dd = exterior_derivative(exterior_derivative(w))
        assert form_max(dd, pts) < TIGHT


@pytest.mark.parametrize("p, q", [(0, 1), (1, 1), (1, 2), (2, 1)])
def test_graded_leibniz(r4, rng, p, q):
    pts = r4.sample(32, seed=11)
    a = rand_form(r4, rng, p)
    b = rand_form(r4, rng, q)
    left = exterior_derivative(wedge(a, b))
    right = wedge(exterior_derivative(a), b) + (wedge(a, exterior_derivative(b)) * ((-1.0) ** p))
    res, skipped = form_residual(left, right, pts)
    assert skipped == 0
    assert res < TIGHT


def test_wedge_anticommutes_on_one_forms(r4, rng):
    a = rand_form(r4, rng, 1)
    b = rand_form(r4, rng, 1)
    pts = r4.sample(24, seed=5)
    res, _ = form_residual(wedge(a, b), wedge(b, a) * (-1.0), pts)
    assert res < TIGHT
    assert form_max(wedge(a, a), pts) < TIGHT


def test_eval_form_alternates(r4, rng):
    w = rand_form(r4, rng, 2)
    p = (0.3, -0.4, 1.1, 0.2)
    u = rng.standard_normal(4)
    v = rng.standard_normal(4)
    assert eval_form(w, p, [u, v]) == pytest.approx(-eval_form(w, p, [v, u]), rel=1e-12)
    assert eval_form(w, p, [u, u]) == pytest.approx(0.0, abs=1e-12)
    # multilinearity in the first slot
    got = eval_form(w, p, [2.5 * u + v, v])
    assert got == pytest.approx(2.5 * eval_form(w, p, [u, v]), rel=1e-12)


def test_interior_product_antiderivation(r4, rng):
    X = rand_vf(r4, rng)
    a = rand_form(r4, rng, 1)
    b = rand_form(r4, rng, 2)
    pts = r4.sample(24, seed=9)
    left = interior_product(X, wedge(a, b))
    right = wedge(interior_product(X, a), b) + wedge(a, interior_product(X, b)) * (-1.0)
    res, _ = form_residual(left, right, pts)
    assert res < TIGHT


def test_interior_product_squares_to_zero(r4, rng):
    X = rand_vf(r4, rng)
    w = rand_form(r4, rng, 3)
    pts = r4.sample(16, seed=2)
    assert form_max(interior_product(X, interior_product(X, w)), pts) < TIGHT


def test_lie_derivative_against_bracket_expansion(r4, rng):
    """L_X w (Y,Z) = X(w(Y,Z)) - w([X,Y],Z) - w(Y,[X,Z]).

    The implementation uses the coordinate formula on the basis fields, so
    this expansion on arbitrary fields is an independent route to the same tensor.
    """
    X, Y, Z = (rand_vf(r4, rng) for _ in range(3))
    w = rand_form(r4, rng, 2)
    lw = lie_derivative(X, w)
    wYZ = contract(w, Y, Z)
    for p in r4.sample(12, seed=21):
        xw = sum(at(X.components[j], p) * at(wYZ.partial(j), p) for j in range(4))
        expect = (
            xw
            - at(contract(w, lie_bracket(X, Y), Z), p)
            - at(contract(w, Y, lie_bracket(X, Z)), p)
        )
        assert at(contract(lw, Y, Z), p) == pytest.approx(expect, rel=1e-9, abs=1e-9)


def _same_values(got, want):
    np.testing.assert_array_equal(finite_points(got), finite_points(want))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_lie_derivative_matches_cartan(r4, rng, degree):
    """The coordinate formula against Cartan's ``i_X d w + d i_X w`` built from nodes: the same keys and values."""
    pts = r4.sample(40, seed=8)
    for _ in range(3):
        w, X = rand_form(r4, rng, degree), rand_vf(r4, rng)
        got, want = lie_derivative(X, w), cartan_lie_derivative(X, w)
        assert got.degree == want.degree and set(got.coeffs) == set(want.coeffs)
        got, want = form_values(got, pts), form_values(want, pts)
        _same_values(np.column_stack([got[K] for K in want]), np.column_stack(list(want.values())))
    # a form with some keys only: every key of w and its neighbours, none dropped for a zero coefficient
    w = DifferentialForm(r4, 2, {(0, 1): parse_field("a * c", r4)})
    X = basis_vector(r4, 3)
    keys = set(lie_derivative(X, w).coeffs)
    assert keys == set(cartan_lie_derivative(X, w).coeffs) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}


def test_hopf4_lie_derivatives_match_cartan():
    """hopf(4)'s four generators on its omega, potential and Lee form, against Cartan's formula."""
    objects = hopf(4, (1.0, 1.0, 1.0, 1.0)).objects
    s = objects["structure"]
    pts = s.chart.sample(32, seed=4)
    for rho in objects["action"].fields:
        for w in (s.omega, s.potential, s.lee):
            got, want = lie_derivative(rho, w), cartan_lie_derivative(rho, w)
            assert set(got.coeffs) == set(want.coeffs)
            got, want = form_values(got, pts), form_values(want, pts)
            _same_values(np.column_stack([got[K] for K in want]), np.column_stack(list(want.values())))


def _parity(seq) -> int:
    """The sign of the permutation that sorts ``seq``, from its cycles."""
    order, seen, sign = sorted(range(len(seq)), key=seq.__getitem__), set(), 1
    for start in range(len(seq)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i, length = order[i], length + 1
        sign *= -1 if length and length % 2 == 0 else 1
    return sign


def test_merge_signs_every_pair_of_increasing_tuples():
    """``_merge`` against the parity of the sorting permutation, for every pair of increasing tuples up to dimension 6."""
    for dim in range(7):
        tuples = [I for k in range(dim + 1) for I in combinations(range(dim), k)]
        for I, J in itertools.product(tuples, repeat=2):
            if set(I) & set(J):
                assert forms._merge(I, J) is None
            else:
                assert forms._merge(I, J) == (tuple(sorted(I + J)), _parity(I + J))
    assert forms._merge((1, 3), (0, 2)) == ((0, 1, 2, 3), -1)  # three inversions


def cartan_columns(X, w, pts, keys):
    """Cartan's ``L_X w`` from nodes as an (n, #keys) array, zero where it has no column."""
    ref = form_values(cartan_lie_derivative(X, w), pts)
    assert set(ref) <= set(keys)
    return np.column_stack([ref.get(K, np.zeros(len(pts))) for K in keys])


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_batched_lie_derivative_matches_cartan(r4, rng, degree):
    """The coordinate-formula oracle, three fields in one call, against the replayed i_X d + d i_X per field."""
    pts = r4.sample(40, seed=5)
    w = rand_form(r4, rng, degree)
    fields = [rand_vf(r4, rng) for _ in range(3)]
    keys, values = lie_derivative_arrays(fields, w, pts)
    assert values.shape == (3, len(pts), len(keys))
    for X, got in zip(fields, values):
        np.testing.assert_allclose(got, cartan_columns(X, w, pts, keys), rtol=1e-12, atol=1e-12)


def test_batched_twisted_lie_derivative(r4, rng):
    """``twist`` subtracts ``c * w`` from the block of its field only."""
    pts = r4.sample(24, seed=6)
    w = rand_form(r4, rng, 2)
    X = rand_vf(r4, rng)
    c = rand_poly(r4, rng)
    keys, (strict, twisted) = lie_derivative_arrays([X, X], w, pts, twist=[0.0, c.batch(pts)])
    wv = form_values(w, pts)
    expect = strict - c.batch(pts)[:, None] * np.column_stack([wv.get(K, np.zeros(len(pts))) for K in keys])
    np.testing.assert_allclose(twisted, expect, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(strict, cartan_columns(X, w, pts, keys), rtol=1e-12, atol=1e-12)


def test_batched_lie_derivative_skips_like_cartan(r4, rng):
    """A ``sqrt`` coefficient leaves non-finite entries at the same points in the oracle and the replayed Cartan form."""
    pts = r4.sample(64, seed=7)
    w = DifferentialForm(r4, 2, {(0, 1): parse_field("sqrt(a - 0.5) * b", r4), (1, 3): rand_poly(r4, rng)})
    fields = [rand_vf(r4, rng) for _ in range(2)]
    keys, values = lie_derivative_arrays(fields, w, pts)
    for X, got in zip(fields, values):
        ref = cartan_columns(X, w, pts, keys)
        mask = finite_points(got)
        np.testing.assert_array_equal(mask, finite_points(ref))
        assert 0 < mask.sum() < len(pts)
        np.testing.assert_allclose(got[mask], ref[mask], rtol=1e-12, atol=1e-12)


def test_hopf4_lie_rows_match_the_symbolic_path():
    """``invariance[a]`` and ``eta-invariant[a]`` on hopf(4), replayed rows, against the dual-number oracle."""
    objects = hopf(4, (1.0, 1.0, 1.0, 1.0)).objects
    s, act, mu = objects["structure"], objects["action"], objects["momentum"]
    pts = s.chart.sample(16, seed=3)
    ham = verify_twisted_hamiltonian(s, act, mu, points=pts)
    _, hyp = momentum_from_potential(s, act, points=pts)
    for a, rho in enumerate(act.fields):
        for row, form in ((ham[f"invariance[{a}]"], s.omega), (hyp[f"eta-invariant[{a}]"], s.potential)):
            worst, skipped = worst_residual(lie_derivative_arrays([rho], form, pts)[1][0])
            assert row.residual == pytest.approx(worst, abs=1e-15)
            assert (row.details["skipped"], row.details["points"]) == (skipped, len(pts))


def test_lie_bracket_jacobi(r4, rng):
    X, Y, Z = (rand_vf(r4, rng) for _ in range(3))
    s = (
        lie_bracket(X, lie_bracket(Y, Z))
        + lie_bracket(Y, lie_bracket(Z, X))
        + lie_bracket(Z, lie_bracket(X, Y))
    )
    for p in r4.sample(8, seed=13):
        np.testing.assert_allclose(at(s, p), 0.0, atol=1e-9)


def test_pullback_commutes_with_d(plane, r4, rng):
    m = SmoothMap(
        plane,
        r4,
        [
            parse_field("x * y", plane),
            parse_field("x^2 - y", plane),
            parse_field("sin(x)", plane),
            parse_field("y^3", plane),
        ],
    )
    for deg in (0, 1, 2):
        w = rand_form(r4, rng, deg)
        left = pullback(m, exterior_derivative(w))
        right = exterior_derivative(pullback(m, w))
        res, _ = form_residual(left, right, plane.sample(24, seed=4))
        assert res < TIGHT


def test_pullback_respects_wedge(plane, r4, rng):
    m = SmoothMap(
        plane,
        r4,
        [
            parse_field("x + y", plane),
            parse_field("x - y", plane),
            parse_field("x * y", plane),
            parse_field("x^2", plane),
        ],
    )
    a = rand_form(r4, rng, 1)
    b = rand_form(r4, rng, 1)
    left = pullback(m, wedge(a, b))
    right = wedge(pullback(m, a), pullback(m, b))
    res, _ = form_residual(left, right, plane.sample(24, seed=8))
    assert res < TIGHT


def test_pullback_functorial(plane, r3, r4, rng):
    inner = SmoothMap(plane, r3, [parse_field(e, plane) for e in ("x", "y", "x*y")])
    outer = SmoothMap(r3, r4, [parse_field(e, r3) for e in ("x+z", "y", "z^2", "x-y")])
    w = rand_form(r4, rng, 2)
    via_composite = pullback(inner.then(outer), w)
    via_stages = pullback(inner, pullback(outer, w))
    res, _ = form_residual(via_composite, via_stages, plane.sample(20, seed=6))
    assert res < TIGHT


def test_pullback_of_a_function_is_the_function_after_the_map(plane, r3):
    m = SmoothMap(plane, r3, [parse_field(e, plane) for e in ("x * y", "x^2 - y", "sin(x)")])
    f = parse_field("x^2 * z + exp(y) - 3 * z", r3)
    pulled = pullback(m, DifferentialForm.from_scalar(f))
    assert pulled.degree == 0 and pulled.chart is plane
    # the coefficient is the node f∘m itself, with no added zero
    assert pulled.coefficient(()).node is m.then(SmoothMap(r3, Chart("line", ("s",)), [f])).components[0]
    for p in plane.sample(12, seed=5):
        assert at(pulled.coefficient(()), p) == pytest.approx(at(f, at(m, p)), rel=1e-14, abs=1e-14)


def test_a_single_term_coefficient_is_its_term(plane):
    """A coefficient that sums one term is that term's node: ``d(g(y) dx)`` and a one-coefficient contraction."""
    g = parse_field("sin(y) * y", plane)
    dy_dx = exterior_derivative(DifferentialForm(plane, 1, {(0,): g})).coefficient((0, 1)).node
    assert dy_dx.op == "neg" and dy_dx.args[0] is g.node.partial(1)
    f, b = parse_field("exp(x) + y", plane), parse_field("x * y", plane)
    X = VectorField(plane, [parse_field("cos(x)", plane), b])
    assert contract(DifferentialForm(plane, 1, {(1,): f}), X).node is f.node * b.node


def test_pullback_above_the_source_dimension_is_zero(plane, r4, rng):
    m = SmoothMap(plane, r4, [parse_field(e, plane) for e in ("x", "y", "x * y", "x + y")])
    w = rand_form(r4, rng, 3)
    assert w.coeffs  # a nonzero 3-form on r4
    pulled = pullback(m, w)
    assert (pulled.chart, pulled.degree, pulled.coeffs) == (plane, 3, {})


def test_differential_matches_gradient_pairing(r3):
    f = parse_field("x^2 * y + z", r3)
    df = exterior_derivative(DifferentialForm.from_scalar(f))
    p = (1.0, 2.0, -1.0)
    assert eval_form(df, p, [np.array([1.0, 0, 0])]) == pytest.approx(4.0)
    assert eval_form(df, p, [np.array([0, 1.0, 0])]) == pytest.approx(1.0)
    assert eval_form(df, p, [np.array([0, 0, 1.0])]) == pytest.approx(1.0)


def test_top_degree_truncation(plane, rng):
    a = rand_form(plane, rng, 1)
    b = rand_form(plane, rng, 2)
    w = wedge(a, b)
    assert w.degree == 3
    assert not w.coeffs  # above chart dimension: identically zero
    assert exterior_derivative(b).degree == 3
    assert not exterior_derivative(b).coeffs


def test_basis_vector_pairing(r3):
    w = DifferentialForm(r3, 1, {(0,): coordinate(r3, 1), (2,): 4.0})
    p = (0.5, 2.0, 0.0)
    assert at(contract(w, basis_vector(r3, 0)), p) == pytest.approx(2.0)
    assert at(contract(w, basis_vector(r3, 1)), p) == pytest.approx(0.0)
    assert at(contract(w, basis_vector(r3, 2)), p) == pytest.approx(4.0)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda chart, c: VectorField(chart, [c, 0.0, 0.0]).components[0], id="vector"),
        pytest.param(lambda chart, c: SmoothMap(chart, chart, [c, 0.0, 0.0]).components[0], id="map"),
        pytest.param(lambda chart, c: DifferentialForm(chart, 1, {(0,): c}).coeffs[(0,)], id="form"),
    ],
)
def test_a_component_goes_through_the_boundary_a_scalar_field_does(r3, build):
    """A closure is traced and anything else that is no number or node is refused with UsageError, not TypeError."""
    with pytest.raises(UsageError, match="must be a number or node, not object"):
        build(r3, object())
    assert build(r3, lambda p: p[0] * p[2]) is dual.var(0) * dual.var(2)
    assert build(r3, coordinate(r3, 1)) is dual.var(1) and build(r3, 2) is dual.const(2.0)


def test_the_exterior_operations_construct_no_scalar_field(r3, rng, built_fields):
    """Every coefficient they build is a node, stored as it is: no field is wrapped only to be unwrapped."""
    a, b = rand_form(r3, rng, 1), rand_form(r3, rng, 2)
    X, f = rand_vf(r3, rng), rand_poly(r3, rng)
    m = SmoothMap(r3, r3, [coordinate(r3, 1), coordinate(r3, 2) * coordinate(r3, 0), 2.0])
    built_fields.clear()
    for form in (wedge(a, b), exterior_derivative(b), interior_product(X, b), lie_derivative(X, a), pullback(m, b)):
        assert all(isinstance(c, dual.Node) for c in form.coeffs.values())
    assert (a + a).coeffs and (a * f).coeffs and (2.0 * b).coeffs
    assert built_fields == []

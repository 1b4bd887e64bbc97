"""Exterior-calculus kernel identities on random polynomial inputs.

Every identity is checked pointwise on sampled points, never symbolically,
so these tests exercise the same code paths the verification reports use.
"""

from itertools import combinations

import numpy as np
import pytest

from lcslab.charts import Chart
from lcslab.forms import (
    DifferentialForm,
    ScalarField,
    SmoothMap,
    VectorField,
    basis_vector,
    contract,
    coordinate,
    differential_1form,
    eval_form,
    exterior_derivative,
    interior_product,
    lie_bracket,
    lie_derivative,
    pullback,
    wedge,
)
from lcslab.parser import parse_field
from lcslab.report import form_max, form_residual

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
        M[i, j] = f.at(p)
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

    The implementation uses Cartan's formula, so this pointwise expansion is
    an independent route to the same tensor.
    """
    X, Y, Z = (rand_vf(r4, rng) for _ in range(3))
    w = rand_form(r4, rng, 2)
    lw = lie_derivative(X, w)
    wYZ = contract(w, Y, Z)
    for p in r4.sample(12, seed=21):
        xw = sum(X.components[j].at(p) * wYZ.partial(j).at(p) for j in range(4))
        expect = (
            xw
            - contract(w, lie_bracket(X, Y), Z).at(p)
            - contract(w, Y, lie_bracket(X, Z)).at(p)
        )
        assert contract(lw, Y, Z).at(p) == pytest.approx(expect, rel=1e-9, abs=1e-9)


def test_lie_bracket_jacobi(r4, rng):
    X, Y, Z = (rand_vf(r4, rng) for _ in range(3))
    s = (
        lie_bracket(X, lie_bracket(Y, Z))
        + lie_bracket(Y, lie_bracket(Z, X))
        + lie_bracket(Z, lie_bracket(X, Y))
    )
    for p in r4.sample(8, seed=13):
        np.testing.assert_allclose(s.at(p), 0.0, atol=1e-9)


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


def test_differential_matches_gradient_pairing(r3):
    f = parse_field("x^2 * y + z", r3)
    df = differential_1form(f)
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
    assert contract(w, basis_vector(r3, 0)).at(p) == pytest.approx(2.0)
    assert contract(w, basis_vector(r3, 1)).at(p) == pytest.approx(0.0)
    assert contract(w, basis_vector(r3, 2)).at(p) == pytest.approx(4.0)

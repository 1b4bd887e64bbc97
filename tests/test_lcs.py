"""Structure verification: the twisted closedness identity and its tools."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from lcslab.charts import Chart
from lcslab.errors import DegenerateInputError, UsageError
from lcslab.forms import DifferentialForm, constant, coordinate, differential_1form
from lcslab.lcs import (
    LCSStructure,
    Nondegeneracy,
    conformal_rescale,
    exact_lcs,
    nondegeneracy,
    normalized_determinant,
    solve_lee_form,
    twisted_derivative,
    verify_lcs,
)
from lcslab.parser import parse_field
from lcslab.report import form_residual
from tests.test_exterior import skew_matrix_at


@pytest.fixture(scope="module")
def halfspace():
    return Chart(
        "halfspace", ("w1", "w2", "z1", "z2"), ((-1.5, 1.5), (0.5, 3.0), (-1.5, 1.5), (-1.5, 1.5))
    )


@pytest.fixture(scope="module")
def solv_structure(halfspace):
    """The solvmanifold-chart structure with Lee form dw2/w2."""
    w2 = coordinate(halfspace, 1)
    z2 = coordinate(halfspace, 3)
    one = constant(halfspace, 1.0)
    omega = DifferentialForm(
        halfspace,
        2,
        {
            (0, 1): -2.0 * (one + z2 * z2) / (w2 * w2),
            (0, 3): 2.0 * z2 / w2,
            (1, 2): -2.0 * z2 / w2,
            (2, 3): -2.0,
        },
    )
    theta = DifferentialForm(halfspace, 1, {(1,): one / w2})
    return LCSStructure(halfspace, omega, theta, name="solv")


def test_nondegeneracy_frozen_value(solv_structure):
    """det at the reference point, against a hand-written matrix.

    At (0, 1, 0, 0) the only surviving coefficients are -2 dw1^dw2 and
    -2 dz1^dz2; the skew matrix is two 2x2 blocks of determinant 4 each.
    """
    M = np.array(
        [
            [0.0, -2.0, 0.0, 0.0],
            [2.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -2.0],
            [0.0, 0.0, 2.0, 0.0],
        ]
    )
    assert np.linalg.det(M) == pytest.approx(16.0)
    nd = nondegeneracy(solv_structure.omega, (0.0, 1.0, 0.0, 0.0))
    assert nd.determinant == pytest.approx(16.0, rel=1e-12)
    assert float(nd) == nd.determinant


def test_nondegeneracy_is_a_square(r4, rng):
    # skew determinants are Pfaffian squares, hence never negative
    for _ in range(20):
        coeffs = {I: rng.uniform(-3, 3) for I in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]}
        w = DifferentialForm(r4, 2, coeffs)
        assert nondegeneracy(w, (0.0, 0.0, 0.0, 0.0)).determinant >= -1e-12


def test_nondegeneracy_odd_dimension(r3):
    w = DifferentialForm(r3, 2, {(0, 1): 1.0})
    nd = nondegeneracy(w, (0.0, 0.0, 0.0))
    assert nd.determinant == 0.0
    assert "odd" in nd.note


def test_normalized_determinant_scale_free():
    M = np.array([[0.0, 5e3], [-5e3, 0.0]])
    assert normalized_determinant(M) == pytest.approx(1.0)
    assert normalized_determinant(1e-7 * M) == pytest.approx(1.0)
    assert normalized_determinant(np.zeros((2, 2))) == 0.0
    # a stack scores matrix by matrix, with the same numbers as one at a time
    stack = np.stack([M, 1e-7 * M, np.zeros((2, 2)), np.array([[0.0, np.nan], [np.nan, 0.0]])])
    assert list(normalized_determinant(stack)) == [normalized_determinant(A) for A in stack]
    assert list(normalized_determinant(stack)) == pytest.approx([1.0, 1.0, 0.0, 0.0])


@pytest.mark.parametrize("extra", ["0", "sqrt(w1)"])
def test_nondegenerate_row_matches_pointwise_determinants(solv_structure, halfspace, extra):
    """The batched row against one normalized determinant per point, built through ``.at``.

    ``sqrt(w1)`` is undefined on half the box: the oracle's ``math.sqrt``
    raises there, and the row must skip exactly those points.
    """
    omega = solv_structure.omega + DifferentialForm(halfspace, 2, {(0, 2): parse_field(extra, halfspace)})
    pts = halfspace.sample(48, seed=2)
    dets, skipped = [], 0
    for p in pts:
        try:
            dets.append(abs(normalized_determinant(skew_matrix_at(omega, p))))
        except ValueError:
            skipped += 1
    row = verify_lcs(LCSStructure(halfspace, omega, solv_structure.lee), points=pts)["nondegenerate"]
    assert row.details["skipped"] == skipped
    assert row.residual == pytest.approx(min(dets), rel=1e-12)
    assert row.verdict == ("pass" if extra == "0" else "inconclusive")


def test_verify_solv_structure(solv_structure):
    rep = verify_lcs(solv_structure, n=48, seed=0, tol=1e-8)
    assert rep.passed
    assert [c.id for c in rep.checks] == ["lee-closed", "lcs-identity", "nondegenerate"]


def test_verify_flags_broken_identity(r4):
    """A closed nondegenerate 2-form that is *not* conformally closed.

    d(omega) = 0 here while lee ^ omega is visibly nonzero, so exactly the
    identity row must fail.
    """
    a = coordinate(r4, 0)
    one = constant(r4, 1.0)
    omega = DifferentialForm(r4, 2, {(0, 1): one + a * a, (2, 3): 1.0})
    lee = DifferentialForm(r4, 1, {(0,): 1.0})
    rep = verify_lcs(LCSStructure(r4, omega, lee), n=32, seed=1)
    assert not rep.passed
    assert not rep["lcs-identity"].passed
    assert rep["lee-closed"].passed
    assert rep["nondegenerate"].passed


def test_structure_validates_degrees(r4):
    w2 = DifferentialForm(r4, 2, {(0, 1): 1.0, (2, 3): 1.0})
    w1 = DifferentialForm(r4, 1, {(0,): 1.0})
    with pytest.raises(UsageError):
        LCSStructure(r4, w1, w1)
    with pytest.raises(UsageError):
        LCSStructure(r4, w2, w2)
    with pytest.raises(UsageError):
        LCSStructure(r4, w2, w1, potential=w2)


def test_lee_recovery_from_form_alone(solv_structure):
    for p in [(0.0, 1.0, 0.0, 0.0), (0.3, 0.8, -0.4, 0.9), (-0.6, 2.1, 1.1, -0.5)]:
        sol = solve_lee_form(solv_structure.omega, p)
        expected = np.array([0.0, 1.0 / p[1], 0.0, 0.0])
        np.testing.assert_allclose(sol.coefficients, expected, atol=1e-10)
        assert sol.residual < 1e-10


def test_lee_recovery_rejects_degenerate(r4):
    w = DifferentialForm(r4, 2, {(0, 1): 1.0})  # rank 2 only
    with pytest.raises(DegenerateInputError):
        solve_lee_form(w, (0.0, 0.0, 0.0, 0.0))


def test_lee_recovery_dimension_guards(plane, r3):
    w = DifferentialForm(plane, 2, {(0, 1): 1.0})
    with pytest.raises(UsageError, match=">= 4"):
        solve_lee_form(w, (0.0, 0.0))
    w3 = DifferentialForm(r3, 2, {(0, 1): 1.0})
    with pytest.raises(UsageError):
        solve_lee_form(w3, (0.0, 0.0, 0.0))


def test_twisted_derivative_squares_to_zero_for_closed_lee(r4, rng):
    theta = DifferentialForm(r4, 1, {(0,): 1.0, (1,): -0.5})
    from tests.test_exterior import rand_form

    w = rand_form(r4, rng, 1)
    ddw = twisted_derivative(theta, twisted_derivative(theta, w))
    res, _ = form_residual(ddw, DifferentialForm.zero(r4, 3), r4.sample(24, seed=3))
    assert res < 1e-10


def test_twisted_derivative_product_rule(r4, rng):
    from tests.test_exterior import rand_form, rand_poly

    theta = DifferentialForm(r4, 1, {(2,): 1.0})
    f = rand_poly(r4, rng)
    w = rand_form(r4, rng, 1)
    left = twisted_derivative(theta, w * f)
    from lcslab.forms import wedge

    right = wedge(differential_1form(f), w) + twisted_derivative(theta, w) * f
    res, _ = form_residual(left, right, r4.sample(24, seed=7))
    assert res < 1e-10


def test_conformal_rescale_round_trip(solv_structure, halfspace):
    f = parse_field("0.3 * w1 - 0.2 * z2^2", halfspace)
    pts = halfspace.sample(24, seed=5)
    up = conformal_rescale(solv_structure, f)
    back = conformal_rescale(up, -f)
    res, _ = form_residual(back.omega, solv_structure.omega, pts)
    assert res < 1e-10
    res, _ = form_residual(back.lee, solv_structure.lee, pts)
    assert res < 1e-10


def test_conformal_rescale_preserves_identity(solv_structure, halfspace):
    f = parse_field("0.4 * z1 + 0.1 * w1 * z2", halfspace)
    rep = verify_lcs(conformal_rescale(solv_structure, f), n=32, seed=2)
    assert rep.passed


@given(st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=25, deadline=None)
def test_constant_rescale_scales_determinant(c):
    chart = Chart("c4", ("a", "b", "u", "v"))
    omega = DifferentialForm(chart, 2, {(0, 1): 1.0, (2, 3): 1.0})
    lee = DifferentialForm.zero(chart, 1)
    s = conformal_rescale(LCSStructure(chart, omega, lee), constant(chart, c))
    got = nondegeneracy(s.omega, (0.0, 0.0, 0.0, 0.0)).determinant
    assert got == pytest.approx(np.exp(4.0 * c), rel=1e-9)


def test_exact_structure_builds_and_verifies(r4):
    theta = DifferentialForm(r4, 1, {(0,): 1.0})
    b, d = coordinate(r4, 1), coordinate(r4, 3)
    eta = DifferentialForm(r4, 1, {(0,): b, (2,): d})
    s, rep = exact_lcs(theta, eta, n=24, seed=1)
    assert s.potential is eta
    assert rep["lcs-identity"].passed
    assert rep["potential"].passed
    assert rep["lee-closed"].passed


def test_exact_structure_rejects_wrong_degrees(r4):
    theta = DifferentialForm(r4, 1, {(0,): 1.0})
    w = DifferentialForm(r4, 2, {(0, 1): 1.0})
    with pytest.raises(UsageError):
        exact_lcs(theta, w)
    with pytest.raises(UsageError):
        exact_lcs(w, theta)

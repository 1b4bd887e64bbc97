"""Structure verification: the twisted closedness identity and its tools."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from lcslab import dual
from lcslab.charts import Chart
from lcslab.errors import DegenerateInputError, UsageError
from lcslab.forms import DifferentialForm, ScalarField, constant, coordinate, exterior_derivative
from lcslab.gallery import inoue
from lcslab.lcs import (
    LCSStructure,
    _nondegeneracy_scores,
    skew_matrices,
    solve_lee_form,
    twisted_derivative,
    verify_lcs,
)
from lcslab.parser import parse_field
from lcslab.report import evaluate_form, form_residual, pfaffian, triangle
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
    nd = np.linalg.det(skew_matrices(solv_structure.omega, (0.0, 1.0, 0.0, 0.0))[0])
    assert nd == pytest.approx(16.0, rel=1e-12)


def test_nondegeneracy_is_a_square(r4, rng):
    # skew determinants are Pfaffian squares, hence never negative
    for _ in range(20):
        coeffs = {I: rng.uniform(-3, 3) for I in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]}
        w = DifferentialForm(r4, 2, coeffs)
        assert np.linalg.det(skew_matrices(w, (0.0, 0.0, 0.0, 0.0))[0]) >= -1e-12


def test_nondegeneracy_odd_dimension(r3):
    w = DifferentialForm(r3, 2, {(0, 1): 1.0})
    row = verify_lcs(LCSStructure(r3, w, DifferentialForm.zero(r3, 1)), r3.sample(4, seed=0))["nondegenerate"]
    assert row.residual == 0.0 and not row.passed
    assert "odd" in row.details["note"]


def normalized_determinant(M):
    """Determinant of the skew matrix ``M`` after dividing every row by its largest absolute entry.

    The matrix form of the nondegeneracy score, the reference for
    ``lcs._nondegeneracy_scores``, which takes the same steps on a 2-form's
    coefficient columns.  ``M`` is one matrix (returns a float) or a stack of
    shape (..., d, d) (returns an array); a matrix of odd size, with a zero
    row or with a non-finite entry scores 0.  The score is ``Pf(N)**2`` with
    ``N_ij = M_ij / sqrt(s_i s_j)`` and ``s_i`` the row scales.
    """
    M = np.asarray(M, dtype=float)
    d = M.shape[-1]
    if d % 2 == 1:
        out = np.zeros(M.shape[:-2])
    else:
        i, j = triangle(d)
        root = np.moveaxis(np.sqrt(np.abs(M).max(axis=-1)), -1, 0)  # the row scales' square roots, (d, ...)
        ok = np.all((root > 0.0) & np.isfinite(root), axis=0)
        with np.errstate(all="ignore"):
            upper = upper_rows(M) / root[i]
            upper /= root[j]
            out = np.where(ok, np.square(pfaffian(upper, d)), 0.0)
    return float(out) if M.ndim == 2 else out


def test_normalized_determinant_scale_free():
    M = np.array([[0.0, 5e3], [-5e3, 0.0]])
    assert normalized_determinant(M) == pytest.approx(1.0)
    assert normalized_determinant(1e-7 * M) == pytest.approx(1.0)
    assert normalized_determinant(np.zeros((2, 2))) == 0.0
    # a stack scores matrix by matrix, with the same numbers as one at a time
    stack = np.stack([M, 1e-7 * M, np.zeros((2, 2)), np.array([[0.0, np.nan], [np.nan, 0.0]])])
    assert list(normalized_determinant(stack)) == [normalized_determinant(A) for A in stack]
    assert list(normalized_determinant(stack)) == pytest.approx([1.0, 1.0, 0.0, 0.0])


# -- determinants as polynomials ---------------------------------------------


def random_skew(rng, shape, d):
    A = rng.normal(size=(*shape, d, d))
    return A - np.swapaxes(A, -1, -2)


def upper_rows(M):
    """The upper triangles of the matrices ``M`` (..., d, d), pairs first, as :func:`pfaffian` takes them."""
    i, j = np.triu_indices(M.shape[-1], 1)
    return np.moveaxis(M, (-2, -1), (0, 1))[i, j]


@pytest.mark.parametrize("d", [0, 2, 4, 6, 8, 10, 14, 22])
def test_pfaffian_squares_to_the_determinant(rng, d):
    """Up to 8 rows the expansion alone; above, elimination down to an 8 x 8 block first."""
    M = random_skew(rng, (5, 3), d)
    pf = pfaffian(upper_rows(M), d)
    assert pf.shape == (5, 3)
    np.testing.assert_allclose(pf**2, np.linalg.det(M), rtol=1e-12, atol=1e-12)
    if d == 4:  # Pf = a01 a23 - a02 a13 + a03 a12
        a = M
        want = a[..., 0, 1] * a[..., 2, 3] - a[..., 0, 2] * a[..., 1, 3] + a[..., 0, 3] * a[..., 1, 2]
        np.testing.assert_allclose(pf, want, rtol=1e-14)


@pytest.mark.parametrize("d", [6, 12])
def test_pfaffian_propagates_a_non_finite_entry(rng, d):
    M = random_skew(rng, (4,), d)
    M[0, 2, 4], M[0, 4, 2] = np.nan, np.nan
    M[1, 0, 5], M[1, 5, 0] = np.inf, -np.inf
    M[2, d - 2, d - 1], M[2, d - 1, d - 2] = -np.inf, np.inf  # in the expanded block when d > 8
    pf = pfaffian(upper_rows(M), d)
    assert not np.isfinite(pf[:3]).any() and np.isfinite(pf[3])


@pytest.mark.parametrize("d", [4, 10, 12])
def test_pfaffian_pivots_past_zero_entries(d):
    """``[[0, I], [-I, 0]]`` has a zero wherever an elimination without pivots would divide."""
    J = np.zeros((d, d))
    J[np.arange(d // 2), np.arange(d // 2, d)] = 1.0  # the pairs (i, d/2 + i)
    J -= J.T
    assert pfaffian(upper_rows(J), d) == (-1.0) ** (d // 2 * (d // 2 - 1) // 2)
    J[:, 0] = J[0, :] = 0.0  # no pivot in the first column
    assert pfaffian(upper_rows(J), d) == 0.0


def test_pfaffian_is_exactly_zero_at_low_rank():
    # u v^T - v u^T has rank 2: with integer entries every product is exact and the sum cancels to 0
    for d in (4, 6, 10):
        u, v = np.arange(1.0, d + 1), np.array([0.0, 1.0, 5.0, 2.0, -3.0, 7.0, 1.0, 2.0, 3.0, 4.0])[:d]
        low = np.outer(u, v) - np.outer(v, u)
        assert np.linalg.matrix_rank(low) == 2
        assert pfaffian(upper_rows(low), d) == 0.0
        assert normalized_determinant(low) == pytest.approx(0.0, abs=1e-30)  # the row scaling rounds


def test_normalized_determinant_is_a_pfaffian_square_that_no_scale_overflows(rng):
    M = random_skew(rng, (6,), 6)
    want = np.linalg.det(M / np.abs(M).max(axis=-1, keepdims=True))
    np.testing.assert_allclose(normalized_determinant(M), want, rtol=1e-12, atol=1e-14)
    for scale in (1e200, 1e-200):
        got = normalized_determinant(scale * M)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, normalized_determinant(M), rtol=1e-12)
    # a row scale of 1e200 next to one of 1: the products s_i s_j alone would overflow
    wide = np.diag([1e200, 1e200, 1.0, 1.0]) @ np.array(
        [[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]]
    )
    assert normalized_determinant(wide) == pytest.approx(1.0, rel=1e-14)


def test_normalized_determinant_past_the_expanded_block_matches_lapack(rng):
    """At 22 rows (cotangent with m = 11) the Pfaffian is eliminated down to the expanded block."""
    M = random_skew(rng, (40,), 22) * np.exp(rng.normal(scale=3.0, size=(40, 22, 1)))
    M = M - np.swapaxes(M, -1, -2)
    want = np.linalg.det(M / np.abs(M).max(axis=-1, keepdims=True))
    np.testing.assert_allclose(normalized_determinant(M), want, rtol=1e-9, atol=1e-14)


def column_scores(M, drop=()):
    """``lcs._nondegeneracy_scores`` on the upper-triangle columns of the stack ``M`` (n, d, d), less the keys ``drop``."""
    d = M.shape[-1]
    keys = list(zip(*(k.tolist() for k in triangle(d))))
    return _nondegeneracy_scores({I: v for I, v in zip(keys, upper_rows(M)) if I not in drop}, d, len(M))


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("d", [2, 4, 6, 8, 10])
def test_column_scores_are_the_matrix_scores_bit_for_bit(rng, d):
    """The scorer on coefficient columns against the matrix form, with the same bits; 10 rows take ``_eliminate``."""
    rows = np.exp(rng.normal(scale=4.0, size=(64, d)))  # row scales over many orders of magnitude
    M = rows[:, :, None] * random_skew(rng, (64,), d) * rows[:, None, :]
    M[1, 0, :] = M[1, :, 0] = 0.0  # a zero row
    M[2, 0, 1] = np.nan
    M[3, 0, d - 1] = np.inf
    M[4] *= 1e150
    M[5] *= 1e-150
    M[6, :, : d // 2] *= 1e150  # rows at 1e150 and at 1e-150 in one matrix
    M[6, : d // 2, :] *= 1e150
    M[6] *= 1e-150
    M[7] = 0.0
    M = np.triu(M, 1)
    M -= np.swapaxes(M, 1, 2)  # skew to the bit, as ``lcs.skew_matrices`` builds it
    want = normalized_determinant(M)
    got = column_scores(M)
    assert np.array_equal(bits(got), bits(want))
    assert np.isfinite(got).all() and (got[[1, 2, 3, 7]] == 0.0).all() and (got[[0, 4, 5]] > 0.0).all()
    # a coefficient missing from the columns is a zero entry of the matrix
    M[:, 0, 1] = M[:, 1, 0] = 0.0
    assert np.array_equal(bits(column_scores(M, drop={(0, 1)})), bits(normalized_determinant(M)))


def minors(vecs, rows):
    """Each selected minor alone, as a form with the one coefficient 1 evaluates it."""
    return np.stack([evaluate_form({I: np.ones(len(vecs))}, vecs) for I in rows])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_minors_match_the_determinants_of_the_selected_rows(rng, k):
    dim, n = 7, 9
    rows = tuple(sorted({tuple(sorted(rng.choice(dim, size=k, replace=False).tolist())) for _ in range(12)}))
    vecs = rng.normal(size=(n, dim, k))
    want = np.linalg.det(vecs[:, np.array(rows), :]).T
    np.testing.assert_allclose(minors(vecs, rows), want, rtol=1e-12, atol=1e-12)
    coeffs = rng.normal(size=(len(rows), n))  # all minors of one form are expanded together
    np.testing.assert_allclose(evaluate_form(dict(zip(rows, coeffs)), vecs), (coeffs * want).sum(axis=0), atol=1e-12)
    vecs[3, rows[0][0], k - 1] = np.nan
    vecs[5, rows[-1][-1], 0] = np.inf
    got = minors(vecs, rows)
    assert np.isnan(got[0, 3]) and not np.isfinite(got[-1, 5])
    assert np.isfinite(np.delete(got, [3, 5], axis=1)).all()


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
    rep = verify_lcs(solv_structure, solv_structure.chart.sample(48, seed=0), tol=1e-8)
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
    rep = verify_lcs(LCSStructure(r4, omega, lee), r4.sample(32, seed=1))
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


def test_batched_lee_recovery_matches_pointwise():
    """One stacked solve on the surface example's Lee points and a sample, against one call per point."""
    objects = inoue().objects
    omega = objects["structure"].omega
    pts = np.vstack([objects["lee_points"], objects["chart"].sample(28, seed=2)])
    batch = solve_lee_form(omega, pts)
    assert batch.coefficients.shape == pts.shape and batch.residual.shape == (len(pts),)
    for p, theta, res in zip(pts, batch.coefficients, batch.residual):
        one = solve_lee_form(omega, p)
        np.testing.assert_allclose(theta, one.coefficients, rtol=1e-12, atol=1e-14)
        assert res == pytest.approx(one.residual, abs=1e-14)
    np.testing.assert_allclose(batch.coefficients[:, 1], 1.0 / pts[:, 1], rtol=1e-10)


def test_batched_lee_recovery_raises_at_first_degenerate_point(r4):
    w = DifferentialForm(r4, 2, {(0, 1): coordinate(r4, 0), (2, 3): 1.0})  # degenerate where a = 0
    pts = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    with pytest.raises(DegenerateInputError, match=r"\[0\.0, 2\.0, 0\.0, 0\.0\]"):
        solve_lee_form(w, pts)


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

    right = wedge(exterior_derivative(DifferentialForm.from_scalar(f)), w) + twisted_derivative(theta, w) * f
    res, _ = form_residual(left, right, r4.sample(24, seed=7))
    assert res < 1e-10


def conformal_rescale(s: LCSStructure, f: ScalarField) -> LCSStructure:
    """``e^f omega`` with Lee form ``theta + df``: again LCS, and rescaling by ``-f`` undoes it."""
    ef = ScalarField(f.chart, dual.exp(f.node))
    return LCSStructure(s.chart, s.omega * ef, s.lee + exterior_derivative(DifferentialForm.from_scalar(f)))


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
    rep = verify_lcs(conformal_rescale(solv_structure, f), halfspace.sample(32, seed=2))
    assert rep.passed


@given(st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=25, deadline=None)
def test_constant_rescale_scales_determinant(c):
    chart = Chart("c4", ("a", "b", "u", "v"))
    omega = DifferentialForm(chart, 2, {(0, 1): 1.0, (2, 3): 1.0})
    lee = DifferentialForm.zero(chart, 1)
    s = conformal_rescale(LCSStructure(chart, omega, lee), constant(chart, c))
    got = np.linalg.det(skew_matrices(s.omega, (0.0, 0.0, 0.0, 0.0))[0])
    assert got == pytest.approx(np.exp(4.0 * c), rel=1e-9)


def test_exact_structure_builds_and_verifies(r4):
    theta = DifferentialForm(r4, 1, {(0,): 1.0})
    b, d = coordinate(r4, 1), coordinate(r4, 3)
    eta = DifferentialForm(r4, 1, {(0,): b, (2,): d})
    s = LCSStructure(r4, twisted_derivative(theta, eta), theta, potential=eta)
    rep = verify_lcs(s, r4.sample(24, seed=1))
    assert rep["lcs-identity"].passed
    assert rep["potential"].passed
    assert rep["lee-closed"].passed


def test_exact_structure_rejects_wrong_degrees(r4):
    theta = DifferentialForm(r4, 1, {(0,): 1.0})
    w = DifferentialForm(r4, 2, {(0, 1): 1.0})
    with pytest.raises(UsageError):  # eta a 2-form: omega = d_theta eta is a 3-form
        LCSStructure(r4, twisted_derivative(theta, w), theta, potential=w)
    with pytest.raises(UsageError):  # theta a 2-form twists nothing
        LCSStructure(r4, twisted_derivative(w, theta), w, potential=theta)

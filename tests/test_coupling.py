"""Gauge curvature, the assembled two-form on a product, complex structures."""

import dataclasses

import numpy as np
import pytest

from lcslab.charts import Chart
from lcslab.coupling import (
    CouplingChart,
    EndomorphismField,
    _draw_arguments,
    _lift_operators,
    GaugeChart,
    build_coupling,
    circle_fat_from_symplectic,
    conjugate_structure,
    coupled_complex_structure,
    fatness_check,
    gauge_curvature,
    horizontal_nijenhuis_identity,
    lift_bracket_diagnostic,
    nijenhuis,
    nijenhuis_tensoriality,
    product_chart,
    rotation_structure,
    verify_coupling,
)
from lcslab.actions import ActionSpec, MomentumMap
from lcslab.errors import InvalidStructureError, PreconditionError, UsageError
from lcslab.forms import (
    DifferentialForm,
    ScalarField,
    SmoothMap,
    VectorField,
    basis_vector,
    constant,
    coordinate,
    eval_form,
    exterior_derivative,
    lie_bracket,
)
from lcslab.gallery import coupling_example_s2
from lcslab.lcs import LCSStructure, twisted_derivative
from lcslab.report import evaluate_form, form_residual, form_values
from tests.test_actions import sl2_constants
from lcslab.parser import parse_field
from tests.test_exterior import rand_form, rand_vf, skew_matrix_at


@pytest.fixture(scope="module")
def uv():
    return Chart("uv", ("u", "v"))


@pytest.fixture(scope="module")
def flat(uv):
    """Translation-invariant circle gauge over the plane: A = u dv, F = du^dv."""
    fiber = Chart("xy", ("x", "y"))
    eta = DifferentialForm(fiber, 1, {(1,): coordinate(fiber, 0)})  # x dy
    omega = exterior_derivative(eta)  # dx^dy
    structure = LCSStructure(fiber, omega, DifferentialForm.zero(fiber, 1), potential=eta)
    act = ActionSpec(fiber, [basis_vector(fiber, 1)])
    mu = MomentumMap(fiber, (-coordinate(fiber, 0),))  # i_{d/dy} omega = d(-x)
    A = DifferentialForm(uv, 1, {(1,): coordinate(uv, 0)})
    gauge = GaugeChart(uv, (A,))
    return build_coupling(gauge, structure, act, mu, n=24)


@pytest.fixture(scope="module")
def s2():
    return coupling_example_s2()


def test_gauge_chart_validation(uv):
    two_form = DifferentialForm(uv, 2, {(0, 1): 1.0})
    with pytest.raises(UsageError, match="1-forms"):
        GaugeChart(uv, (two_form,))
    one = DifferentialForm(uv, 1, {(0,): 1.0})
    with pytest.raises(UsageError, match="shape"):
        GaugeChart(uv, (one,), np.zeros((2, 2, 2)))


def test_abelian_curvature_is_exterior_derivative(uv, rng):
    A = rand_form(uv, rng, 1)
    g = GaugeChart(uv, (A,))
    (F,), rep = gauge_curvature(g, n=16)
    assert rep.passed
    res, _ = form_residual(F, exterior_derivative(A), uv.sample(16, seed=1))
    assert res < 1e-10


def test_nonabelian_bianchi(r4, rng):
    """dF + c A ^ F = 0 holds identically whatever the potentials are."""
    g = GaugeChart(r4, tuple(rand_form(r4, rng, 1) for _ in range(3)), sl2_constants())
    _, rep = gauge_curvature(g, n=24, tol=1e-8)
    assert rep.passed
    assert len(rep.checks) == 3


def test_nonabelian_curvature_quadratic_term(uv):
    # constant potentials: dA = 0, so F^a = 1/2 c^a_bc A^b ^ A^c exactly
    du = DifferentialForm(uv, 1, {(0,): 1.0})
    dv = DifferentialForm(uv, 1, {(1,): 1.0})
    zero = DifferentialForm.zero(uv, 1)
    g = GaugeChart(uv, (du, dv, zero), sl2_constants())
    F, rep = gauge_curvature(g, n=8)
    # c^2_{01} = -2: F^2 = 1/2(c^2_{01} du^dv + c^2_{10} dv^du) = -2 du^dv
    p = (0.3, -0.7)
    assert F[2].coefficient((0, 1)).at(p) == pytest.approx(-2.0)
    assert F[0].coefficient((0, 1)).at(p) == 0.0
    assert F[1].coefficient((0, 1)).at(p) == 0.0


def test_circle_fat_requires_primitive(uv):
    area = DifferentialForm(uv, 2, {(0, 1): 1.0})
    good = DifferentialForm(uv, 1, {(1,): coordinate(uv, 0)})
    g = circle_fat_from_symplectic(area, good, n=16)
    assert g.dim == 1
    bad = DifferentialForm(uv, 1, {(1,): coordinate(uv, 1)})
    with pytest.raises(PreconditionError, match="does not reproduce"):
        circle_fat_from_symplectic(area, bad, n=16)


# -- the assembled form -----------------------------------------------------


def test_coupling_form_coefficients_by_hand(flat):
    """Omega = dx^dy - u dv^dx + x du^dv on coordinates (u, v, x, y)."""
    for p in [(0.2, -0.4, 0.8, 0.1), (1.0, 1.0, -0.5, 0.3)]:
        assert flat.Omega.coefficient((2, 3)).at(p) == pytest.approx(1.0)
        assert flat.Omega.coefficient((1, 2)).at(p) == pytest.approx(-p[0])
        assert flat.Omega.coefficient((0, 1)).at(p) == pytest.approx(p[2])
        got = {I for I, _ in flat.Omega.coeffs.items()}
        assert got <= {(2, 3), (1, 2), (0, 1), (0, 2), (0, 3), (1, 3)}


def test_coupling_verifies(flat):
    rep = verify_coupling(flat, n=32, seed=0, tol=1e-8)
    assert rep.passed
    ids = [c.id for c in rep.checks]
    assert "closed[coeffs]" in ids and "closed[hhv]" in ids and "hor-vert" in ids


def test_corrupted_form_fails_the_class_that_uses_it(flat):
    """Adding x du^dv breaks closedness on mixed arguments, not on verticals.

    The extra term differentiates to dx^du^dv, which needs at least one
    horizontal slot to be seen, so the pure-vertical class and the fiber
    restriction stay clean while the hhv class fails.
    """
    x = coordinate(flat.total, 2)
    bad_omega = flat.Omega + DifferentialForm(flat.total, 2, {(0, 1): x})
    corrupted = dataclasses.replace(flat, Omega=bad_omega)
    rep = verify_coupling(corrupted, n=24, seed=1)
    assert not rep.passed
    assert not rep["closed[coeffs]"].passed
    assert not rep["closed[hhv]"].passed
    assert rep["closed[vvv]"].passed
    assert rep["fiber-block"].passed


@pytest.mark.parametrize("example", ["flat", "s2"])
def test_batched_contraction_matches_pointwise(example, flat, s2):
    """The batched argument classes and contraction agree with eval_form and the symbolic lift."""
    c = flat if example == "flat" else s2.objects["coupling"]
    m = c.base_dim
    pts = c.total.sample(8, seed=2)
    rng = np.random.default_rng(5)
    closed3 = twisted_derivative(c.Theta, c.Omega)
    forms = (closed3, rand_form(c.total, rng, 3))
    H = _lift_operators(c, pts)
    for pattern in ("vvv", "vhv", "hhv", "hhh"):
        vecs = _draw_arguments(pattern, H, rng)
        for i, p in enumerate(pts):
            for s, kind in enumerate(pattern):
                if kind == "h":
                    lifted = c.lift(VectorField(c.base, list(vecs[i, :m, s]))).at(p)
                    np.testing.assert_allclose(vecs[i, :, s], lifted, atol=1e-12)
                else:
                    assert np.all(vecs[i, :m, s] == 0.0)
        for form in forms:
            got = evaluate_form(form_values(form, pts), vecs)
            want = [eval_form(form, p, list(vecs[i].T), check_domain=False) for i, p in enumerate(pts)]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_horizontal_lift_subtracts_gauge(flat, uv):
    X = basis_vector(uv, 1)  # d/dv, paired with A to the value u
    lifted = flat.lift(X)
    at = lifted.at((0.7, -0.2, 0.4, 0.9))
    np.testing.assert_allclose(at, [0.0, 1.0, 0.0, -0.7], atol=1e-12)
    Y = basis_vector(uv, 0)
    np.testing.assert_allclose(flat.lift(Y).at((0.7, -0.2, 0.4, 0.9)), [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_build_rejects_wrong_momentum(flat, uv):
    wrong = MomentumMap(flat.fiber.chart, (coordinate(flat.fiber.chart, 1),))
    with pytest.raises(PreconditionError) as ei:
        build_coupling(flat.gauge, flat.fiber, flat.action, wrong, n=16)
    assert ei.value.report is not None


def test_build_rejects_mismatched_constants(flat, uv):
    g3 = GaugeChart(uv, flat.gauge.potentials * 3, sl2_constants())
    with pytest.raises(UsageError):
        build_coupling(g3, flat.fiber, flat.action, flat.momentum, n=8)


def test_lift_bracket_diagnostic(flat):
    rep = lift_bracket_diagnostic(flat, n=10, seed=0, tol=1e-8, pairs=2)
    assert rep.passed


# -- fatness ----------------------------------------------------------------


def test_fatness_zero_gauge_fails(uv):
    fiber = Chart("xy", ("x", "y"))
    g = GaugeChart(uv, (DifferentialForm.zero(uv, 1),))
    mu = MomentumMap(fiber, (coordinate(fiber, 0),))
    rep = fatness_check(g, mu, fiber.sample(16, seed=0), n=16)
    assert not rep.passed
    assert rep["fat"].residual == 0.0


def test_fatness_positive_for_area_curvature(uv):
    fiber = Chart("xy", ("x", "y"), ((0.5, 1.5), (-1.5, 1.5)))
    A = DifferentialForm(uv, 1, {(1,): coordinate(uv, 0)})
    g = GaugeChart(uv, (A,))
    mu = MomentumMap(fiber, (coordinate(fiber, 0),))  # bounded away from zero
    rep = fatness_check(g, mu, fiber.sample(24, seed=1), n=24, threshold=1e-4)
    assert rep.passed
    # det of the 2x2 pairing is mu^2 and mu = x >= 0.5 on the fiber box
    assert rep["fat"].residual >= 0.25


@pytest.mark.parametrize("term", ["sin(u) * v", "sqrt(u)"])
def test_fatness_matches_pointwise_pairs(uv, term):
    """The batched determinants against one (fiber, base) pair at a time through ``.at``.

    ``sqrt(u)`` in the gauge is undefined on half the base box: the oracle's
    ``math.sqrt`` raises there, and the row counts those pairs as skipped.
    """
    fiber = Chart("xy", ("x", "y"))
    A1 = DifferentialForm(uv, 1, {(1,): coordinate(uv, 0)})
    A2 = DifferentialForm(uv, 1, {(0,): coordinate(uv, 1), (1,): parse_field(term, uv)})
    g = GaugeChart(uv, (A1, A2))
    mu = MomentumMap(fiber, (coordinate(fiber, 0), coordinate(fiber, 1)))
    bpts, fpts = uv.sample(12, seed=3), fiber.sample(10, seed=4)
    F, _ = gauge_curvature(g, n=4)
    dets, skipped = [], 0
    for x in fpts:
        for u in bpts:
            try:
                pairing = sum(m.at(x) * skew_matrix_at(Fa, u) for m, Fa in zip(mu.components, F))
            except (ValueError, ZeroDivisionError):
                skipped += 1
                continue
            dets.append(abs(np.linalg.det(pairing)))
    row = fatness_check(g, mu, fpts, base_points=bpts)["fat"]
    assert row.details["pairs"] == 120
    assert row.details["skipped"] == skipped
    assert row.residual == pytest.approx(min(dets), rel=1e-12)
    if term == "sqrt(u)":
        assert skipped > 24 and row.verdict == "inconclusive"


# -- complex structures -----------------------------------------------------


def test_rotation_structure_squares_to_minus_one(r4):
    J = rotation_structure(r4)
    p = (0.1, 0.2, 0.3, 0.4)
    np.testing.assert_allclose(J.at(p) @ J.at(p), -np.eye(4), atol=1e-12)


def test_rotation_structure_needs_even_dim(r3):
    with pytest.raises(UsageError):
        rotation_structure(r3)


def test_nijenhuis_vanishes_for_constant_structure(r4, rng):
    J = rotation_structure(r4)
    from tests.test_exterior import rand_vf

    X, Y = rand_vf(r4, rng), rand_vf(r4, rng)
    p = (0.3, -0.2, 0.5, 0.1)
    np.testing.assert_allclose(nijenhuis(J, X, Y, p), 0.0, atol=1e-9)
    assert nijenhuis_tensoriality(J, X, Y, p) < 1e-9


def nonintegrable_structure(chart):
    """J d1 = d2, J d2 = -d1, J d3 = y d1 + d4, J d4 = -d3 - y d2."""

    def rows(p):
        y = p[1]
        return [
            [0.0, -1.0, y, 0.0],
            [1.0, 0.0, 0.0, -y],
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
        ]

    return EndomorphismField(chart, rows)


def test_nijenhuis_detects_nonintegrable(r4):
    """J with J(d3) = y d1 + d4 has N(d1, d3) = -d1 at every point."""
    J = nonintegrable_structure(r4)
    p = (0.4, 0.7, -0.3, 0.2)
    np.testing.assert_allclose(J.at(p) @ J.at(p), -np.eye(4), atol=1e-12)
    got = nijenhuis(J, basis_vector(r4, 0), basis_vector(r4, 2), p)
    np.testing.assert_allclose(got, [-1.0, 0.0, 0.0, 0.0], atol=1e-10)
    # tensoriality holds even without integrability
    assert nijenhuis_tensoriality(J, basis_vector(r4, 0), basis_vector(r4, 2), p) < 1e-9


def bracket_nijenhuis(J, X, Y, p):
    """The defining formula, with J X as an explicit field and brackets by lie_bracket."""
    n = J.chart.dim
    entry = [[ScalarField(J.chart, lambda q, i=i, j=j: J.fn(q)[i][j]) for j in range(n)] for i in range(n)]

    def turn(Z):
        comps = []
        for i in range(n):
            acc = constant(J.chart, 0.0)
            for j in range(n):
                acc = acc + entry[i][j] * Z.components[j]
            comps.append(acc)
        return VectorField(J.chart, comps)

    JX, JY = turn(X), turn(Y)
    Jp = J.at(p)
    return (
        lie_bracket(X, Y).at(p)
        - lie_bracket(JX, JY).at(p)
        + Jp @ lie_bracket(JX, Y).at(p)
        + Jp @ lie_bracket(X, JY).at(p)
    )


@pytest.mark.parametrize("which", ["rotation", "nonintegrable", "s2-fiber"])
def test_jet_nijenhuis_matches_bracket_formula(which, r4, s2, rng):
    if which == "s2-fiber":
        J = s2.objects["J_fiber"]
        pts = s2.objects["fiber"].chart.sample(5, seed=4)
    else:
        J = rotation_structure(r4) if which == "rotation" else nonintegrable_structure(r4)
        pts = r4.sample(5, seed=4)
    X, Y = rand_vf(J.chart, rng), rand_vf(J.chart, rng)
    got = nijenhuis(J, X, Y, pts)
    assert got.shape == pts.shape
    for p, value in zip(pts, got):
        want = bracket_nijenhuis(J, X, Y, p)
        np.testing.assert_allclose(value, want, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(nijenhuis(J, X, Y, p), value, rtol=1e-12, atol=1e-12)
    if which == "nonintegrable":
        assert np.abs(got).max() > 1e-3  # the oracle is compared on nonzero values


def test_nijenhuis_rejects_non_complex(r4):
    J = EndomorphismField.from_matrix(r4, np.eye(4))
    with pytest.raises(InvalidStructureError):
        nijenhuis(J, basis_vector(r4, 0), basis_vector(r4, 1), (0.0, 0.0, 0.0, 0.0))


def test_conjugate_structure_by_linear_map(plane):
    """Conjugating the rotation by a shear keeps J^2 = -1 and changes the matrix."""
    x, y = coordinate(plane, 0), coordinate(plane, 1)
    psi = SmoothMap(plane, plane, [x + 0.5 * y, y])
    J = conjugate_structure(psi, rotation_structure(plane))
    p = (0.3, 0.8)
    M = J.at(p)
    np.testing.assert_allclose(M @ M, -np.eye(2), atol=1e-10)
    S = np.array([[1.0, 0.5], [0.0, 1.0]])
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    np.testing.assert_allclose(M, np.linalg.inv(S) @ R @ S, atol=1e-10)


def test_conjugate_structure_by_nonlinear_map(s2):
    """J_fiber of coupling-s2 equals inv(d psi) R d psi with the Jacobian written out by hand."""
    J = s2.objects["J_fiber"]
    pts = s2.objects["fiber"].chart.sample(6, seed=7)
    R = np.zeros((4, 4))
    R[1, 0] = R[3, 2] = 1.0
    R[0, 1] = R[2, 3] = -1.0
    got = J.batch(pts)
    for p, M in zip(pts, got):
        scale = np.exp(-p[0])
        radial = np.sqrt(1.0 - np.sum(p[1:] ** 2))
        image = scale * np.array([p[1], p[2], p[3], radial])
        D = np.zeros((4, 4))
        D[:, 0] = -image
        D[:3, 1:] = scale * np.eye(3)
        D[3, 1:] = -scale * p[1:] / radial
        np.testing.assert_allclose(M, np.linalg.inv(D) @ R @ D, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(J.at(p), M, atol=1e-12)
        np.testing.assert_allclose(M @ M, -np.eye(4), atol=1e-10)


def test_coupled_structure_preserves_blocks(flat):
    J = coupled_complex_structure(
        flat, rotation_structure(flat.base), rotation_structure(flat.fiber.chart)
    )
    p = (0.6, -0.3, 0.2, 0.9)
    M = J.at(p)
    np.testing.assert_allclose(M @ M, -np.eye(4), atol=1e-10)
    # base block is the base rotation; base rows never see fiber columns
    np.testing.assert_allclose(M[:2, :2], [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(M[:2, 2:], 0.0, atol=1e-12)


def test_horizontal_nijenhuis_identity(flat):
    rep = horizontal_nijenhuis_identity(
        flat,
        rotation_structure(flat.base),
        rotation_structure(flat.fiber.chart),
        n=6,
        seed=0,
        tol=1e-7,
        pairs=2,
    )
    assert rep.passed

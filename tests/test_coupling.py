"""Gauge curvature, the assembled two-form on a product, complex structures."""

import dataclasses
import gc
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from lcslab import coupling, dual
from lcslab.charts import Chart
from lcslab.coupling import (
    CouplingChart,
    EndomorphismField,
    _coupled_jet,
    _draw_arguments,
    _lift_bracket_terms,
    _unit_rows,
    GaugeChart,
    build_coupling,
    circle_fat_from_symplectic,
    conjugate_structure,
    embed_base_form,
    embed_fiber_form,
    embed_fiber_vector,
    fatness_check,
    gauge_curvature,
    horizontal_nijenhuis_identity,
    lift_bracket_diagnostic,
    product_chart,
    rotation_structure,
    verify_coupling,
)
from lcslab.actions import ActionSpec, MomentumMap
from lcslab.errors import ChartMismatchError, InvalidStructureError, PreconditionError, UsageError
from lcslab.forms import (
    DifferentialForm,
    ScalarField,
    SmoothMap,
    VectorField,
    basis_vector,
    constant,
    contract,
    coordinate,
    exterior_derivative,
)
from lcslab.gallery import coupling_example_s2
from lcslab.lcs import LCSStructure, twisted_derivative
from lcslab.report import evaluate_form, form_residual, form_values
from tests.test_actions import sl2_constants
from lcslab.parser import parse_field
from tests.test_exterior import rand_form, rand_vf, skew_matrix_at
from tests.pointwise import at, coupled_complex_structure, eval_form, lie_bracket, nijenhuis, nijenhuis_tensoriality


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
    return build_coupling(gauge, structure, act, mu, fiber.sample(24, seed=0))


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


@pytest.mark.parametrize("owner", ["gauge", "action"])
def test_gauge_and_action_take_their_constants_through_one_check(owner, uv):
    """Both default to zeros and refuse a wrong shape or a bracket that is not antisymmetric alike."""
    one = DifferentialForm(uv, 1, {(0,): 1.0})
    make = {
        "gauge": lambda C: GaugeChart(uv, (one, one), C),
        "action": lambda C: ActionSpec(uv, (basis_vector(uv, 0), basis_vector(uv, 1)), C),
    }[owner]
    np.testing.assert_array_equal(make(None).constants, np.zeros((2, 2, 2)))
    with pytest.raises(UsageError, match=r"of shape \(2, 2, 2\), got \(3, 3, 3\)"):
        make(np.zeros((3, 3, 3)))
    skewless = np.zeros((2, 2, 2))
    skewless[0, 0, 1] = 1.0
    with pytest.raises(UsageError, match="antisymmetric"):
        make(skewless)


def test_abelian_curvature_is_exterior_derivative(uv, rng):
    A = rand_form(uv, rng, 1)
    g = GaugeChart(uv, (A,))
    (F,), rep = gauge_curvature(g, uv.sample(16, seed=0))
    assert rep.passed
    res, _ = form_residual(F, exterior_derivative(A), uv.sample(16, seed=1))
    assert res < 1e-10


def test_nonabelian_bianchi(r4, rng):
    """dF + c A ^ F = 0 holds identically whatever the potentials are."""
    g = GaugeChart(r4, tuple(rand_form(r4, rng, 1) for _ in range(3)), sl2_constants())
    _, rep = gauge_curvature(g, r4.sample(24, seed=0), tol=1e-8)
    assert rep.passed
    assert len(rep.checks) == 3


def test_nonabelian_curvature_quadratic_term(uv):
    # constant potentials: dA = 0, so F^a = 1/2 c^a_bc A^b ^ A^c exactly
    du = DifferentialForm(uv, 1, {(0,): 1.0})
    dv = DifferentialForm(uv, 1, {(1,): 1.0})
    zero = DifferentialForm.zero(uv, 1)
    g = GaugeChart(uv, (du, dv, zero), sl2_constants())
    F, rep = gauge_curvature(g, uv.sample(8, seed=0))
    # c^2_{01} = -2: F^2 = 1/2(c^2_{01} du^dv + c^2_{10} dv^du) = -2 du^dv
    p = (0.3, -0.7)
    assert at(F[2].coefficient((0, 1)), p) == pytest.approx(-2.0)
    assert at(F[0].coefficient((0, 1)), p) == 0.0
    assert at(F[1].coefficient((0, 1)), p) == 0.0


def test_circle_fat_requires_primitive(uv):
    area = DifferentialForm(uv, 2, {(0, 1): 1.0})
    good = DifferentialForm(uv, 1, {(1,): coordinate(uv, 0)})
    g = circle_fat_from_symplectic(area, good, uv.sample(16, seed=0))
    assert g.dim == 1
    bad = DifferentialForm(uv, 1, {(1,): coordinate(uv, 1)})
    with pytest.raises(PreconditionError, match="does not reproduce"):
        circle_fat_from_symplectic(area, bad, uv.sample(16, seed=0))


# -- the assembled form -----------------------------------------------------


def test_coupling_form_coefficients_by_hand(flat):
    """Omega = dx^dy - u dv^dx + x du^dv on coordinates (u, v, x, y)."""
    for p in [(0.2, -0.4, 0.8, 0.1), (1.0, 1.0, -0.5, 0.3)]:
        assert at(flat.Omega.coefficient((2, 3)), p) == pytest.approx(1.0)
        assert at(flat.Omega.coefficient((1, 2)), p) == pytest.approx(-p[0])
        assert at(flat.Omega.coefficient((0, 1)), p) == pytest.approx(p[2])
        got = {I for I, _ in flat.Omega.coeffs.items()}
        assert got <= {(2, 3), (1, 2), (0, 1), (0, 2), (0, 3), (1, 3)}


def test_coupling_verifies(flat):
    rep = verify_coupling(flat, flat.total.sample(32, seed=0), seed=0, tol=1e-8)
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
    rep = verify_coupling(corrupted, flat.total.sample(24, seed=1), seed=1)
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
    H = dual.evaluate(c.lift_block, pts)
    for pattern in ("vvv", "vhv", "hhv", "hhh"):
        vecs = _draw_arguments(pattern, H, rng)
        for i, p in enumerate(pts):
            for s, kind in enumerate(pattern):
                if kind == "h":
                    lifted = at(c.lift(VectorField(c.base, list(vecs[i, :m, s]))), p)
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
    got = at(lifted, (0.7, -0.2, 0.4, 0.9))
    np.testing.assert_allclose(got, [0.0, 1.0, 0.0, -0.7], atol=1e-12)
    Y = basis_vector(uv, 0)
    np.testing.assert_allclose(at(flat.lift(Y), (0.7, -0.2, 0.4, 0.9)), [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_build_rejects_wrong_momentum(flat, uv):
    wrong = MomentumMap(flat.fiber.chart, (coordinate(flat.fiber.chart, 1),))
    with pytest.raises(PreconditionError) as ei:
        build_coupling(flat.gauge, flat.fiber, flat.action, wrong, flat.fiber.chart.sample(16, seed=0))
    assert ei.value.report is not None


def test_build_rejects_mismatched_constants(flat, uv):
    g3 = GaugeChart(uv, flat.gauge.potentials * 3, sl2_constants())
    with pytest.raises(UsageError):
        build_coupling(g3, flat.fiber, flat.action, flat.momentum, flat.fiber.chart.sample(8, seed=0))


def test_build_checks_the_gauge_before_the_fiber(flat, uv):
    """A gauge of the wrong size is refused as a usage error before the fiber triple is verified."""
    g3 = GaugeChart(uv, flat.gauge.potentials * 3, sl2_constants())
    wrong = MomentumMap(flat.fiber.chart, (coordinate(flat.fiber.chart, 1),))
    with pytest.raises(UsageError, match="different numbers of generators"):
        build_coupling(g3, flat.fiber, flat.action, wrong, flat.fiber.chart.sample(16, seed=0))


def test_product_chart_domain_is_both_factors():
    """A point of U x F is inside exactly when its base part is in U and its fiber part in F."""
    base = Chart("disc", ("u", "v"), domain=(lambda p: 1.0 - (p[0] * p[0] + p[1] * p[1]),))
    # sqrt is NaN for x < 0 and 1 / y is +inf at y = 0: both put the point outside
    fiber = Chart("half", ("x", "y"), domain=(lambda p: dual.sqrt(p[0]) + 0.5 * p[1], lambda p: 1.0 / p[1]))
    total = product_chart(base, fiber)
    P = np.random.default_rng(5).uniform(-1.5, 1.5, size=(200, 4))
    P = np.vstack([P, [[0.1, 0.1, 1.0, 0.0], [np.nan, 0.0, 1.0, 1.0], [0.0, 0.0, np.inf, 1.0], [0.1, 0.2, 0.5, -np.inf]]])
    in_base, in_fiber = base.contains(P[:, :2]), fiber.contains(P[:, 2:])
    assert (in_base & ~in_fiber).any() and (~in_base & in_fiber).any() and (in_base & in_fiber).any()
    assert in_base[-4:].tolist() == [True, False, True, True] and in_fiber[-4:].tolist() == [False, True, False, False]
    np.testing.assert_array_equal(total.contains(P), in_base & in_fiber)
    assert [total.contains(p) for p in P] == (in_base & in_fiber).tolist()


def test_lift_bracket_diagnostic(flat):
    rep = lift_bracket_diagnostic(flat, flat.total.sample(10, seed=0), seed=0, tol=1e-8, pairs=2)
    assert rep.passed


def symbolic_lift_bracket_terms(c, pts, rng, pairs):
    """The identity's three terms contracted symbolically: constant fields, lifted and contracted as nodes."""
    m, k = c.base_dim, c.fiber.chart.dim
    closed3 = twisted_derivative(c.Theta, c.Omega)
    terms = []
    for _ in range(pairs):
        X = VectorField(c.base, list(_unit_rows(rng, 1, m)[0]))
        Y = VectorField(c.base, list(_unit_rows(rng, 1, m)[0]))
        Z = embed_fiber_vector(c.total, c.base, VectorField(c.fiber.chart, list(_unit_rows(rng, 1, k)[0])))
        Xs, Ys = c.lift(X), c.lift(Y)
        pairing = DifferentialForm.from_scalar(contract(c.Omega, Ys, Xs))
        term1 = contract(twisted_derivative(c.Theta, pairing), Z)
        term2 = contract(closed3, Ys, Xs, Z)
        rhs = contract(c.Omega, lie_bracket(Xs, Ys), Z)
        terms.append([term1.node, term2.node, rhs.node])
    return dual.evaluate(terms, pts)


@pytest.mark.parametrize("example", ["flat", "s2"])
def test_lift_bracket_terms_match_the_symbolic_contraction(example, flat, s2):
    """The terms contracted in numpy from jets equal the same draws contracted as nodes."""
    c = flat if example == "flat" else s2.objects["coupling"]
    pts = c.total.sample(12, seed=4)
    got = _lift_bracket_terms(c, pts, np.random.default_rng(9), 3)
    want = symbolic_lift_bracket_terms(c, pts, np.random.default_rng(9), 3)
    assert got.shape == want.shape == (12, 3, 3)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * (1 + np.abs(want).max()))
    assert np.abs(want).max() > 0.1  # compared on nonzero values


def interned_by(call, monkeypatch) -> int:
    """The number of nodes ``call()`` interns afresh; the collector is held off so the count repeats."""
    intern, created = dual._intern, []

    def counting(key, *rest):
        ref = dual._NODES.get(key)
        if ref is None or ref() is None:
            created.append(key)
        return intern(key, *rest)

    gc.collect()
    gc.disable()
    try:
        with monkeypatch.context() as m:
            m.setattr(dual, "_intern", counting)
            call()
    finally:
        gc.enable()
    return len(created)


def test_coupling_checkers_build_no_node_per_draw(s2, monkeypatch):
    """A warm call interns the same nodes whatever ``pairs`` and ``seed``: the draws never enter the DAG."""
    o = s2.objects
    c = o["coupling"]

    def lift_bracket(pairs, seed):
        pts = c.total.sample(8, seed)
        return lambda: lift_bracket_diagnostic(c, pts, seed=seed, pairs=pairs)

    def horizontal(pairs, seed):
        pts = c.total.sample(6, seed)
        return lambda: horizontal_nijenhuis_identity(c, o["J_base"], o["J_fiber"], pts, seed=seed, pairs=pairs)

    for run, many in ((lift_bracket, 5), (horizontal, 4)):
        run(1, 0)()
        counts = [interned_by(run(pairs, seed), monkeypatch) for pairs, seed in ((1, 1), (many, 2), (1, 3))]
        assert counts[0] == counts[1] == counts[2], counts


# -- fatness ----------------------------------------------------------------


def test_fatness_zero_gauge_fails(uv):
    fiber = Chart("xy", ("x", "y"))
    g = GaugeChart(uv, (DifferentialForm.zero(uv, 1),))
    mu = MomentumMap(fiber, (coordinate(fiber, 0),))
    rep = fatness_check(g, mu, fiber.sample(16, seed=0), uv.sample(16, seed=0))
    assert not rep.passed
    assert rep["fat"].residual == 0.0


def test_fatness_positive_for_area_curvature(uv):
    fiber = Chart("xy", ("x", "y"), ((0.5, 1.5), (-1.5, 1.5)))
    A = DifferentialForm(uv, 1, {(1,): coordinate(uv, 0)})
    g = GaugeChart(uv, (A,))
    mu = MomentumMap(fiber, (coordinate(fiber, 0),))  # bounded away from zero
    rep = fatness_check(g, mu, fiber.sample(24, seed=1), uv.sample(24, seed=0), threshold=1e-4)
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
    F, _ = gauge_curvature(g, uv.sample(4, seed=0))
    dets, skipped = [], 0
    for x in fpts:
        for u in bpts:
            try:
                pairing = sum(at(m, x) * skew_matrix_at(Fa, u) for m, Fa in zip(mu.components, F))
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


def test_fatness_memory_stays_within_its_fiber_blocks(uv, monkeypatch):
    """No stack of every pair's matrix: peak allocation is bounded by the scratch size, not by the pair count.

    At 256 x 256 pairs the old (nf * nb, 2, 2) stack alone takes 2 MiB, 32 times
    the 64 KiB scratch set here.  The blocks give the row of one whole block:
    the same minimum, worst pair and skipped count.
    """
    fiber = Chart("xy", ("x", "y"))
    A1 = DifferentialForm(uv, 1, {(1,): coordinate(uv, 0)})
    A2 = DifferentialForm(uv, 1, {(0,): coordinate(uv, 1), (1,): parse_field("sqrt(u)", uv)})
    g = GaugeChart(uv, (A1, A2))
    mu = MomentumMap(fiber, (coordinate(fiber, 0), coordinate(fiber, 1)))
    bpts, fpts = uv.sample(256, seed=3), fiber.sample(256, seed=4)
    whole = fatness_check(g, mu, fpts, bpts)["fat"]
    monkeypatch.setattr(dual, "_SCRATCH_BYTES", 64 * 1024)
    fatness_check(g, mu, fpts, bpts)  # warm: the curvature forms and their tapes are built
    tracemalloc.start()
    try:
        row = fatness_check(g, mu, fpts, bpts)["fat"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fpts) * len(bpts) * 2 * 2 * 8 >= 32 * dual._SCRATCH_BYTES
    assert peak <= 8 * dual._SCRATCH_BYTES
    assert (row.residual, row.details, row.verdict) == (whole.residual, whole.details, whole.verdict)
    assert 0 < row.details["skipped"] < row.details["pairs"]


def test_fatness_takes_an_overflowing_pairing_as_large(r4):
    """A finite pairing whose Pfaffian terms overflow to ``inf - inf`` counts as fat, not as the block's minimum.

    ``F = 2 da^db + da^dc + db^dd + dc^dd`` has ``Pf(F) = 2 - 1 = 1``; at
    ``mu = 1e160`` both products overflow and their difference is nan.  The
    small pair after it in the same block is the minimum.
    """
    a, b, c, _ = (coordinate(r4, k) for k in range(4))
    A = DifferentialForm(r4, 1, {(1,): 2.0 * a, (2,): a, (3,): b + c})
    g = GaugeChart(r4, (A,))
    fiber = Chart("x", ("x",))
    mu = MomentumMap(fiber, (coordinate(fiber, 0),))
    fpts = np.array([[1e160], [1e-3]])
    row = fatness_check(g, mu, fpts, r4.sample(3, seed=0))["fat"]
    assert row.details["skipped"] == 0
    assert row.details["fiber_point"] == [1e-3]
    assert row.residual == pytest.approx(1e-12, rel=1e-12)
    assert not row.passed


# -- complex structures -----------------------------------------------------


def test_rotation_structure_squares_to_minus_one(r4):
    J = rotation_structure(r4)
    p = (0.1, 0.2, 0.3, 0.4)
    np.testing.assert_allclose(at(J, p) @ at(J, p), -np.eye(4), atol=1e-12)


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
    np.testing.assert_allclose(at(J, p) @ at(J, p), -np.eye(4), atol=1e-12)
    got = nijenhuis(J, basis_vector(r4, 0), basis_vector(r4, 2), p)
    np.testing.assert_allclose(got, [-1.0, 0.0, 0.0, 0.0], atol=1e-10)
    # tensoriality holds even without integrability
    assert nijenhuis_tensoriality(J, basis_vector(r4, 0), basis_vector(r4, 2), p) < 1e-9


def bracket_nijenhuis(J, X, Y, p):
    """The defining formula, with J X as an explicit field and brackets by lie_bracket."""
    n = J.chart.dim

    def turn(Z):
        comps = []
        for i in range(n):
            acc = dual.const(0.0)
            for j in range(n):
                acc = acc + J.entries[i][j] * Z.components[j]
            comps.append(acc)
        return VectorField(J.chart, comps)

    JX, JY = turn(X), turn(Y)
    Jp = at(J, p)
    return (
        at(lie_bracket(X, Y), p)
        - at(lie_bracket(JX, JY), p)
        + Jp @ at(lie_bracket(JX, Y), p)
        + Jp @ at(lie_bracket(X, JY), p)
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


def test_endomorphism_needs_a_square_matrix(r4):
    with pytest.raises(UsageError, match="4 rows of 4 entries"):
        EndomorphismField.from_matrix(r4, np.eye(3))
    with pytest.raises(UsageError, match="4 rows of 4 entries"):
        EndomorphismField(r4, lambda p: [p[:3]] * 4)
    # no sequence where the rows or a row belong
    for entries in (lambda p: None, lambda p: p, lambda p: 3.0, [[1.0, 0.0, 0.0, 0.0]] * 3 + [5]):
        with pytest.raises(UsageError, match="4 rows of 4 entries"):
            EndomorphismField(r4, entries)


def test_an_endomorphism_refuses_an_entry_from_another_chart(plane):
    """An entry that is a field on another chart is refused, as a vector component or form coefficient is."""
    other = Chart("uv", ("u", "v"))
    with pytest.raises(ChartMismatchError, match="endomorphism entries"):
        EndomorphismField(plane, [[coordinate(other, 0), 0.0], [0.0, 1.0]])
    assert EndomorphismField(plane, [[coordinate(plane, 0), 0.0], [0.0, 1.0]]).entries[0][0] is dual.var(0)


def test_conjugate_structure_by_linear_map(plane):
    """Conjugating the rotation by a shear keeps J^2 = -1 and changes the matrix."""
    x, y = coordinate(plane, 0), coordinate(plane, 1)
    psi = SmoothMap(plane, plane, [x + 0.5 * y, y])
    J = conjugate_structure(psi, rotation_structure(plane))
    p = (0.3, 0.8)
    M = at(J, p)
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
        np.testing.assert_allclose(at(J, p), M, atol=1e-12)
        np.testing.assert_allclose(M @ M, -np.eye(4), atol=1e-10)


def test_coupled_structure_preserves_blocks(flat):
    J = coupled_complex_structure(
        flat, rotation_structure(flat.base), rotation_structure(flat.fiber.chart)
    )
    p = (0.6, -0.3, 0.2, 0.9)
    M = at(J, p)
    np.testing.assert_allclose(M @ M, -np.eye(4), atol=1e-10)
    # base block is the base rotation; base rows never see fiber columns
    np.testing.assert_allclose(M[:2, :2], [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(M[:2, 2:], 0.0, atol=1e-12)


@pytest.mark.parametrize("which", ["flat", "s2"])
def test_coupled_structure_matches_gauge_formula(which, flat, s2):
    """J~ from the horizontal lift against its gauge block written out:
    ``-A^a(J1 e_j) rho_a + A^a_j J_fiber rho_a``, from batched A, rho, J1 and J_fiber."""
    if which == "s2":
        c, J_base, J_fiber = s2.objects["coupling"], s2.objects["J_base"], s2.objects["J_fiber"]
    else:
        c, J_base, J_fiber = flat, rotation_structure(flat.base), rotation_structure(flat.fiber.chart)
    pts = c.total.sample(16, seed=2)
    m = c.base_dim
    u, x = pts[:, :m], pts[:, m:]
    J1, Jf = J_base.batch(u), J_fiber.batch(x)
    want = np.zeros((len(pts), c.total.dim, c.total.dim))
    want[:, :m, :m], want[:, m:, m:] = J1, Jf
    for A, rho in zip(c.gauge.potentials, c.action.fields):
        a = np.stack([A.coefficient((i,)).batch(u) for i in range(m)], axis=-1)  # A^a_j, (n, m)
        r = rho.batch(x)  # rho_a, (n, k)
        aJ = np.einsum("ni,nij->nj", a, J1)  # A^a(J1 e_j)
        Jr = np.einsum("nik,nk->ni", Jf, r)  # J_fiber rho_a
        want[:, m:, :m] += -r[:, :, None] * aJ[:, None, :] + Jr[:, :, None] * a[:, None, :]
    got = coupled_complex_structure(c, J_base, J_fiber).batch(pts)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.abs(want[:, m:, :m]).max() > 0.1  # the gauge block is compared on nonzero values


def test_horizontal_identity_takes_one_jet_of_each_block(s2, replayed_tapes):
    """One replay per point set, shared by every pair: the base columns, the fiber columns, the points.

    The base replay holds J_base's jet and the curvature, the fiber replay
    J_fiber's jet and the generators, and the last the lift block's jet and
    Omega.  The counts do not depend on the machine.
    """
    o = s2.objects
    c = o["coupling"]
    pts = c.total.sample(6, seed=3)  # drawn first: the draw replays the chart's domain
    replayed_tapes.clear()
    rep = horizontal_nijenhuis_identity(c, o["J_base"], o["J_fiber"], pts, seed=3, pairs=3)
    assert rep.passed
    m = c.base_dim
    for (_, got), want in zip(replayed_tapes, [pts[:, :m], pts[:, m:], pts], strict=True):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("which", ["flat", "s2"])
def test_assembled_coupled_structure_matches_its_jet(which, flat, s2):
    """J~ and dJ~ assembled from the jets of its blocks equal the jet of ``coupled_complex_structure``'s nodes."""
    if which == "s2":
        c, J_base, J_fiber = s2.objects["coupling"], s2.objects["J_base"], s2.objects["J_fiber"]
    else:
        c, J_base, J_fiber = flat, rotation_structure(flat.base), rotation_structure(flat.fiber.chart)
    pts = c.total.sample(10, seed=5)
    m = c.base_dim
    blocks = dual.jet(J_base.entries, pts[:, :m]) + dual.jet(J_fiber.entries, pts[:, m:])
    got = _coupled_jet(*blocks, *dual.jet(c.lift_block, pts))
    want = dual.jet(coupled_complex_structure(c, J_base, J_fiber).entries, pts)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-14 * (1 + np.abs(w).max()))
    assert np.abs(want[1][:, m:, :m]).max() > 0.1  # the gauge block's derivatives are compared on nonzero values


def test_horizontal_identity_refuses_a_fiber_structure_that_is_not_complex(flat):
    x = coordinate(flat.fiber.chart, 0)
    J_fiber = EndomorphismField(flat.fiber.chart, [[0.0, -1.0], [1.0 + x * x, 0.0]])
    with pytest.raises(InvalidStructureError, match="does not square to -id"):
        horizontal_nijenhuis_identity(flat, rotation_structure(flat.base), J_fiber, flat.total.sample(6, seed=0))


def test_embedding_substitutes_through_one_shared_tape(s2, built_tapes):
    """The embedded coefficients are the nodes one per-coefficient substitution gives, from one tape of them all."""
    c = s2.objects["coupling"]
    omega = c.fiber.omega
    roots = list(omega.coeffs.values())
    shifted = [dual.var(c.base_dim + i) for i in range(omega.chart.dim)]
    alone = [dual.Tape([r]).run(shifted)[0] for r in roots]
    built_tapes.clear()
    embedded = embed_fiber_form(c.total, c.base, omega)
    assert all(f is a for f, a in zip(embedded.coeffs.values(), alone))
    assert not [rs for rs in built_tapes if len(rs) == 1 and any(rs[0] is r for r in roots)]
    assert tuple(map(id, roots)) in dual._TAPES


# One cold pass of every coupling-s2 run at 64 points, printing the number of tapes it builds
# (those that building the manifest takes are not counted).
COLD_PASS = """
from lcslab import dual
from lcslab.gallery import coupling_example_s2

built = []


class Recorded(dual.Tape):
    __slots__ = ()

    def __init__(self, roots):
        built.append(len(roots))
        super().__init__(roots)


dual.Tape = Recorded
man = coupling_example_s2()
built.clear()
for run in man.runs.values():
    run(64, 1, 1e-8)
print(len(built))
"""


def test_coupling_s2_builds_each_tape_once(built_tapes):
    """Tapes built by a pass of every coupling-s2 run at 64 points: 15 cold (22 with a replay per row), none warm.

    The embedded fiber data are kept with the coupling chart and the slice's
    combined fields with the action and momentum, so a second pass finds
    every form and with it every tape (it built 3 when they were built per
    call).  The counts do not depend on the machine.  The cold pass runs in
    a fresh interpreter, since nodes that other tests keep alive spare it
    some tapes.
    """
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cold = subprocess.run([sys.executable, "-c", COLD_PASS], env=env, capture_output=True, text=True, timeout=300)
    assert (cold.stdout, cold.stderr) == ("15\n", "")
    man = coupling_example_s2()
    for run in man.runs.values():
        run(64, 1, 1e-8)
    built_tapes.clear()
    for run in man.runs.values():  # warm
        run(64, 1, 1e-8)
    assert built_tapes == []


def test_verify_coupling_replays_no_tape_twice(s2, replayed_tapes):
    """One ``verify_coupling`` call on coupling-s2 at 64 points replays one tape, once (7 with a replay per row).

    Every row reads the columns of that replay: its forms, the embedded fiber
    data and the lift block.  The counts do not depend on the machine.
    """
    c = s2.objects["coupling"]
    pts = c.total.sample(64, seed=1)  # drawn first: the draw replays the chart's domain
    replayed_tapes.clear()
    verify_coupling(c, pts, seed=1)
    assert len(replayed_tapes) == 1 and replayed_tapes[0][1] is pts


def test_base_embedding_keeps_the_base_nodes(s2, monkeypatch):
    """Base coordinates come first on the product chart, so base data is embedded without a substitution."""
    c = s2.objects["coupling"]
    A = c.gauge.potentials[0]
    with monkeypatch.context() as m:
        m.setattr(dual, "tape", None)  # no tape is built or replayed
        m.setattr(dual, "Tape", None)
        embedded = embed_base_form(c.total, c.base, A)
    assert embedded.chart is c.total and embedded.coeffs.keys() == A.coeffs.keys()
    assert all(embedded.coeffs[I] is f for I, f in A.coeffs.items())
    X = VectorField(c.base, [coordinate(c.base, 1), constant(c.base, 0.5)])
    assert all(a is b for a, b in zip(c.lift(X).components, X.components))


def test_horizontal_nijenhuis_identity(flat):
    rep = horizontal_nijenhuis_identity(
        flat,
        rotation_structure(flat.base),
        rotation_structure(flat.fiber.chart),
        flat.total.sample(6, seed=0),
        seed=0,
        tol=1e-7,
        pairs=2,
    )
    assert rep.passed

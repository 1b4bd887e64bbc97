"""Level slices, transversality, and the reduced two-form."""

import dataclasses

import numpy as np
import pytest

from lcslab import dual
from lcslab.actions import ActionSpec, MomentumMap
from lcslab.charts import Chart
from lcslab.coupling import GaugeChart, build_coupling, product_chart
from lcslab.errors import PreconditionError, UsageError
from lcslab.forms import (
    DifferentialForm,
    SmoothMap,
    VectorField,
    basis_vector,
    constant,
    coordinate,
    interior_product,
)
from lcslab.forms import pullback
from lcslab.gallery import coupling_example_s2, hopf
from lcslab.lcs import LCSStructure, skew_matrices
from lcslab.parser import parse_field
from lcslab.reduction import (
    LevelSlice,
    _pulled_back_matrices,
    _require_transverse,
    bundle_momentum_check,
    invariant_hamiltonian_check,
    level_scan,
    product_split_check,
    reduced_form_check,
)
from lcslab.report import form_values
from tests.pointwise import at, base_times, eval_form
from tests.test_coupling import interned_by

# -- a four-dimensional symplectic playground -------------------------------


@pytest.fixture(scope="module")
def phase():
    return Chart("phase", ("q1", "q2", "p1", "p2"))


@pytest.fixture(scope="module")
def symplectic(phase):
    omega = DifferentialForm(phase, 2, {(0, 2): 1.0, (1, 3): 1.0})
    return LCSStructure(phase, omega, DifferentialForm.zero(phase, 1))


@pytest.fixture(scope="module")
def shift_action(phase):
    return ActionSpec(phase, [basis_vector(phase, 0)])  # translation in q1


@pytest.fixture(scope="module")
def shift_momentum(phase):
    return MomentumMap(phase, (coordinate(phase, 2),))  # mu = p1


@pytest.fixture(scope="module")
def sheet():
    return Chart("sheet", ("s1", "s2"))


def good_slice(sheet, phase):
    zero = constant(sheet, 0.0)
    return LevelSlice.single(
        SmoothMap(sheet, phase, [zero, coordinate(sheet, 0), zero, coordinate(sheet, 1)]),
        (1.0,),
        name="q1=p1=0",
    )


def test_slice_validation(sheet, phase):
    param = SmoothMap(sheet, phase, [0.0, coordinate(sheet, 0), 0.0, coordinate(sheet, 1)])
    with pytest.raises(UsageError, match="direction"):
        LevelSlice(param, ())
    with pytest.raises(UsageError, match="share a length"):
        LevelSlice(param, ((1.0,), (1.0, 0.0)))


def test_reduction_on_translation_level(symplectic, shift_action, shift_momentum, sheet, phase):
    slc = good_slice(sheet, phase)
    rep = reduced_form_check(symplectic, shift_action, slc, shift_momentum, sheet.sample(32, seed=0))
    assert rep.passed
    assert rep["level[0]"].residual == 0.0
    assert rep["level-isotropy[0]"].residual == 0.0
    assert rep["reduced-closed"].passed  # theta pulls back to zero: symplectic branch
    assert rep["reduced-nondegenerate"].passed
    assert "reduced-lcs" not in [c.id for c in rep.checks]


@pytest.mark.parametrize("direction", [(1.0, -1.0), (1.0, 0.0)])
def test_level_isotropy_matches_pointwise_eval_form(direction):
    """The batched row against ``eval_form`` point by point on the Hopf torus slice.

    The torus is the level of mu_1 - mu_2, so that direction contracts to
    zero; for mu_1 alone the Lee form term leaves a pairing of order one
    along the circle factor, which the two evaluations must agree on.
    """
    man = hopf(2)
    structure, act, mu = man.objects["structure"], man.objects["action"], man.objects["momentum"]
    slc = LevelSlice.single(man.objects["torus_slice"].parametrization, direction)
    param = slc.parametrization
    pts = param.source.sample(32, seed=4)
    rho = direction[0] * act.fields[0] + direction[1] * act.fields[1]
    w = interior_product(rho, structure.omega)
    r = 1.0 / np.sqrt(2.0)
    worst = 0.0
    for tau, sigma in pts:
        # hand-written Jacobian of (tau, r cos sigma, r sin sigma, r cos sigma)
        d_tau = np.array([1.0, 0.0, 0.0, 0.0])
        d_sigma = r * np.array([0.0, -np.sin(sigma), np.cos(sigma), -np.sin(sigma)])
        img = at(param, (tau, sigma))
        worst = max(worst, *(abs(eval_form(w, img, [v], check_domain=False)) for v in (d_tau, d_sigma)))
    row = reduced_form_check(structure, act, slc, mu, points=pts)["level-isotropy[0]"]
    assert row.details == {"skipped": 0, "points": 32}
    if direction == (1.0, -1.0):
        assert worst < 1e-14 and row.residual < 1e-14
    else:
        assert worst > 0.1
        assert row.residual == pytest.approx(worst, rel=1e-12)


def test_reduction_rejects_slice_containing_orbit(symplectic, shift_action, shift_momentum, sheet, phase):
    zero = constant(sheet, 0.0)
    along_orbit = LevelSlice.single(
        SmoothMap(sheet, phase, [coordinate(sheet, 0), coordinate(sheet, 1), zero, zero]),
        (1.0,),
    )
    with pytest.raises(PreconditionError, match="not transverse"):
        reduced_form_check(symplectic, shift_action, along_orbit, shift_momentum, sheet.sample(8, seed=0))


# -- the transversality certificate --------------------------------------------


def svd_verdict(pts, J, G):
    """The transversality test by ``matrix_rank`` alone: None, or the error text of a slice that is not transverse."""
    finite = np.isfinite(J).all(axis=(1, 2)) & np.isfinite(G).all(axis=(1, 2))
    scale = np.maximum(np.abs(J).max(axis=(1, 2)), np.abs(G).max(axis=(1, 2)))
    active = np.abs(G).max(axis=1) > 1e-12 * scale[:, None]
    M = np.concatenate([J, np.where(active[:, None, :], G, 0.0)], axis=-1)
    needed = J.shape[-1] + active.sum(axis=1)
    for p, ok, m, need in zip(pts, finite, M, needed):
        if ok and (rank := np.linalg.matrix_rank(m, rtol=1e-9)) < need:
            return f"slice is not transverse at {[round(float(x), 6) for x in p]}: rank {rank} of " + (
                f"[tangent | generators] is below {need}"
            )
    return None


def verdict(pts, J, G):
    try:
        _require_transverse(pts, J, G)
    except PreconditionError as e:
        return str(e)
    return None


@pytest.fixture
def rank_calls(monkeypatch):
    """The stacks ``np.linalg.matrix_rank`` is called on."""
    calls, rank = [], np.linalg.matrix_rank
    monkeypatch.setattr(np.linalg, "matrix_rank", lambda M, **kw: calls.append(M.shape) or rank(M, **kw))
    return calls


def conditioned(rng, n, dim, ratios):
    """``n`` random (dim, len(ratios)) matrices with singular values ``ratios``."""
    U = np.linalg.qr(rng.normal(size=(n, dim, dim)))[0][:, :, : len(ratios)]
    V = np.linalg.qr(rng.normal(size=(n, len(ratios), len(ratios))))[0]
    return U * np.asarray(ratios) @ np.swapaxes(V, 1, 2)


@pytest.mark.parametrize("ratio, transverse", [(1e-8, True), (1e-10, False)])
def test_a_near_threshold_slice_is_decided_by_the_svd(rng, rank_calls, ratio, transverse):
    """Singular-value ratios 1e-8 and 1e-10 straddle ``_RANK_TOL = 1e-9``: the certificate passes them to the SVD."""
    M = conditioned(rng, 16, 4, (1.0, 0.3, ratio))
    M[5:] = conditioned(rng, 11, 4, (1.0, 0.5, 0.2))  # well conditioned: certified
    pts = rng.normal(size=(16, 2))
    want = svd_verdict(pts, M[:, :, :2], M[:, :, 2:])
    assert (want is None) == transverse
    rank_calls.clear()
    assert verdict(pts, M[:, :, :2], M[:, :, 2:]) == want
    assert rank_calls == [(5, 4, 3)]


def test_transversality_edges_match_the_svd(rng, rank_calls):
    """An inactive generator, more columns than rows, entries at 1e+-200 and non-finite entries.

    A generator is active where it exceeds 1e-12 of the point's largest entry,
    so a common scale, 1e200 or 1e-200, leaves the certified verdict as it is.
    """
    pts = rng.normal(size=(6, 2))
    J, G = np.split(conditioned(rng, 6, 4, (1.0, 0.6, 0.2)), [2], axis=-1)
    scales = {"certified": 1.0, "1e200": 1e200, "1e-200": 1e-200}
    for name, s in scales.items():
        rank_calls.clear()
        assert verdict(pts, s * J, s * G) is None and rank_calls == [], name
    at = np.arange(6)[:, None, None]
    cases = {  # (J, G, transverse)
        "inactive": (J, np.where(at < 3, 1e-13, G), True),
        "inactive, J singular": (np.concatenate([J[:, :, :1], J[:, :, :1]], axis=-1), 0.0 * G, False),
        "c > dim": (J[:, :2], G[:, :2], False),
        "c > dim, G inactive": (J[:, :2], 0.0 * G[:, :2], True),
        "1e200 beside 1": (1e200 * J, G, True),  # the generator is 1e-200 of the point's scale: inactive
        "1e200 beside 1e189": (1e200 * J, 1e189 * G, False),  # active, at a singular-value ratio far below 1e-9
        "orbit in the slice": (J, J[:, :, :1], False),
        "non-finite": (np.where(at == 2, np.nan, J), np.where(at == 4, np.inf, J[:, :, :1]), False),
    }
    for name, (J1, G1, transverse) in cases.items():
        rank_calls.clear()
        want = svd_verdict(pts, J1, G1)
        assert (want is None) == transverse and verdict(pts, J1, G1) == want, name
        assert rank_calls, name


@pytest.mark.parametrize("scale", [1.0, 1e-13, 1e-200, 1e200])
def test_an_orbit_in_the_slice_is_refused_at_every_scale(rng, scale):
    """A generator along the slice tangent is active at any common scale of ``[J | G]``, so the slice is refused."""
    J = scale * conditioned(rng, 6, 4, (1.0, 0.6))
    with pytest.raises(PreconditionError, match="rank 2 of"):
        _require_transverse(rng.normal(size=(6, 2)), J, J[:, :, :1])


def test_the_hopf_torus_slice_is_certified_without_an_svd(rank_calls):
    """hopf(2, (1, 2))'s ``reduce`` at 4096 points, seed 1: every slice point is certified, no ``matrix_rank``."""
    rep = hopf(2, (1.0, 2.0)).runs["reduce"](4096, 1, 1e-8)
    assert rep.passed and rank_calls == []


def test_reduction_flags_wrong_level(symplectic, shift_action, shift_momentum, sheet, phase):
    zero = constant(sheet, 0.0)
    off_level = LevelSlice.single(
        SmoothMap(
            sheet, phase, [zero, coordinate(sheet, 0), constant(sheet, 0.3), coordinate(sheet, 1)]
        ),
        (1.0,),
    )
    rep = reduced_form_check(symplectic, shift_action, off_level, shift_momentum, sheet.sample(16, seed=0))
    assert not rep.passed
    assert rep["level[0]"].residual == pytest.approx(0.3)


def test_reduction_direction_length_checked(symplectic, shift_action, shift_momentum, sheet, phase):
    slc = LevelSlice.single(good_slice(sheet, phase).parametrization, (1.0, 0.0))
    with pytest.raises(UsageError, match="direction rows"):
        reduced_form_check(symplectic, shift_action, slc, shift_momentum, sheet.sample(8, seed=0))


def test_trivial_action_identity_slice(phase, symplectic):
    """A generator that vanishes identically asks nothing of the slice."""
    zero_field = VectorField(phase, [0.0, 0.0, 0.0, 0.0])
    act = ActionSpec(phase, [zero_field])
    mu = MomentumMap(phase, (constant(phase, 0.0),))
    wide = Chart("wide", ("t1", "t2", "t3", "t4"))
    ident = LevelSlice.single(
        SmoothMap(wide, phase, [coordinate(wide, i) for i in range(4)]), (1.0,)
    )
    rep = reduced_form_check(symplectic, act, ident, mu, wide.sample(16, seed=0))
    assert rep.passed
    assert rep["reduced-nondegenerate"].passed


# -- invariance of Hamiltonians --------------------------------------------


def rotation_map(chart, angle):
    import math

    x, y = coordinate(chart, 0), coordinate(chart, 1)
    c, s = math.cos(angle), math.sin(angle)
    return SmoothMap(chart, chart, [c * x - s * y, s * x + c * y])


def test_invariant_hamiltonian_passes(plane):
    x, y = coordinate(plane, 0), coordinate(plane, 1)
    rot_field = VectorField(plane, [-y, x])
    act = ActionSpec(plane, [rot_field], elements={"rot": rotation_map(plane, 0.7)})
    mu = MomentumMap(plane, (x * x + y * y,))
    rep = invariant_hamiltonian_check(act, mu, plane.sample(32, seed=0))
    assert rep.passed
    assert rep["invariant[0][rot]"].residual < 1e-12


def test_non_invariant_hamiltonian_flagged(plane):
    x, y = coordinate(plane, 0), coordinate(plane, 1)
    act = ActionSpec(plane, [VectorField(plane, [-y, x])], elements={"rot": rotation_map(plane, 0.7)})
    mu = MomentumMap(plane, (x,))
    rep = invariant_hamiltonian_check(act, mu, plane.sample(32, seed=0))
    assert not rep.passed


def test_invariance_needs_abelian(plane):
    from tests.test_actions import sl2_action

    act = sl2_action(plane)
    mu = MomentumMap(plane, tuple(coordinate(plane, 0) for _ in range(3)))
    with pytest.raises(UsageError, match="abelian"):
        invariant_hamiltonian_check(act, mu, plane.sample(64, seed=0))


def test_no_elements_is_recorded_not_failed(plane):
    act = ActionSpec(plane, [basis_vector(plane, 0)])
    mu = MomentumMap(plane, (coordinate(plane, 0),))
    rep = invariant_hamiltonian_check(act, mu, plane.sample(8, seed=0))
    assert rep.passed
    assert rep["elements"].verdict == "recorded"


# -- level scans ------------------------------------------------------------


def test_level_scan_finds_zero_circle(plane):
    x, y = coordinate(plane, 0), coordinate(plane, 1)
    mu = MomentumMap(plane, (x * x + y * y - constant(plane, 0.5),))
    rep = level_scan(plane, mu, (1.0,), plane.sample(256, seed=0))
    row = rep["zero-level"]
    assert row.passed and row.verdict == "present in chart"
    px, py = row.details["point"]
    assert px * px + py * py == pytest.approx(0.5, abs=0.1)


def test_level_scan_reports_empty_level(plane):
    x, y = coordinate(plane, 0), coordinate(plane, 1)
    mu = MomentumMap(plane, (x * x + y * y + constant(plane, 1.0),))
    rep = level_scan(plane, mu, (1.0,), plane.sample(128, seed=0))
    row = rep["zero-level"]
    assert row.passed and row.verdict == "no zero level in chart"
    assert row.residual >= 1.0
    assert row.details["skipped"] == 0

    # a momentum undefined for x < 0.9: skipped points counted, and too many of them leave no verdict
    box = Chart("box", ("x", "y"), box=((-1.0, 1.0), (-1.0, 1.0)))
    mu = MomentumMap(box, (parse_field("sqrt(x - 0.9) + y", box),))
    row = level_scan(box, mu, (1.0,), box.sample(64, seed=0))["zero-level"]
    assert not row.passed and row.verdict == "inconclusive"
    assert (row.details["skipped"], row.details["points"]) == (61, 64)
    assert row.details["point"][0] >= 0.9


def test_level_scan_is_inconclusive_when_over_a_fifth_of_the_points_are_skipped():
    """``sqrt(x) + 0.5`` is nowhere near zero, but 28 of 64 samples have x < 0: no "no zero level" verdict."""
    box = Chart("r2", ("x", "y"), box=((-1.0, 1.0), (-1.0, 1.0)))
    mu = MomentumMap(box, (parse_field("sqrt(x) + 0.5", box),))
    row = level_scan(box, mu, (1.0,), box.sample(64, seed=0))["zero-level"]
    assert (row.passed, row.verdict) == (False, "inconclusive")
    assert (row.details["skipped"], row.details["points"]) == (28, 64)
    assert row.residual >= 0.5  # the minimum over the finite samples is still recorded


def test_level_scan_with_no_finite_sample_is_inconclusive():
    """``sqrt(x - 10)`` is defined nowhere on the box: every point is skipped, and the row names none."""
    box = Chart("r2", ("x", "y"), box=((-1.0, 1.0), (-1.0, 1.0)))
    mu = MomentumMap(box, (parse_field("sqrt(x - 10)", box),))
    row = level_scan(box, mu, (1.0,), box.sample(64, seed=0))["zero-level"]
    assert (row.passed, row.verdict, row.residual) == (False, "inconclusive", np.inf)
    assert (row.details["skipped"], row.details["points"]) == (64, 64)
    assert "point" not in row.details
    with pytest.raises(UsageError, match="at least one sample point"):  # an empty scan shows no absent level
        level_scan(box, mu, (1.0,), np.empty((0, 2)))


# -- momenta on the assembled product ---------------------------------------


@pytest.fixture(scope="module")
def bundle():
    base = Chart("uvb", ("u", "v"))
    fiber = Chart("xyb", ("x", "y"))
    x, y = coordinate(fiber, 0), coordinate(fiber, 1)
    eta = DifferentialForm(fiber, 1, {(1,): x})
    omega = DifferentialForm(fiber, 2, {(0, 1): 1.0})
    structure = LCSStructure(fiber, omega, DifferentialForm.zero(fiber, 1), potential=eta)
    good = SmoothMap(fiber, fiber, [x, y + 0.4])
    bad = SmoothMap(fiber, fiber, [x + 0.3, y])
    act = ActionSpec(
        fiber, [basis_vector(fiber, 1)], elements={"shift-y": good, "shift-x": bad}
    )
    mu = MomentumMap(fiber, (-x,))
    A = DifferentialForm(base, 1, {(1,): coordinate(base, 0)})
    return build_coupling(GaugeChart(base, (A,)), structure, act, mu, fiber.sample(16, seed=0))


def test_bundle_momentum_rows(bundle):
    rep = bundle_momentum_check(bundle, bundle.total.sample(24, seed=0))
    assert rep["bundle-momentum[0]"].passed
    assert rep["level-product[0]"].residual == 0.0
    # the y-translation is the action's own flow direction: preserved
    assert rep["omega-invariant[shift-y]"].passed
    # translating x moves the Hamiltonian, so the mu F term shifts the form
    assert not rep["omega-invariant[shift-x]"].passed


@pytest.mark.parametrize("example", ["bundle", "s2"])
def test_invariance_matrices_match_the_pulled_back_form(example, bundle):
    """``DG^T W(G p) DG`` from one jet of the fiber element equals the pullback of Omega by ``id x g``."""
    c = bundle if example == "bundle" else coupling_example_s2().objects["coupling"]
    pts = c.total.sample(12, seed=6)
    for g in c.action.elements.values():
        got = _pulled_back_matrices(c, pts, *dual.jet(g.components, pts[:, c.base_dim :]))
        want = skew_matrices(pullback(base_times(c.base, g, c.total, c.total), c.Omega), pts)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * (1 + np.abs(want).max()))
        assert np.abs(want).max() > 0.1


def node_product_residuals(c, slc: LevelSlice, pts: np.ndarray) -> tuple[dict, float]:
    """The product rows' residuals from node pullbacks of Omega by ``id x slice`` and of the fiber form by the slice.

    ``pts`` lie on base x slice source.  Returns the residual per row id and
    the largest coefficient magnitude.
    """
    base, param = c.base, slc.parametrization
    total_src = product_chart(base, param.source)
    m = base.dim
    pulled = form_values(pullback(base_times(base, param, total_src, c.total), c.Omega), pts)
    reduced = form_values(pullback(param, c.fiber.omega), pts[:, m:])
    zero = np.zeros(len(pts))
    blocks = {
        "product-cross": [v for (i, j), v in pulled.items() if i < m <= j],
        "product-fiber": [v - reduced.get((i - m, j - m), zero) for (i, j), v in pulled.items() if i >= m],
        "product-base": [v for (i, j), v in pulled.items() if j < m],
    }
    scale = float(np.abs(np.stack(list(pulled.values()))).max())
    return {k: float(np.abs(np.stack([zero, *v])).max()) for k, v in blocks.items()}, scale


@pytest.mark.parametrize("example", ["bundle", "s2"])
def test_product_split_rows_match_the_node_pullbacks(example, bundle, monkeypatch):
    """The block split from skew matrices and one jet of the slice map: the node pullbacks' numbers, no node per call."""
    if example == "s2":
        o = coupling_example_s2().objects
        c, slc = o["coupling"], o["zero_slice"]
    else:  # a sheet across the fiber, no level: every block is compared on nonzero values
        c = bundle
        sheet = Chart("sheet-b", ("s1", "s2"), ((-1.0, 1.0), (-1.0, 1.0)))
        s1, s2 = coordinate(sheet, 0), coordinate(sheet, 1)
        slc = LevelSlice.single(SmoothMap(sheet, c.fiber.chart, [s1 + 0.5 * s2 * s2, s2 - 0.3 * s1 * s2]), (1.0,))
    pts = product_chart(c.base, slc.parametrization.source).sample(16, seed=6)
    rows = {row.id: row for row in product_split_check(c, slc, pts, 1e-8).checks}
    want, scale = node_product_residuals(c, slc, pts)
    assert set(rows) == set(want)
    for row_id, residual in want.items():
        assert abs(rows[row_id].residual - residual) <= 1e-14 * (1 + scale), row_id
    if example == "bundle":
        assert min(want["product-cross"], want["product-base"]) > 0.1
    assert interned_by(lambda: product_split_check(c, slc, pts, 1e-8), monkeypatch) == 0


def test_bundle_momentum_detects_wrong_hamiltonian(bundle):
    fiber = bundle.fiber.chart
    x, y = coordinate(fiber, 0), coordinate(fiber, 1)
    crooked = MomentumMap(fiber, (-x + y * y,))
    rep = bundle_momentum_check(dataclasses.replace(bundle, momentum=crooked), bundle.total.sample(16, seed=0))
    assert not rep["bundle-momentum[0]"].passed


def test_bundle_momentum_needs_abelian():
    """Three copies of the same translation wearing sl(2) constants.

    The bracket relations are false for these fields, but neither the
    dataclass constructors nor build_coupling re-derive them, so this is a
    legal way to reach the guard.
    """
    from tests.test_actions import sl2_constants

    base = Chart("uvn", ("u", "v"))
    fiber = Chart("xyn", ("x", "y"))
    x = coordinate(fiber, 0)
    omega = DifferentialForm(fiber, 2, {(0, 1): 1.0})
    structure = LCSStructure(fiber, omega, DifferentialForm.zero(fiber, 1))
    act = ActionSpec(fiber, [basis_vector(fiber, 1)] * 3, sl2_constants())
    mu = MomentumMap(fiber, (-x, -x, -x))
    A = DifferentialForm.zero(base, 1)
    g = GaugeChart(base, (A, A, A), sl2_constants())
    c = build_coupling(g, structure, act, mu, fiber.sample(8, seed=0))
    with pytest.raises(UsageError, match="abelian"):
        bundle_momentum_check(c, c.total.sample(4, seed=0))

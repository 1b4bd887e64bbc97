"""Level slices, transversality, and the reduced two-form."""

import numpy as np
import pytest

from lcslab.actions import ActionSpec, MomentumMap
from lcslab.charts import Chart
from lcslab.coupling import GaugeChart, build_coupling
from lcslab.errors import PreconditionError, UsageError
from lcslab.forms import (
    DifferentialForm,
    SmoothMap,
    VectorField,
    basis_vector,
    constant,
    coordinate,
    eval_form,
    interior_product,
)
from lcslab.gallery import hopf
from lcslab.lcs import LCSStructure
from lcslab.parser import parse_field
from lcslab.reduction import (
    LevelSlice,
    bundle_momentum_check,
    invariant_hamiltonian_check,
    level_scan,
    reduced_form_check,
)

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
    rep = reduced_form_check(symplectic, shift_action, slc, shift_momentum, n=32, seed=0)
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
        img = param.at((tau, sigma))
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
        reduced_form_check(symplectic, shift_action, along_orbit, shift_momentum, n=8)


def test_reduction_flags_wrong_level(symplectic, shift_action, shift_momentum, sheet, phase):
    zero = constant(sheet, 0.0)
    off_level = LevelSlice.single(
        SmoothMap(
            sheet, phase, [zero, coordinate(sheet, 0), constant(sheet, 0.3), coordinate(sheet, 1)]
        ),
        (1.0,),
    )
    rep = reduced_form_check(symplectic, shift_action, off_level, shift_momentum, n=16)
    assert not rep.passed
    assert rep["level[0]"].residual == pytest.approx(0.3)


def test_reduction_direction_length_checked(symplectic, shift_action, shift_momentum, sheet, phase):
    slc = LevelSlice.single(good_slice(sheet, phase).parametrization, (1.0, 0.0))
    with pytest.raises(UsageError, match="direction rows"):
        reduced_form_check(symplectic, shift_action, slc, shift_momentum, n=8)


def test_trivial_action_identity_slice(phase, symplectic):
    """A generator that vanishes identically asks nothing of the slice."""
    zero_field = VectorField(phase, [0.0, 0.0, 0.0, 0.0])
    act = ActionSpec(phase, [zero_field])
    mu = MomentumMap(phase, (constant(phase, 0.0),))
    wide = Chart("wide", ("t1", "t2", "t3", "t4"))
    ident = LevelSlice.single(
        SmoothMap(wide, phase, [coordinate(wide, i) for i in range(4)]), (1.0,)
    )
    rep = reduced_form_check(symplectic, act, ident, mu, n=16)
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
    rep = invariant_hamiltonian_check(act, mu, n=32, seed=0)
    assert rep.passed
    assert rep["invariant[0][rot]"].residual < 1e-12


def test_non_invariant_hamiltonian_flagged(plane):
    x, y = coordinate(plane, 0), coordinate(plane, 1)
    act = ActionSpec(plane, [VectorField(plane, [-y, x])], elements={"rot": rotation_map(plane, 0.7)})
    mu = MomentumMap(plane, (x,))
    rep = invariant_hamiltonian_check(act, mu, n=32, seed=0)
    assert not rep.passed


def test_invariance_needs_abelian(plane):
    from tests.test_actions import sl2_action

    act = sl2_action(plane)
    mu = MomentumMap(plane, tuple(coordinate(plane, 0) for _ in range(3)))
    with pytest.raises(UsageError, match="abelian"):
        invariant_hamiltonian_check(act, mu)


def test_no_elements_is_recorded_not_failed(plane):
    act = ActionSpec(plane, [basis_vector(plane, 0)])
    mu = MomentumMap(plane, (coordinate(plane, 0),))
    rep = invariant_hamiltonian_check(act, mu, n=8)
    assert rep.passed
    assert rep["elements"].verdict == "recorded"


# -- level scans ------------------------------------------------------------


def test_level_scan_finds_zero_circle(plane):
    x, y = coordinate(plane, 0), coordinate(plane, 1)
    mu = MomentumMap(plane, (x * x + y * y - constant(plane, 0.5),))
    rep = level_scan(plane, mu, (1.0,), n=256, seed=0)
    row = rep["zero-level"]
    assert row.passed and row.verdict == "present in chart"
    px, py = row.details["point"]
    assert px * px + py * py == pytest.approx(0.5, abs=0.1)


def test_level_scan_reports_empty_level(plane):
    x, y = coordinate(plane, 0), coordinate(plane, 1)
    mu = MomentumMap(plane, (x * x + y * y + constant(plane, 1.0),))
    rep = level_scan(plane, mu, (1.0,), n=128, seed=0)
    row = rep["zero-level"]
    assert row.passed and row.verdict == "no zero level in chart"
    assert row.residual >= 1.0
    assert row.details["skipped"] == 0

    # a momentum undefined for x < 0.9: the same classification, skipped points counted
    box = Chart("box", ("x", "y"), box=((-1.0, 1.0), (-1.0, 1.0)))
    mu = MomentumMap(box, (parse_field("sqrt(x - 0.9) + y", box),))
    row = level_scan(box, mu, (1.0,), n=64, seed=0)["zero-level"]
    assert row.passed and row.verdict == "no zero level in chart"
    assert (row.details["skipped"], row.details["points"]) == (61, 64)
    assert row.details["point"][0] >= 0.9


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
    return build_coupling(GaugeChart(base, (A,)), structure, act, mu, n=16)


def test_bundle_momentum_rows(bundle):
    rep = bundle_momentum_check(bundle, n=24, seed=0)
    assert rep["bundle-momentum[0]"].passed
    assert rep["level-product[0]"].residual == 0.0
    # the y-translation is the action's own flow direction: preserved
    assert rep["omega-invariant[shift-y]"].passed
    # translating x moves the Hamiltonian, so the mu F term shifts the form
    assert not rep["omega-invariant[shift-x]"].passed


def test_bundle_momentum_detects_wrong_hamiltonian(bundle):
    fiber = bundle.fiber.chart
    x, y = coordinate(fiber, 0), coordinate(fiber, 1)
    crooked = MomentumMap(fiber, (-x + y * y,))
    rep = bundle_momentum_check(bundle, mu=crooked, n=16, seed=0)
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
    c = build_coupling(g, structure, act, mu, n=8)
    with pytest.raises(UsageError, match="abelian"):
        bundle_momentum_check(c, n=4)

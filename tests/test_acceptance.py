"""End-to-end acceptance suite.

Every tolerance here is a contract: loosening one is a bug, not a fix.  The
checks run the library through its public surface — gallery manifests, the
verification reports, and the command-line driver — at full sample counts.
"""

import json
import time

import numpy as np
import pytest

from lcslab.actions import (
    automorphic_constants,
    deck_homothety,
    verify_twisted_hamiltonian,
)
from lcslab.charts import Chart
from lcslab.cohomology import betti, circle, product_complex, simplex_boundary
from lcslab.cli import main
from lcslab.coupling import (
    GaugeChart,
    fatness_check,
    gauge_curvature,
    horizontal_nijenhuis_identity,
    rotation_structure,
    verify_coupling,
)
from lcslab.forms import (
    DifferentialForm,
    basis_vector,
    contract,
    exterior_derivative,
    interior_product,
    lie_derivative,
    pullback,
    SmoothMap,
    wedge,
)
from lcslab.gallery import coupling_example_s2, hopf, inoue
from lcslab.lcs import solve_lee_form, verify_lcs
from lcslab.parser import parse_field
from lcslab.reduction import bundle_momentum_check, level_scan, reduced_form_check
from lcslab.report import form_max, form_residual, spread

from tests.test_exterior import rand_form, rand_poly, rand_vf
from tests.pointwise import at, lie_bracket, nijenhuis, nijenhuis_tensoriality
from tests.test_cohomology import twisted_coboundary

POINTS = 64
KERNEL_TOL = 1e-9
TRIALS = 10


@pytest.fixture(scope="module")
def space():
    return Chart("accept4", ("a", "b", "c", "d"))


@pytest.fixture(scope="module")
def pts(space):
    return space.sample(POINTS, seed=2024)


@pytest.fixture(scope="module")
def halfspace():
    return inoue()


@pytest.fixture(scope="module")
def bundle():
    return coupling_example_s2((1.0, 1.0))


@pytest.fixture(scope="module")
def bundle_report(bundle):
    coupling = bundle.objects["coupling"]
    return verify_coupling(coupling, coupling.total.sample(POINTS, seed=0), seed=0, tol=1e-8)


# ------------------------------------------------- 1. kernel identities


def test_second_derivative_vanishes_on_random_forms(space, pts):
    rng = np.random.default_rng(41)
    for _ in range(TRIALS):
        for degree in (0, 1, 2):
            alpha = rand_form(space, rng, degree)
            res = form_max(exterior_derivative(exterior_derivative(alpha)), pts)
            assert res < KERNEL_TOL


def test_graded_leibniz_on_random_forms(space, pts):
    rng = np.random.default_rng(42)
    for _ in range(TRIALS):
        p, q = rng.integers(0, 3), rng.integers(0, 2)
        alpha, beta = rand_form(space, rng, int(p)), rand_form(space, rng, int(q))
        left = exterior_derivative(wedge(alpha, beta))
        right = wedge(exterior_derivative(alpha), beta) + (-1.0) ** p * wedge(
            alpha, exterior_derivative(beta)
        )
        res, _ = form_residual(left, right, pts)
        assert res < KERNEL_TOL


def test_derived_lie_derivative_matches_bracket_expansion(space, pts):
    """L_X alpha (Y, Z) against X(alpha(Y,Z)) - alpha([X,Y],Z) - alpha(Y,[X,Z]).

    Small coefficient scales keep the triple products O(1) so the bound is a
    genuine absolute residual, not a relative one in disguise.
    """
    rng = np.random.default_rng(43)
    for _ in range(TRIALS):
        X, Y, Z = (rand_vf(space, rng, scale=0.4) for _ in range(3))
        alpha = rand_form(space, rng, 2, scale=0.4)
        direct = contract(lie_derivative(X, alpha), Y, Z)
        paired = contract(alpha, Y, Z)
        term_y = contract(alpha, lie_bracket(X, Y), Z)
        term_z = contract(alpha, Y, lie_bracket(X, Z))
        worst = 0.0
        for p in pts:
            xw = sum(
                at(X.components[j], p) * at(paired.partial(j), p)
                for j in range(space.dim)
            )
            expect = xw - at(term_y, p) - at(term_z, p)
            worst = max(worst, abs(at(direct, p) - expect))
        assert worst < KERNEL_TOL


def test_pullback_commutes_with_derivative(space, pts):
    rng = np.random.default_rng(44)
    source = Chart("accept2", ("s", "t"))
    phi = SmoothMap(
        source,
        space,
        [
            parse_field(e, source)
            for e in ("s * t", "s^2 - t", "0.5 * t^2", "s + 0.25 * t")
        ],
    )
    spts = source.sample(POINTS, seed=2024)
    for _ in range(TRIALS):
        alpha = rand_form(space, rng, int(rng.integers(0, 3)))
        left = pullback(phi, exterior_derivative(alpha))
        right = exterior_derivative(pullback(phi, alpha))
        res, _ = form_residual(left, right, spts)
        assert res < KERNEL_TOL


# ------------------------------------------- 2. half-space surface suite


def test_halfspace_structure_identity(halfspace):
    structure = halfspace.objects["structure"]
    rep = verify_lcs(structure, structure.chart.sample(POINTS, seed=0), tol=1e-8)
    assert rep.passed
    assert rep["lcs-identity"].residual < 1e-8


def test_halfspace_lee_recovery(halfspace):
    chart = halfspace.objects["chart"]
    omega = halfspace.objects["structure"].omega
    worst = 0.0
    for p in chart.sample(POINTS, seed=1):
        sol = solve_lee_form(omega, p)
        expected = np.zeros(4)
        expected[1] = 1.0 / p[1]
        worst = max(worst, float(np.abs(sol.coefficients - expected).max()))
    assert worst < 1e-7


def test_halfspace_translation_hamiltonian(halfspace):
    chart = halfspace.objects["chart"]
    cover = halfspace.objects["cover_form"]
    ham = halfspace.objects["hamiltonian"]
    res, skipped = form_residual(
        interior_product(basis_vector(chart, 2), cover),
        exterior_derivative(DifferentialForm.from_scalar(ham)),
        chart.sample(POINTS, seed=2),
    )
    assert skipped == 0
    assert res < 1e-9


def test_halfspace_expansion_factor(halfspace):
    sample = halfspace.objects["deck_box"].sample(POINTS, seed=3)
    el = deck_homothety(
        halfspace.objects["deck_maps"]["g0"], halfspace.objects["cover_form"], points=sample
    )
    alpha = halfspace.params["alpha"]
    assert abs(el.factor - 1.0 / alpha) < 1e-8


def test_halfspace_descent_obstruction(halfspace):
    """The parabolic map with nonzero second shear blocks the descent candidate."""
    box = halfspace.objects["deck_box"]
    sample = box.sample(POINTS, seed=4)
    decks = {
        name: deck_homothety(m, halfspace.objects["cover_form"], points=sample, name=name)
        for name, m in halfspace.objects["deck_maps"].items()
        if name == "g2"
    }
    rep = automorphic_constants(decks, halfspace.objects["descent_candidate"], points=sample)
    row = rep["a[g2]"]
    assert row.verdict == "obstructed"
    assert row.residual > 0.1


# --------------------------------------- 3. weighted circle-sphere suite


@pytest.mark.parametrize("weights", [(1.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
def test_weighted_product_structure(weights):
    man = hopf(2, weights)
    structure = man.objects["structure"]
    pts = structure.chart.sample(POINTS, seed=0)
    rep = verify_lcs(structure, pts, tol=1e-8)
    assert rep.passed
    for rho in man.objects["action"].fields:
        assert spread(contract(structure.lee, rho).batch(pts)) <= 1e-9  # theta(rho) is constant
    ham = verify_twisted_hamiltonian(
        structure, man.objects["action"], man.objects["momentum"], pts, tol=1e-8
    )
    assert ham.passed


def test_momentum_value_at_the_pole():
    man = hopf(2, (1.0, 2.0))
    mu = man.objects["momentum"]
    assert abs(at(mu.components[0], man.objects["pole"]) - 1.0) < 1e-9


def test_seven_sphere_contact_restriction():
    man = hopf(4, (1.0, 1.0, 1.0, 1.0))
    rep = man.runs["restriction"](POINTS, 0, 1e-8)
    assert rep["restriction"].residual < 1e-8
    assert rep.passed


# ------------------------------------------------ 4. coupled bundle suite


def test_bundle_curvature_bianchi(bundle):
    gauge = bundle.objects["gauge"]
    _, rep = gauge_curvature(gauge, gauge.base.sample(POINTS, seed=0), tol=1e-8)
    assert rep.passed
    assert rep["bianchi[0]"].residual < 1e-8


def test_bundle_form_is_twisted_closed(bundle_report):
    for pattern in ("vvv", "vvh", "vhv", "hvv", "vhh", "hvh", "hhv", "hhh"):
        assert bundle_report[f"closed[{pattern}]"].residual < 1e-8
    assert bundle_report["closed[coeffs]"].residual < 1e-8


def test_bundle_form_nondegenerate(bundle_report):
    assert bundle_report["nondegenerate"].passed
    assert bundle_report.passed


def test_bundle_fatness_margin(bundle):
    fiber_pts = bundle.objects["fat_fiber"].sample(POINTS, seed=0)
    base_pts = bundle.objects["base"].sample(POINTS, seed=0)
    rep = fatness_check(bundle.objects["gauge"], bundle.objects["momentum"], fiber_pts, base_pts)
    row = rep["fat"]
    assert row.passed
    assert row.residual > 1e-4


def test_bundle_fatness_zero_gauge_control(bundle):
    base = bundle.objects["base"]
    zero = GaugeChart(base, (DifferentialForm.zero(base, 1),))
    fiber_pts = bundle.objects["fat_fiber"].sample(POINTS, seed=0)
    rep = fatness_check(zero, bundle.objects["momentum"], fiber_pts, base.sample(POINTS, seed=0))
    assert not rep["fat"].passed


def test_bundle_structure_equation(bundle):
    rep = bundle.runs["lift-bracket"](POINTS, 0, 1e-8)
    assert rep["lift-bracket"].residual < 1e-8
    assert rep.passed


# --------------------------------------------- 5. combinatorial cohomology


def test_loop_betti_numbers():
    assert betti(circle(3, holonomy=np.log(2.0))) == [0, 0]
    assert betti(circle(3, holonomy=0.0)) == [1, 1]


def test_torus_betti_numbers():
    loop = circle(3)
    torus = product_complex(loop, loop)
    assert betti(torus) == [1, 2, 1]
    twisted = product_complex(circle(3, holonomy=0.8), loop)
    assert betti(twisted) == [0, 0, 0]


def test_product_with_sphere_boundary_betti_and_timing():
    t0 = time.monotonic()
    plain = product_complex(circle(3), simplex_boundary(4))
    assert betti(plain) == [1, 1, 0, 1, 1]
    twisted = product_complex(circle(3, holonomy=1.1), simplex_boundary(4))
    assert betti(twisted) == [0, 0, 0, 0, 0]
    assert time.monotonic() - t0 < 60.0


@pytest.mark.parametrize(
    "K",
    [
        circle(5, holonomy=0.31),
        product_complex(circle(3, holonomy=0.8), circle(3)),
        product_complex(circle(3), simplex_boundary(4)),
    ],
    ids=["loop", "torus", "product"],
)
def test_coboundary_squares_to_zero(K):
    for k in range(K.top):
        M = twisted_coboundary(K, k + 1) @ twisted_coboundary(K, k)
        assert np.abs(M).max(initial=0.0) < 1e-12


# --------------------------------------------------- 6. level reduction


def test_torus_slice_reduction():
    man = hopf(2, (1.0, 1.0))
    rep = reduced_form_check(
        man.objects["structure"],
        man.objects["action"],
        man.objects["torus_slice"],
        man.objects["momentum"],
        man.objects["torus_slice"].parametrization.source.sample(POINTS, seed=0),
        tol=1e-8,
    )
    assert rep["level[0]"].residual < 1e-10
    assert rep["reduced-lee-closed"].residual < 1e-8
    assert rep["reduced-lcs"].residual < 1e-8
    assert rep["reduced-nondegenerate"].passed
    assert rep.passed


def test_diagonal_level_is_empty():
    man = hopf(2, (1.0, 1.0))
    chart = man.objects["chart"]
    rep = level_scan(chart, man.objects["momentum"], (1.0, 1.0), chart.sample(256, seed=0))
    row = rep["zero-level"]
    assert row.verdict == "no zero level in chart"
    assert row.residual > 0.5


def test_bundle_momentum_is_pullback_of_fiber_momentum(bundle):
    coupling = bundle.objects["coupling"]
    rep = bundle_momentum_check(coupling, coupling.total.sample(48, seed=0), tol=1e-8)
    assert rep["bundle-momentum[0]"].residual < 1e-8
    assert rep["level-product[0]"].residual < 1e-8
    assert rep.passed


# ------------------------------------------------- 7. almost complex suite


def test_standard_rotation_is_integrable(space, pts):
    J = rotation_structure(space)
    rng = np.random.default_rng(12)
    worst = 0.0
    for p in pts:
        X, Y = rand_vf(space, rng), rand_vf(space, rng)
        worst = max(worst, float(np.abs(nijenhuis(J, X, Y, p)).max()))
    assert worst < 1e-10


def test_horizontal_torsion_matches_curvature(bundle):
    rep = horizontal_nijenhuis_identity(
        bundle.objects["coupling"],
        bundle.objects["J_base"],
        bundle.objects["J_fiber"],
        bundle.objects["coupling"].total.sample(6, seed=0),
        seed=0,
        pairs=2,
    )
    assert rep["horizontal-identity"].residual < 1e-7


def test_torsion_is_tensorial(space):
    J = rotation_structure(space)
    rng = np.random.default_rng(13)
    for trial in range(5):
        X, Y = rand_vf(space, rng), rand_vf(space, rng)
        p = space.sample(1, seed=100 + trial)[0]
        assert nijenhuis_tensoriality(J, X, Y, p, seed=trial) < 1e-9


# --------------------------------------------------- 8. CLI determinism


GOOD_DOC = json.dumps(
    {
        "chart": {"name": "phase", "coords": ["q", "p"]},
        "forms": {
            "omega": {"degree": 2, "coeffs": {"0,1": "-1"}},
            "zero": {"degree": 1, "coeffs": {}},
        },
        "lcs": {"omega": "omega", "lee": "zero"},
    }
)

BAD_DOC = json.dumps(
    {
        "chart": {"name": "r4", "coords": ["a", "b", "c", "d"]},
        "forms": {
            "omega": {"degree": 2, "coeffs": {"0,1": "1 + a^2", "2,3": "1"}},
            "lee": {"degree": 1, "coeffs": {"0": "1"}},
        },
        "lcs": {"omega": "omega", "lee": "lee"},
    }
)


def test_reports_are_byte_identical_across_runs(capsys):
    argv = ["example", "hopf", "--run", "--points", "16", "--seed", "11", "--format", "json"]
    code1 = main(list(argv))
    first = capsys.readouterr().out
    code2 = main(list(argv))
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second
    json.loads(first)  # well-formed


def test_exit_code_contract(capsys, monkeypatch):
    monkeypatch.delenv("LCSLAB_SEED", raising=False)
    assert main(["verify", GOOD_DOC, "--points", "16"]) == 0
    assert main(["verify", BAD_DOC, "--points", "16"]) == 1
    assert main(["verify", '{"bad": ']) == 2
    capsys.readouterr()

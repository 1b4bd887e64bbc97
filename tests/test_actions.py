"""Actions, momenta, deck transformations and their algebraic checks."""

import gc
import tracemalloc

import numpy as np
import pytest

from itertools import combinations

from lcslab.actions import (
    ActionSpec,
    DeckElement,
    MomentumMap,
    automorphic_constants,
    check_structure_constants,
    deck_homothety,
    momentum_from_potential,
    verify_twisted_hamiltonian,
)
from lcslab.charts import Chart
from lcslab import dual
from lcslab.errors import DomainError, NotHomothetyError, PreconditionError, UsageError
from lcslab.forms import (
    DifferentialForm,
    SmoothMap,
    VectorField,
    basis_vector,
    constant,
    contract,
    coordinate,
    interior_product,
    lie_derivative,
)
from lcslab.gallery import hopf, inoue
from lcslab.lcs import LCSStructure, twisted_derivative
from lcslab.parser import parse_field
from lcslab.report import DEFAULT_TOL, form_residual, form_values, spread, value_array
from tests.pointwise import at, lie_bracket


def sl2_constants():
    """Constants read off the line realization d/dx, x^2 d/dx, x d/dx.

    With [rho_b, rho_c] = -sum_a C[a,b,c] rho_a:
    [rho0, rho1] = 2 rho2, [rho2, rho0] = -rho0, [rho2, rho1] = rho1.
    """
    C = np.zeros((3, 3, 3))
    C[2, 0, 1], C[2, 1, 0] = -2.0, 2.0
    C[0, 2, 0], C[0, 0, 2] = 1.0, -1.0
    C[1, 2, 1], C[1, 1, 2] = -1.0, 1.0
    return C


def sl2_action(plane):
    x = coordinate(plane, 0)
    zero = constant(plane, 0.0)
    one = constant(plane, 1.0)
    fields = [
        VectorField(plane, [one, zero]),
        VectorField(plane, [x * x, zero]),
        VectorField(plane, [x, zero]),
    ]
    return ActionSpec(plane, fields, sl2_constants())


def test_structure_constant_validation():
    np.testing.assert_array_equal(check_structure_constants(sl2_constants(), 3), sl2_constants())
    np.testing.assert_array_equal(check_structure_constants(None, 2), np.zeros((2, 2, 2)))
    with pytest.raises(UsageError, match="cubic"):
        check_structure_constants(np.zeros((2, 2)), 2)
    with pytest.raises(UsageError, match=r"shape \(3, 3, 3\), got \(2, 2, 2\)"):
        check_structure_constants(np.zeros((2, 2, 2)), 3)
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 1] = 1.0  # not antisymmetric
    with pytest.raises(UsageError, match="antisymmetric"):
        check_structure_constants(bad, 2)


def test_jacobi_violation_detected():
    C = np.zeros((3, 3, 3))
    # [e0,e1] ~ e2 and [e0,e2] ~ e0 with incompatible weights
    C[2, 0, 1], C[2, 1, 0] = 1.0, -1.0
    C[0, 0, 2], C[0, 2, 0] = 1.0, -1.0
    C[1, 1, 2], C[1, 2, 1] = 3.0, -3.0
    with pytest.raises(UsageError, match="Jacobi"):
        check_structure_constants(C, 3)


def bracket_defects(act: ActionSpec, pts) -> dict:
    """Max ``|[rho_b, rho_c] + sum_a c^a_bc rho_a|`` over ``pts``, per pair b < c."""
    out = {}
    for b, c in combinations(range(act.dim), 2):
        defect = lie_bracket(act.fields[b], act.fields[c])
        for a in np.flatnonzero(act.constants[:, b, c]):
            defect = defect + float(act.constants[a, b, c]) * act.fields[a]
        out[f"bracket[{b},{c}]"] = float(np.abs(defect.batch(pts)).max())
    return out


def test_bracket_relations_hold_for_sl2(plane):
    defects = bracket_defects(sl2_action(plane), plane.sample(24, seed=2))
    assert set(defects) == {"bracket[0,1]", "bracket[0,2]", "bracket[1,2]"}
    assert max(defects.values()) <= 1e-10


def test_bracket_relations_flag_wrong_constants(plane):
    act = sl2_action(plane)
    wrong = ActionSpec(plane, act.fields, -sl2_constants())
    assert max(bracket_defects(wrong, plane.sample(16, seed=0)).values()) > DEFAULT_TOL


def test_abelian_property(plane):
    shift = ActionSpec(plane, [basis_vector(plane, 0), basis_vector(plane, 1)])
    assert shift.abelian
    assert not sl2_action(plane).abelian


def test_action_spec_validation(plane, r3):
    with pytest.raises(UsageError, match="shape"):
        ActionSpec(plane, [basis_vector(plane, 0)], np.zeros((2, 2, 2)))
    other = SmoothMap(r3, r3, [coordinate(r3, i) for i in range(3)])
    with pytest.raises(UsageError, match="self-map"):
        ActionSpec(plane, [basis_vector(plane, 0)], elements={"g": other})


@pytest.fixture(scope="module")
def qp():
    return Chart("qp", ("q", "p"))


@pytest.fixture(scope="module")
def harmonic(qp):
    """Symplectic plane with potential p dq, written as a Lee-zero structure."""
    eta = DifferentialForm(qp, 1, {(0,): coordinate(qp, 1)})
    omega = DifferentialForm(qp, 2, {(0, 1): -1.0})  # d(p dq) = -dq^dp
    return LCSStructure(qp, omega, DifferentialForm.zero(qp, 1), potential=eta)


def test_lee_homomorphism_constant(qp):
    theta = DifferentialForm(qp, 1, {(0,): 1.0})
    X = VectorField(qp, [constant(qp, 1.0), coordinate(qp, 1)])
    values = contract(theta, X).batch(qp.sample(32, seed=0))
    assert spread(values) <= DEFAULT_TOL
    assert values.mean() == pytest.approx(1.0)


def test_lee_homomorphism_rejects_nonconstant(qp):
    theta = DifferentialForm(qp, 1, {(0,): 1.0})
    X = VectorField(qp, [coordinate(qp, 0), constant(qp, 0.0)])
    assert spread(contract(theta, X).batch(qp.sample(32, seed=0))) > DEFAULT_TOL


def invariance_defects(s: LCSStructure, X: VectorField, n: int) -> tuple[float, float]:
    """Max raw ``|L_X omega - theta(X) omega|`` and ``|L_X omega|`` over ``n`` samples."""
    pts = s.chart.sample(n, seed=0)
    strict = lie_derivative(X, s.omega)
    twisted = strict - contract(s.lee, X) * s.omega
    return tuple(float(np.abs(value_array(form_values(f, pts), len(pts))).max()) for f in (twisted, strict))


def test_invariance_defect_radial_field(qp, harmonic):
    """The Euler field doubles the area form: raw defect exactly 2."""
    X = VectorField(qp, [coordinate(qp, 0), coordinate(qp, 1)])
    twisted, strict = invariance_defects(harmonic, X, 16)
    assert strict == pytest.approx(2.0, abs=1e-12)
    assert twisted == pytest.approx(2.0, abs=1e-12)


def test_invariance_defect_translation(qp, harmonic):
    assert max(invariance_defects(harmonic, basis_vector(qp, 0), 16)) <= DEFAULT_TOL


def test_momentum_from_potential(qp, harmonic):
    act = ActionSpec(qp, [basis_vector(qp, 0)])
    mu, rep = momentum_from_potential(harmonic, act, qp.sample(32, seed=0))
    assert rep.passed
    # mu = -eta(d/dq) = -p
    assert at(mu.components[0], (0.7, 1.3)) == pytest.approx(-1.3)


def test_momentum_needs_invariant_potential(qp, harmonic):
    act = ActionSpec(qp, [basis_vector(qp, 1)])  # translation in p moves p dq
    with pytest.raises(PreconditionError) as ei:
        momentum_from_potential(harmonic, act, qp.sample(16, seed=0))
    assert ei.value.report is not None
    assert not ei.value.report.passed


def test_momentum_needs_a_potential(qp, harmonic):
    bare = LCSStructure(qp, harmonic.omega, harmonic.lee)
    with pytest.raises(UsageError, match="potential"):
        momentum_from_potential(bare, ActionSpec(qp, [basis_vector(qp, 0)]), qp.sample(64, seed=0))


def test_twisted_hamiltonian_rows(qp, harmonic):
    act = ActionSpec(qp, [basis_vector(qp, 0)])
    mu = MomentumMap(qp, (-coordinate(qp, 1),))
    rep = verify_twisted_hamiltonian(harmonic, act, mu, qp.sample(32, seed=0))
    assert rep.passed
    assert [c.id for c in rep.checks] == ["momentum[0]", "invariance[0]", "lee-hom[0]"]


def test_twisted_hamiltonian_catches_wrong_momentum(qp, harmonic):
    act = ActionSpec(qp, [basis_vector(qp, 0)])
    bad = MomentumMap(qp, (-coordinate(qp, 1) + coordinate(qp, 0),))
    rep = verify_twisted_hamiltonian(harmonic, act, bad, qp.sample(32, seed=0))
    assert not rep["momentum[0]"].passed
    assert rep["invariance[0]"].passed


def test_momentum_dimension_mismatch(qp, harmonic):
    act = ActionSpec(qp, [basis_vector(qp, 0)])
    mu = MomentumMap(qp, (-coordinate(qp, 1), coordinate(qp, 0)))
    with pytest.raises(UsageError, match="generators"):
        verify_twisted_hamiltonian(harmonic, act, mu, qp.sample(64, seed=0))


def test_bracket_hamiltonian_identity(qp, harmonic):
    X = basis_vector(qp, 0)
    q = coordinate(qp, 0)
    Y = VectorField(qp, [constant(qp, 0.0), q])  # Hamiltonian field of q^2/2
    # i_[X,Y] omega = -d_theta(omega(X, Y)) for invariant fields with theta(X) = theta(Y) = 0
    lhs = interior_product(lie_bracket(X, Y), harmonic.omega)
    rhs = -twisted_derivative(harmonic.lee, DifferentialForm.from_scalar(contract(harmonic.omega, X, Y)))
    res, _ = form_residual(lhs, rhs, qp.sample(24, seed=0))
    assert res <= DEFAULT_TOL


# -- deck transformations --------------------------------------------------


def test_deck_homothety_contraction(plane):
    w = DifferentialForm(plane, 2, {(0, 1): 1.0})
    half = SmoothMap(plane, plane, [0.5 * coordinate(plane, 0), 0.5 * coordinate(plane, 1)])
    deck = deck_homothety(half, w, plane.sample(40, seed=0), name="half")
    assert deck.factor == pytest.approx(0.25, abs=1e-12)
    assert deck.spread < 1e-12


def test_deck_homothety_rejects_non_homothety(plane):
    x = coordinate(plane, 0)
    w = DifferentialForm(plane, 2, {(0, 1): constant(plane, 1.0) + x * x})
    shift = SmoothMap(plane, plane, [x + 0.5, coordinate(plane, 1)])
    with pytest.raises(NotHomothetyError) as ei:
        deck_homothety(shift, w, plane.sample(40, seed=0))
    assert ei.value.spread > 1e-3


def test_deck_homothety_skips_non_finite_points(plane):
    """Points where the pulled-back coefficient is undefined are skipped, never a NaN factor."""
    w = DifferentialForm(plane, 2, {(0, 1): parse_field("1 + 0 * sqrt(1 - x^2)", plane)})
    double = SmoothMap(plane, plane, [2.0 * coordinate(plane, 0), coordinate(plane, 1)])
    x = plane.sample(64, seed=0)[:, 0]
    deck = deck_homothety(double, w, plane.sample(64, seed=0))
    assert deck.factor == pytest.approx(2.0, abs=1e-12)
    assert deck.spread < 1e-12
    assert (deck.skipped, deck.points) == (int(np.count_nonzero(np.abs(x) > 0.5)), 64)


def test_deck_homothety_says_how_many_samples_stayed_and_how_many_it_needs(plane):
    """Too few samples in all (none leaves the chart) and too few kept are told apart by their counts."""
    w = DifferentialForm(plane, 2, {(0, 1): 1.0})
    same = SmoothMap(plane, plane, [coordinate(plane, 0), coordinate(plane, 1)])
    with pytest.raises(DomainError) as ei:
        deck_homothety(same, w, plane.sample(2, seed=0))
    assert str(ei.value) == "deck map keeps 2 of 2 samples in the chart; it needs at least 4"
    disc = Chart("disc", ("x", "y"), domain=(lambda c: 1.0 - (c[0] * c[0] + c[1] * c[1]),))
    triple = SmoothMap(disc, disc, [3.0 * coordinate(disc, 0), 3.0 * coordinate(disc, 1)])
    kept = int(np.count_nonzero(disc.contains(triple.batch(disc.sample(64, seed=0)))))
    assert 0 < kept < 16
    with pytest.raises(DomainError, match=f"keeps {kept} of 64 samples in the chart; it needs at least 16$"):
        deck_homothety(triple, DifferentialForm(disc, 2, {(0, 1): 1.0}), disc.sample(64, seed=0))


def test_deck_homothety_raises_when_too_few_points_are_finite(plane):
    w = DifferentialForm(plane, 2, {(0, 1): parse_field("1 + 0 * sqrt(0.1 - x^2)", plane)})
    double = SmoothMap(plane, plane, [2.0 * coordinate(plane, 0), coordinate(plane, 1)])
    with pytest.raises(DomainError, match="not finite"):
        deck_homothety(double, w, plane.sample(64, seed=0))


def test_automorphic_constant_counts_skipped_points():
    """Points where f is undefined are skipped and counted, never a pass on the few left."""
    box = Chart("box", ("x", "y"), box=((-1.0, 1.0), (-1.0, 1.0)))
    f = parse_field("sqrt(x - 0.9) + y", box)  # undefined for x < 0.9
    shift = SmoothMap(box, box, [coordinate(box, 0), coordinate(box, 1) + 0.1])
    rep = automorphic_constants({"shift": DeckElement("shift", shift, 1.0)}, f, box.sample(64, seed=0))
    row = rep["a[shift]"]
    assert row.verdict == "inconclusive" and not row.passed
    assert (row.details["skipped"], row.details["points"]) == (61, 64)
    assert row.details["a"] == pytest.approx(0.1, abs=1e-12)  # from the 3 points left


@pytest.fixture(scope="module")
def data():
    return inoue().objects


class TestSolvDecks:
    """Composition laws of the covering data from the surface example."""

    def test_individual_factors(self, data):
        cover = data["cover_form"]
        pts = data["deck_box"].sample(48, seed=3)
        factors = {}
        for name, g in data["deck_maps"].items():
            factors[name] = deck_homothety(g, cover, points=pts, name=name).factor
        assert factors["g0"] == pytest.approx(0.5, abs=1e-10)
        for name in ("g1", "g2", "g3"):
            assert factors[name] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("scale", [1.0, 1e-8, 1e-10, 1e-13, 1e-150])
    def test_a_deck_fit_does_not_depend_on_the_form_scale(self, data, scale):
        """g0 scales the cover form by 1/2 at any scale of the form: no point is dropped by an absolute floor."""
        deck = deck_homothety(data["deck_maps"]["g0"], scale * data["cover_form"], data["deck_box"].sample(64, 1))
        assert deck.factor == pytest.approx(0.5, abs=1e-10) and deck.points == 64

    def test_factor_multiplies_under_composition(self, data):
        cover = data["cover_form"]
        pts = data["deck_box"].sample(48, seed=5)
        g0, g1 = data["deck_maps"]["g0"], data["deck_maps"]["g1"]
        composed = g1.then(g0)  # g0 after g1
        deck = deck_homothety(composed, cover, points=pts, name="g0g1")
        assert deck.factor == pytest.approx(0.5, abs=1e-10)

    def test_automorphic_shift_cocycle(self, data):
        """a_{g o g1} = a_g + c_g a_{g1} for the translation Hamiltonian.

        Frozen endpoints: a_{g0} = 0, a_{g1} = -1, c_{g0} = 1/2, so the
        composite must carry a = -1/2 and shift constant k = -1.
        """
        cover, ham = data["cover_form"], data["hamiltonian"]
        pts = data["deck_box"].sample(48, seed=7)
        g0, g1 = data["deck_maps"]["g0"], data["deck_maps"]["g1"]
        deck = deck_homothety(g1.then(g0), cover, points=pts, name="g0g1")
        rep = automorphic_constants({"g0g1": deck}, ham, points=pts)
        row = rep["a[g0g1]"]
        assert row.passed
        assert row.details["a"] == pytest.approx(-0.5, abs=1e-10)
        assert row.details["k"] == pytest.approx(-1.0, abs=1e-9)

    def test_frozen_shift_constants(self, data):
        cover, ham = data["cover_form"], data["hamiltonian"]
        pts = data["deck_box"].sample(48, seed=9)
        decks = {
            name: deck_homothety(g, cover, points=pts, name=name)
            for name, g in data["deck_maps"].items()
        }
        rep = automorphic_constants(decks, ham, points=pts)
        expected = {"g0": 0.0, "g1": -1.0, "g2": -2.0, "g3": 0.0}
        for name, a in expected.items():
            assert rep[f"a[{name}]"].details["a"] == pytest.approx(a, abs=1e-10)
        # only g0 rescales, so k comes from it alone
        assert rep["k-consistent"].details["k"] == pytest.approx(0.0, abs=1e-10)
        for name in ("g1", "g2", "g3"):
            assert "excluded" in rep[f"a[{name}]"].details


def test_twisted_hamiltonian_replays_one_bounded_tape(monkeypatch):
    """Every Lie-derivative row of one call shares one replay of one tape.

    Counts numeric replays and their steps, which do not depend on the
    machine: the call replays one register program, cold and warm alike,
    of 4,872 steps (7,905 when ``L_rho omega`` took Cartan's second
    derivatives and mixed partials were two nodes).
    """
    objects = hopf(4, (1.0, 1.0, 1.0, 1.0)).objects
    replays = []
    replay = dual.Tape.replay

    def counted(self, points, rows):
        replays.append(len(self.program))
        return replay(self, points, rows)

    pts = objects["chart"].sample(64, seed=0)
    monkeypatch.setattr(dual.Tape, "replay", counted)
    for _ in range(2):  # cold, then warm
        replays.clear()
        rep = verify_twisted_hamiltonian(objects["structure"], objects["action"], objects["momentum"], pts)
        assert rep.passed
        assert len(replays) == 1 and replays[0] <= 5_200


def test_a_warm_twisted_hamiltonian_certificate_replays_in_bounded_memory():
    """hopf(4)'s ``hamiltonian`` run at 4096 points, warm: its tape replays into registers, under 14 MB at the peak.

    Measured with ``tracemalloc``, which numpy's buffers report to, so the
    bound does not depend on the allocator: 11.0 MB, against 16.2 MB when
    every step allocated its result.
    """
    run = hopf(4, (1.0, 1.0, 1.0, 1.0)).runs["hamiltonian"]
    run(4096, 0, 1e-8)  # cold: builds the derived forms and the tape
    gc.collect()
    tracemalloc.start()
    try:
        assert run(4096, 0, 1e-8).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14e6

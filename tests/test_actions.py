"""Actions, momenta, deck transformations and their algebraic checks."""

import numpy as np
import pytest

from lcslab.actions import (
    ActionSpec,
    DeckElement,
    MomentumMap,
    automorphic_constants,
    bracket_hamiltonian_check,
    bracket_relation_check,
    check_structure_constants,
    deck_homothety,
    invariance_defect,
    lee_homomorphism,
    lie_algebra_perfect,
    momentum_from_potential,
    verify_twisted_hamiltonian,
)
from lcslab.charts import Chart
from lcslab.errors import (
    InvariantViolationError,
    NotHomothetyError,
    PreconditionError,
    UsageError,
)
from lcslab.forms import (
    DifferentialForm,
    SmoothMap,
    VectorField,
    basis_vector,
    constant,
    coordinate,
)
from lcslab.gallery import inoue
from lcslab.lcs import LCSStructure
from lcslab.parser import parse_field


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
    check_structure_constants(sl2_constants())  # no raise
    with pytest.raises(UsageError, match="cubic"):
        check_structure_constants(np.zeros((2, 2)))
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 1] = 1.0  # not antisymmetric
    with pytest.raises(UsageError, match="antisymmetric"):
        check_structure_constants(bad)


def test_jacobi_violation_detected():
    C = np.zeros((3, 3, 3))
    # [e0,e1] ~ e2 and [e0,e2] ~ e0 with incompatible weights
    C[2, 0, 1], C[2, 1, 0] = 1.0, -1.0
    C[0, 0, 2], C[0, 2, 0] = 1.0, -1.0
    C[1, 1, 2], C[1, 2, 1] = 3.0, -3.0
    with pytest.raises(UsageError, match="Jacobi"):
        check_structure_constants(C)


def test_bracket_relations_hold_for_sl2(plane):
    rep = bracket_relation_check(sl2_action(plane), n=24, seed=2, tol=1e-10)
    assert rep.passed
    assert {c.id for c in rep.checks} == {"bracket[0,1]", "bracket[0,2]", "bracket[1,2]"}


def test_bracket_relations_flag_wrong_constants(plane):
    act = sl2_action(plane)
    wrong = ActionSpec(plane, act.fields, -sl2_constants())
    rep = bracket_relation_check(wrong, n=16)
    assert not rep.passed


def test_perfect_algebra_detection():
    assert lie_algebra_perfect(sl2_constants())
    assert lie_algebra_perfect(np.zeros((0, 0, 0)))
    assert not lie_algebra_perfect(np.zeros((2, 2, 2)))  # abelian: [g,g] = 0


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
    assert lee_homomorphism(theta, X, n=32) == pytest.approx(1.0)


def test_lee_homomorphism_rejects_nonconstant(qp):
    theta = DifferentialForm(qp, 1, {(0,): 1.0})
    X = VectorField(qp, [coordinate(qp, 0), constant(qp, 0.0)])
    with pytest.raises(InvariantViolationError):
        lee_homomorphism(theta, X, n=32)


def test_invariance_defect_radial_field(qp, harmonic):
    """The Euler field doubles the area form: raw defect exactly 2."""
    X = VectorField(qp, [coordinate(qp, 0), coordinate(qp, 1)])
    rep = invariance_defect(harmonic, X, n=16)
    assert not rep.passed
    assert rep["strict-defect"].residual == pytest.approx(2.0, abs=1e-12)
    assert rep["twisted-defect"].residual == pytest.approx(2.0, abs=1e-12)


def test_invariance_defect_translation(qp, harmonic):
    rep = invariance_defect(harmonic, basis_vector(qp, 0), n=16)
    assert rep.passed


def test_momentum_from_potential(qp, harmonic):
    act = ActionSpec(qp, [basis_vector(qp, 0)])
    mu, rep = momentum_from_potential(harmonic, act, n=32)
    assert rep.passed
    # mu = -eta(d/dq) = -p
    assert mu.components[0].at((0.7, 1.3)) == pytest.approx(-1.3)


def test_momentum_needs_invariant_potential(qp, harmonic):
    act = ActionSpec(qp, [basis_vector(qp, 1)])  # translation in p moves p dq
    with pytest.raises(PreconditionError) as ei:
        momentum_from_potential(harmonic, act, n=16)
    assert ei.value.report is not None
    assert not ei.value.report.passed


def test_momentum_needs_a_potential(qp, harmonic):
    bare = LCSStructure(qp, harmonic.omega, harmonic.lee)
    with pytest.raises(UsageError, match="potential"):
        momentum_from_potential(bare, ActionSpec(qp, [basis_vector(qp, 0)]))


def test_twisted_hamiltonian_rows(qp, harmonic):
    act = ActionSpec(qp, [basis_vector(qp, 0)])
    mu = MomentumMap(qp, (-coordinate(qp, 1),))
    rep = verify_twisted_hamiltonian(harmonic, act, mu, n=32)
    assert rep.passed
    assert [c.id for c in rep.checks] == ["momentum[0]", "invariance[0]", "lee-hom[0]"]


def test_twisted_hamiltonian_catches_wrong_momentum(qp, harmonic):
    act = ActionSpec(qp, [basis_vector(qp, 0)])
    bad = MomentumMap(qp, (-coordinate(qp, 1) + coordinate(qp, 0),))
    rep = verify_twisted_hamiltonian(harmonic, act, bad, n=32)
    assert not rep["momentum[0]"].passed
    assert rep["invariance[0]"].passed


def test_momentum_dimension_mismatch(qp, harmonic):
    act = ActionSpec(qp, [basis_vector(qp, 0)])
    mu = MomentumMap(qp, (-coordinate(qp, 1), coordinate(qp, 0)))
    with pytest.raises(UsageError, match="generators"):
        verify_twisted_hamiltonian(harmonic, act, mu)


def test_bracket_hamiltonian_identity(qp, harmonic):
    X = basis_vector(qp, 0)
    q = coordinate(qp, 0)
    Y = VectorField(qp, [constant(qp, 0.0), q])  # Hamiltonian field of q^2/2
    rep = bracket_hamiltonian_check(harmonic, X, Y, n=24)
    assert rep["bracket-identity"].passed
    assert rep["pre-invariance-X"].details.get("recorded")


# -- deck transformations --------------------------------------------------


def test_deck_homothety_contraction(plane):
    w = DifferentialForm(plane, 2, {(0, 1): 1.0})
    half = SmoothMap(plane, plane, [0.5 * coordinate(plane, 0), 0.5 * coordinate(plane, 1)])
    deck = deck_homothety(half, w, n=40, name="half")
    assert deck.factor == pytest.approx(0.25, abs=1e-12)
    assert deck.spread < 1e-12


def test_deck_homothety_rejects_non_homothety(plane):
    x = coordinate(plane, 0)
    w = DifferentialForm(plane, 2, {(0, 1): constant(plane, 1.0) + x * x})
    shift = SmoothMap(plane, plane, [x + 0.5, coordinate(plane, 1)])
    with pytest.raises(NotHomothetyError) as ei:
        deck_homothety(shift, w, n=40)
    assert ei.value.spread > 1e-3


def test_automorphic_constant_counts_skipped_points():
    """Points where f is undefined are skipped and counted, never a pass on the few left."""
    box = Chart("box", ("x", "y"), box=((-1.0, 1.0), (-1.0, 1.0)))
    f = parse_field("sqrt(x - 0.9) + y", box)  # undefined for x < 0.9
    shift = SmoothMap(box, box, [coordinate(box, 0), coordinate(box, 1) + 0.1])
    rep = automorphic_constants([DeckElement("shift", shift, 1.0)], f)
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

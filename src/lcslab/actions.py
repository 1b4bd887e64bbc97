"""Twisted Hamiltonian actions: fundamental fields, momenta, deck maps.

An action is concrete data — fundamental vector fields plus structure
constants plus (optionally) named finite maps — never an abstract group.
The bracket convention is ``[rho_b, rho_c] = -sum_a c^a_{bc} rho_a``
(fundamental fields are an anti-homomorphism), and ``constants[a, b, c]``
stores ``c^a_{bc}``.

Every residual row evaluates its forms and fields once on the whole point
batch and reports the raw max magnitude over the points; a sample point where
some value is not finite is skipped and counted, and a row with too many
skipped points is inconclusive rather than passed.  Deck maps send the whole
batch through one evaluation, with one domain test for all the images.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .charts import Chart, check_same_chart, same_chart
from .errors import (
    DomainError,
    InvariantViolationError,
    NotHomothetyError,
    PreconditionError,
    UsageError,
)
from .forms import (
    DifferentialForm,
    ScalarField,
    SmoothMap,
    VectorField,
    contract,
    exterior_derivative,
    interior_product,
    lie_bracket,
    lie_derivative,
    pullback,
)
from .lcs import LCSStructure, residual_check, twisted_derivative
from .report import (
    DEFAULT_TOL,
    CheckResult,
    Report,
    demote_if_sparse,
    finite_points,
    form_array,
    form_max,
    form_values,
    residual_row,
    spread,
)

# Structure constants are exact user input, so their algebraic identities are
# held to near machine precision rather than the sampling tolerance.
_ALGEBRA_TOL = 1e-10


def check_structure_constants(constants: np.ndarray, tol: float = _ALGEBRA_TOL) -> None:
    """Antisymmetry in the lower pair and the Jacobi identity; raises on failure."""
    C = np.asarray(constants, dtype=float)
    if C.ndim != 3 or len(set(C.shape)) > 1:
        raise UsageError("structure constants must form a cubic array c[a, b, c]")
    if C.size and np.abs(C + C.transpose(0, 2, 1)).max() > tol:
        raise UsageError("structure constants must be antisymmetric in the lower indices")
    if C.size:
        # sum over cyclic (a,b,c) of c^e_{ab} c^f_{ec}
        t1 = np.einsum("eab,fec->fabc", C, C)
        jac = t1 + t1.transpose(0, 2, 3, 1) + t1.transpose(0, 3, 1, 2)
        if np.abs(jac).max() > tol:
            raise UsageError(f"structure constants violate the Jacobi identity (max {np.abs(jac).max():.2e})")


@dataclass(frozen=True, eq=False)
class ActionSpec:
    """Fundamental fields ``rho_a`` with their structure constants.

    ``elements`` holds named finite maps of the chart (group elements or deck
    transformations); they are carried along untouched, for the invariance
    and covering checks.
    """

    chart: Chart
    fields: tuple[VectorField, ...]
    constants: np.ndarray | None = None
    elements: Mapping[str, SmoothMap] = field(default_factory=dict)

    def __post_init__(self):
        d = len(self.fields)
        object.__setattr__(self, "fields", tuple(self.fields))
        for rho in self.fields:
            check_same_chart(self.chart, rho.chart, "fundamental fields")
        C = np.zeros((d, d, d)) if self.constants is None else np.asarray(self.constants, dtype=float)
        if C.shape != (d, d, d):
            raise UsageError(f"structure constants must have shape ({d}, {d}, {d}), got {C.shape}")
        check_structure_constants(C)
        object.__setattr__(self, "constants", C)
        object.__setattr__(self, "elements", MappingProxyType(dict(self.elements)))
        for name, g in self.elements.items():
            if not (same_chart(g.source, self.chart) and same_chart(g.target, self.chart)):
                raise UsageError(f"element {name!r} is not a self-map of the action chart")

    @property
    def dim(self) -> int:
        return len(self.fields)

    @property
    def abelian(self) -> bool:
        return bool(self.constants.size == 0 or np.abs(self.constants).max() <= _ALGEBRA_TOL)


@dataclass(frozen=True)
class MomentumMap:
    """One scalar component per generator, on the action's chart."""

    chart: Chart
    components: tuple[ScalarField, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        for mu in self.components:
            check_same_chart(self.chart, mu.chart, "momentum components")

    @property
    def dim(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class DeckElement:
    """A self-map together with its fitted homothety factor ``gamma* Omega = c Omega``."""

    name: str
    map: SmoothMap
    factor: float
    spread: float = 0.0


def bracket_relation_check(
    act: ActionSpec,
    points: np.ndarray | None = None,
    n: int = 32,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> Report:
    """``[rho_b, rho_c] + sum_a c^a_{bc} rho_a = 0`` at samples, pair by pair."""
    pts = act.chart.sample(n, seed) if points is None else np.asarray(points, dtype=float)
    rep = Report("bracket_relation")
    for b in range(act.dim):
        for c in range(b + 1, act.dim):
            defect = lie_bracket(act.fields[b], act.fields[c])
            for a in range(act.dim):
                coef = float(act.constants[a, b, c])
                if coef != 0.0:
                    defect = defect + coef * act.fields[a]
            rep.add(residual_row(f"bracket[{b},{c}]", "[rho_b, rho_c] + c^a_bc rho_a = 0", defect.batch(pts), tol))
    return rep


# --------------------------------------------------------------------------
# the Lee homomorphism


def lee_homomorphism(
    theta: DifferentialForm,
    X: VectorField,
    points: np.ndarray | None = None,
    n: int = 64,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> float:
    """The constant ``theta(X)``; raises when the evaluations are not constant.

    Constancy holds whenever theta is closed and X preserves it; both
    residuals are quoted in the failure message when they explain a spread.
    """
    check_same_chart(theta.chart, X.chart, "lee homomorphism arguments")
    if theta.degree != 1:
        raise UsageError("the Lee homomorphism contracts a 1-form")
    pts = theta.chart.sample(n, seed) if points is None else np.asarray(points, dtype=float)
    vals = contract(theta, X).batch(pts)
    vals = vals[finite_points(vals)]
    if not vals.size:
        raise DomainError("no finite evaluations of theta(X) on the sample")
    dev = spread(vals)
    if dev > tol:
        closed_res = form_max(exterior_derivative(theta), pts)
        inv_res = form_max(lie_derivative(X, theta), pts)
        raise InvariantViolationError(
            f"theta(X) is not constant: spread {dev:.3e} "
            f"(d theta residual {closed_res:.2e}, L_X theta residual {inv_res:.2e})",
            spread=dev,
        )
    return float(vals.mean())


def invariance_defect(
    s: LCSStructure,
    X: VectorField,
    points: np.ndarray | None = None,
    n: int = 64,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> Report:
    """Max residuals of ``L_X omega - theta(X) omega`` and of ``L_X omega`` itself.

    Both small together certify that X preserves omega and pairs to zero with
    the Lee form; a conformal-only field shows up as a matching nonzero pair.
    """
    check_same_chart(s.chart, X.chart, "invariance arguments")
    pts = s.chart.sample(n, seed) if points is None else np.asarray(points, dtype=float)
    lx = lie_derivative(X, s.omega)
    theta_x = contract(s.lee, X)
    rep = Report("invariance_defect")
    twisted = form_array(lx - s.omega * theta_x, pts)
    rep.add(residual_row("twisted-defect", "L_X omega - theta(X) omega = 0", twisted, tol))
    rep.add(residual_row("strict-defect", "L_X omega = 0", form_array(lx, pts), tol))
    return rep


# --------------------------------------------------------------------------
# momentum maps


def _momentum_row(s: LCSStructure, a: int, rho: VectorField, mu_a: ScalarField, pts, tol: float) -> CheckResult:
    """The defining identity ``i_rho omega = d_theta mu`` of one momentum component."""
    return residual_check(
        f"momentum[{a}]",
        "i_rho omega = d_theta mu",
        interior_product(rho, s.omega),
        twisted_derivative(s.lee, DifferentialForm.from_scalar(mu_a)),
        pts,
        tol,
    )


def momentum_from_potential(
    s: LCSStructure,
    act: ActionSpec,
    points: np.ndarray | None = None,
    n: int = 64,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> tuple[MomentumMap, Report]:
    """``mu_a = -eta(rho_a)`` from an invariant potential, plus the verification.

    Hypotheses (eta invariant under each generator, Lee homomorphism zero)
    are enforced; the defining momentum identity ``i_rho omega = d_theta mu``
    is then re-checked numerically and returned alongside the map.
    """
    if s.potential is None:
        raise UsageError("momentum_from_potential needs a structure with a potential 1-form")
    check_same_chart(s.chart, act.chart, "structure and action")
    pts = s.chart.sample(n, seed) if points is None else np.asarray(points, dtype=float)

    hypo = Report("momentum hypotheses")
    for a, rho in enumerate(act.fields):
        hypo.add(
            residual_row(
                f"eta-invariant[{a}]", "L_rho eta = 0", form_array(lie_derivative(rho, s.potential), pts), tol
            )
        )
        hypo.add(residual_row(f"lee-zero[{a}]", "theta(rho) = 0", contract(s.lee, rho).batch(pts), tol))
    if not hypo.passed:
        raise PreconditionError(
            "potential is not invariant enough to define a momentum map", report=hypo
        )

    mu = MomentumMap(s.chart, tuple(-contract(s.potential, rho) for rho in act.fields))
    rep = Report("momentum_from_potential")
    rep.extend(hypo)
    for a, rho in enumerate(act.fields):
        rep.add(_momentum_row(s, a, rho, mu.components[a], pts, tol))
    return mu, rep


def verify_twisted_hamiltonian(
    s: LCSStructure,
    act: ActionSpec,
    mu: MomentumMap,
    points: np.ndarray | None = None,
    n: int = 64,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> Report:
    """Momentum identity, omega-invariance and Lee-pairing zero, per generator."""
    check_same_chart(s.chart, act.chart, "structure and action")
    check_same_chart(s.chart, mu.chart, "structure and momentum")
    if mu.dim != act.dim:
        raise UsageError("momentum map and action have different numbers of generators")
    pts = s.chart.sample(n, seed) if points is None else np.asarray(points, dtype=float)
    rep = Report("verify_twisted_hamiltonian")
    for a, rho in enumerate(act.fields):
        rep.add(_momentum_row(s, a, rho, mu.components[a], pts, tol))
        rep.add(
            residual_row(f"invariance[{a}]", "L_rho omega = 0", form_array(lie_derivative(rho, s.omega), pts), tol)
        )
        rep.add(residual_row(f"lee-hom[{a}]", "theta(rho) = 0", contract(s.lee, rho).batch(pts), tol))
    return rep


def bracket_hamiltonian_check(
    s: LCSStructure,
    X: VectorField,
    Y: VectorField,
    points: np.ndarray | None = None,
    n: int = 64,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> Report:
    """``i_[X,Y] omega + d_theta(omega(X, Y)) = 0`` for invariant Lee-zero fields.

    The precondition residuals (invariance of omega under X and Y, vanishing
    Lee pairing) are recorded for context but never fail the report on their
    own — a violated hypothesis shows up in the identity row itself.
    """
    pts = s.chart.sample(n, seed) if points is None else np.asarray(points, dtype=float)
    rep = Report("bracket_hamiltonian")
    for label, Z in (("X", X), ("Y", Y)):
        rep.add(
            residual_row(
                f"pre-invariance-{label}", "L omega = 0", form_array(lie_derivative(Z, s.omega), pts), tol=None
            )
        )
        rep.add(residual_row(f"pre-lee-{label}", "theta pairing = 0", contract(s.lee, Z).batch(pts), tol=None))
    wxy = contract(s.omega, X, Y)
    rep.add(
        residual_check(
            "bracket-identity",
            "i_[X,Y] omega = -d_theta(omega(X,Y))",
            interior_product(lie_bracket(X, Y), s.omega),
            -twisted_derivative(s.lee, DifferentialForm.from_scalar(wxy)),
            pts,
            tol,
        )
    )
    rep.add(residual_row("omega(X,Y)", "pairing magnitude", wxy.batch(pts), tol=None))
    return rep


def lie_algebra_perfect(constants: np.ndarray, rank_tol: float = 1e-9) -> bool:
    """True iff the brackets span the whole algebra ([g, g] = g)."""
    C = np.asarray(constants, dtype=float)
    check_structure_constants(C)
    d = C.shape[0]
    if d == 0:
        return True
    span = C.reshape(d, d * d).T  # rows indexed by (b, c), columns by a
    return int(np.linalg.matrix_rank(span, rtol=rank_tol)) == d


# --------------------------------------------------------------------------
# deck transformations and automorphic constants


def deck_homothety(
    gamma: SmoothMap,
    Omega: DifferentialForm,
    points: np.ndarray | None = None,
    n: int = 64,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    name: str = "",
) -> DeckElement:
    """Fit the constant ``c`` with ``gamma* Omega = c Omega`` across samples.

    The factor is fitted pointwise by least squares over the coefficient
    values; a spread above tolerance means gamma is no homothety of Omega.
    Sample points whose image leaves the chart are dropped.
    """
    check_same_chart(gamma.source, Omega.chart, "deck transformation and form")
    pts = Omega.chart.sample(n, seed) if points is None else np.asarray(points, dtype=float)
    keep = Omega.chart.contains(gamma.batch(pts))
    pts = pts[keep]
    if len(pts) < max(4, n // 4):
        raise DomainError(
            f"deck map leaves the chart at {np.count_nonzero(~keep)} of {len(keep)} samples"
        )
    pulled = form_values(pullback(gamma, Omega), pts)
    base = form_values(Omega, pts)
    keys = sorted(set(pulled) | set(base))
    A = np.column_stack([pulled.get(I, np.zeros(len(pts))) for I in keys])
    B = np.column_stack([base.get(I, np.zeros(len(pts))) for I in keys])
    norms = np.einsum("ij,ij->i", B, B)
    ok = norms > 1e-18
    if not np.any(ok):
        raise DomainError("form vanishes on all samples; homothety factor is undetermined")
    ratios = np.einsum("ij,ij->i", A, B)[ok] / norms[ok]
    dev = spread(ratios)
    fit_residual = float(np.abs(A[ok] - ratios[:, None] * B[ok]).max())
    if dev > tol or fit_residual > tol * (1.0 + float(np.abs(B).max())):
        raise NotHomothetyError(
            f"gamma* Omega is not a constant multiple of Omega "
            f"(factor spread {dev:.3e}, fit residual {fit_residual:.3e})",
            spread=max(dev, fit_residual),
        )
    return DeckElement(name or "gamma", gamma, float(ratios.mean()), dev)


def automorphic_constants(
    decks: Mapping[str, DeckElement] | list[DeckElement],
    f: ScalarField,
    points: np.ndarray | None = None,
    n: int = 64,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> Report:
    """Constants ``a_gamma = gamma*f - c_gamma f`` and the shift ``k = a/(1-c)``.

    For a Hamiltonian that descends through a covering, every ``a_gamma`` is
    constant and ``k`` does not depend on gamma.  A non-constant ``a_gamma``
    is *the* obstruction and is reported as a failing row, never raised.
    Elements with ``c_gamma = 1`` carry no ``k`` and are flagged as excluded.
    """
    if not isinstance(decks, Mapping):
        decks = {g.name: g for g in decks}
    rep = Report("automorphic_constants")
    ks: dict[str, float] = {}
    for gname, g in sorted(decks.items()):
        chart = f.chart
        pts = chart.sample(n, seed) if points is None else np.asarray(points, dtype=float)
        images = g.map.batch(pts)
        keep = chart.contains(images)
        if not np.any(keep):
            raise DomainError(f"deck element {gname!r} maps every sample outside the chart")
        pts, images = pts[keep], images[keep]
        vals = f.batch(images) - g.factor * f.batch(pts)
        finite = finite_points(vals)
        skipped = int(len(vals) - finite.sum())
        dev = spread(vals[finite])
        a_mean = float(vals[finite].mean()) if finite.any() else np.nan
        details = {"a": a_mean, "factor": g.factor, "points": len(pts), "skipped": skipped}
        if abs(1.0 - g.factor) <= 1e-9:
            details["excluded"] = "homothety factor is 1; k undefined"
        elif finite.any():
            details["k"] = ks[gname] = a_mean / (1.0 - g.factor)
        row = CheckResult(
            f"a[{gname}]",
            "gamma*f - c f constant across samples",
            residual=dev,
            threshold=tol,
            passed=bool(dev <= tol),
            verdict="" if dev <= tol else "obstructed",
            details=details,
        )
        rep.add(demote_if_sparse(row, skipped, len(pts)))
    if ks:
        kvals = np.array(list(ks.values()))
        rep.add(
            CheckResult.from_residual(
                "k-consistent",
                "a_gamma/(1 - c_gamma) independent of gamma",
                spread(kvals),
                tol,
                k=float(kvals.mean()),
                elements=sorted(ks),
            )
        )
    else:
        rep.add(
            CheckResult.recorded(
                "k-consistent", "no elements with factor != 1; shift constant undetermined", 0.0
            )
        )
    return rep

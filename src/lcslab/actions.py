"""Twisted Hamiltonian actions: fundamental fields, momenta, deck maps.

An action is concrete data — fundamental vector fields plus structure
constants plus (optionally) named finite maps — never an abstract group.
The bracket convention is ``[rho_b, rho_c] = -sum_a c^a_{bc} rho_a``
(fundamental fields are an anti-homomorphism), and ``constants[a, b, c]``
stores ``c^a_{bc}``.

Every residual row evaluates its forms and fields once on the whole point
batch and reports the raw max magnitude over the points; a sample point where
some value is not finite is skipped and counted, and a row with too many
skipped points is inconclusive rather than passed.  The Lie-derivative rows
(``invariance``, ``eta-invariant``) use the coordinate formula
(:func:`~lcslab.forms.lie_derivative`), and a report replays every form it
needs at once (:func:`~lcslab.report.batch_values`), so the first
derivatives of the form are evaluated once for all generators.  A check
replays once on its samples, and again only on points that replay computed:
a deck map's images come with the forms it compares (or the function it
moves), with one domain test for all of a map's images; a fitted homothety
counts the points where a coefficient is not finite as skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import dual
from .charts import Chart, check_same_chart, same_chart
from .errors import DomainError, NotHomothetyError, PreconditionError, UsageError
from .forms import (
    DifferentialForm,
    ScalarField,
    SmoothMap,
    VectorField,
    contract,
    interior_product,
    lie_derivative,
    pullback,
)
from .lcs import LCSStructure, twisted_derivative
from .report import (
    DEFAULT_TOL,
    CheckResult,
    Report,
    batch_values,
    demote_if_sparse,
    finite_points,
    residual_row,
    scaled_residuals,
    spread,
    value_array,
)

# Structure constants are exact user input, so their algebraic identities are
# held to near machine precision rather than the sampling tolerance.
_ALGEBRA_TOL = 1e-10


def check_structure_constants(constants: np.ndarray | None, d: int, tol: float = _ALGEBRA_TOL) -> np.ndarray:
    """The constants of a ``d``-dimensional algebra as a (d, d, d) array, zeros for ``None``.

    Raises unless the entries are finite, antisymmetric in the lower pair and
    satisfy the Jacobi identity.
    """
    C = np.zeros((d, d, d)) if constants is None else np.asarray(constants, dtype=float)
    if C.shape != (d, d, d):
        raise UsageError(f"structure constants must form a cubic array c[a, b, c] of shape {(d,) * 3}, got {C.shape}")
    if not np.isfinite(C).all():
        raise UsageError("structure constants must be finite numbers")
    if C.size and np.abs(C + C.transpose(0, 2, 1)).max() > tol:
        raise UsageError("structure constants must be antisymmetric in the lower indices")
    if C.size:
        # sum over cyclic (a,b,c) of c^e_{ab} c^f_{ec}
        t1 = np.einsum("eab,fec->fabc", C, C)
        jac = t1 + t1.transpose(0, 2, 3, 1) + t1.transpose(0, 3, 1, 2)
        if np.abs(jac).max() > tol:
            raise UsageError(f"structure constants violate the Jacobi identity (max {np.abs(jac).max():.2e})")
    return C


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
        object.__setattr__(self, "fields", tuple(self.fields))
        for rho in self.fields:
            check_same_chart(self.chart, rho.chart, "fundamental fields")
        object.__setattr__(self, "constants", check_structure_constants(self.constants, len(self.fields)))
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
    """A self-map together with its fitted homothety factor ``gamma* Omega = c Omega``.

    ``points`` counts the samples the fit saw (those whose image stays in
    the chart) and ``skipped`` those among them with a non-finite coefficient.
    """

    name: str
    map: SmoothMap
    factor: float
    spread: float = 0.0
    points: int = 0
    skipped: int = 0


# --------------------------------------------------------------------------
# momentum maps


def _momentum_forms(s: LCSStructure, rho: VectorField, mu_a: ScalarField) -> list[DifferentialForm]:
    """The two sides of the defining identity ``i_rho omega = d_theta mu`` of one momentum component."""
    return [interior_product(rho, s.omega), twisted_derivative(s.lee, DifferentialForm.from_scalar(mu_a))]


def _momentum_row(a: int, sides: list, n: int, tol: float) -> CheckResult:
    return residual_row(f"momentum[{a}]", "i_rho omega = d_theta mu", scaled_residuals(*sides, n), tol)


def momentum_from_potential(
    s: LCSStructure, act: ActionSpec, points: np.ndarray, tol: float = DEFAULT_TOL
) -> tuple[MomentumMap, Report]:
    """``mu_a = -eta(rho_a)`` from an invariant potential, plus the verification.

    Hypotheses (eta invariant under each generator, Lee homomorphism zero)
    are enforced; the defining momentum identity ``i_rho omega = d_theta mu``
    is then re-checked numerically and returned alongside the map.
    """
    if s.potential is None:
        raise UsageError("momentum_from_potential needs a structure with a potential 1-form")
    check_same_chart(s.chart, act.chart, "structure and action")
    pts = np.asarray(points, dtype=float)

    mu = MomentumMap(s.chart, tuple(-contract(s.potential, rho) for rho in act.fields))
    lie_eta = [lie_derivative(rho, s.potential) for rho in act.fields]
    pairings = [DifferentialForm.from_scalar(contract(s.lee, rho)) for rho in act.fields]
    sides = [f for rho, mu_a in zip(act.fields, mu.components) for f in _momentum_forms(s, rho, mu_a)]
    # one replay for the hypotheses and the identity
    values = batch_values(lie_eta + pairings + sides, pts)
    lie_eta, pairings, sides = values[: act.dim], values[act.dim : 2 * act.dim], values[2 * act.dim :]
    hypo = Report("momentum hypotheses")
    for a in range(act.dim):
        hypo.add(residual_row(f"eta-invariant[{a}]", "L_rho eta = 0", value_array(lie_eta[a], len(pts)), tol))
        hypo.add(residual_row(f"lee-zero[{a}]", "theta(rho) = 0", pairings[a][()], tol))
    if not hypo.passed:
        raise PreconditionError(
            "potential is not invariant enough to define a momentum map", report=hypo
        )

    rep = Report("momentum_from_potential")
    rep.extend(hypo)
    for a in range(act.dim):
        rep.add(_momentum_row(a, sides[2 * a : 2 * a + 2], len(pts), tol))
    return mu, rep


def verify_twisted_hamiltonian(
    s: LCSStructure,
    act: ActionSpec,
    mu: MomentumMap,
    points: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> Report:
    """Momentum identity, omega-invariance and Lee-pairing zero, per generator, at ``points``."""
    check_same_chart(s.chart, act.chart, "structure and action")
    check_same_chart(s.chart, mu.chart, "structure and momentum")
    if mu.dim != act.dim:
        raise UsageError("momentum map and action have different numbers of generators")
    pts = np.asarray(points, dtype=float)
    rep = Report("verify_twisted_hamiltonian")
    forms = []
    for rho, mu_a in zip(act.fields, mu.components):
        forms += _momentum_forms(s, rho, mu_a)
        forms += [lie_derivative(rho, s.omega), DifferentialForm.from_scalar(contract(s.lee, rho))]
    # one replay for every row: omega and its first derivatives are evaluated once
    values = batch_values(forms, pts)
    for a in range(act.dim):
        ip, dmu, lie, pairing = values[4 * a : 4 * a + 4]
        rep.add(_momentum_row(a, [ip, dmu], len(pts), tol))
        rep.add(residual_row(f"invariance[{a}]", "L_rho omega = 0", value_array(lie, len(pts)), tol))
        rep.add(residual_row(f"lee-hom[{a}]", "theta(rho) = 0", pairing[()], tol))
    return rep


# --------------------------------------------------------------------------
# deck transformations and automorphic constants


def deck_homothety(
    gamma: SmoothMap,
    Omega: DifferentialForm,
    points: np.ndarray,
    tol: float = DEFAULT_TOL,
    name: str = "",
) -> DeckElement:
    """Fit the constant ``c`` with ``gamma* Omega = c Omega`` across the sample ``points``.

    The factor is fitted pointwise by least squares over the coefficient
    values; a spread above tolerance means gamma is no homothety of Omega.
    Sample points whose image leaves the chart are dropped; a point where a
    coefficient of ``gamma* Omega`` or of ``Omega`` is not finite is skipped
    and counted.  Fewer than a quarter of the samples (at least 4) left by
    either rule raise :class:`DomainError`.  The fit reads the points where
    ``|Omega|^2`` exceeds 1e-18 of its largest finite value: no scale floor.
    """
    check_same_chart(gamma.source, Omega.chart, "deck transformation and form")
    pts = np.asarray(points, dtype=float)
    need = max(4, len(pts) // 4)
    # one replay on the samples: the images and both forms, read at the samples the chart keeps
    pulled, base, images = batch_values([pullback(gamma, Omega), Omega], pts, gamma.components)
    keep = Omega.chart.contains(images)
    pts, pulled, base = pts[keep], {I: v[keep] for I, v in pulled.items()}, {I: v[keep] for I, v in base.items()}
    if len(pts) < need:
        raise DomainError(
            f"deck map keeps {len(pts)} of {len(keep)} samples in the chart; it needs at least {need}"
        )
    keys = sorted(set(pulled) | set(base))
    A = np.column_stack([pulled.get(I, np.zeros(len(pts))) for I in keys])
    B = np.column_stack([base.get(I, np.zeros(len(pts))) for I in keys])
    finite = finite_points(np.hstack([A, B]))
    skipped = int(len(pts) - finite.sum())
    if len(pts) - skipped < need:
        raise DomainError(f"gamma* Omega or Omega is not finite at {skipped} of {len(pts)} samples")
    A, B = A[finite], B[finite]
    norms = np.einsum("ij,ij->i", B, B)
    ok = norms > 1e-18 * norms[np.isfinite(norms)].max(initial=0.0)
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
    return DeckElement(name or "gamma", gamma, float(ratios.mean()), dev, len(pts), skipped)


def automorphic_constants(
    decks: Mapping[str, DeckElement], f: ScalarField, points: np.ndarray, tol: float = DEFAULT_TOL
) -> Report:
    """Constants ``a_gamma = gamma*f - c_gamma f`` and the shift ``k = a/(1-c)``, at ``points``.

    For a Hamiltonian that descends through a covering, every ``a_gamma`` is
    constant and ``k`` does not depend on gamma.  A non-constant ``a_gamma``
    is *the* obstruction and is reported as a failing row, never raised.
    Elements with ``c_gamma = 1`` carry no ``k`` and are flagged as excluded.
    """
    sample = np.asarray(points, dtype=float)
    rep = Report("automorphic_constants")
    ks: dict[str, float] = {}
    # one replay for f and every deck map on the samples, then one on each map's images
    on_sample, *images = dual.replay([f.node, *(g.map.components for _, g in sorted(decks.items()))], sample)
    for (gname, g), image in zip(sorted(decks.items()), images):
        keep = f.chart.contains(image)
        if not np.any(keep):
            raise DomainError(f"deck element {gname!r} maps every sample outside the chart")
        pts = sample[keep]
        vals = f.batch(image[keep]) - g.factor * on_sample[keep]
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

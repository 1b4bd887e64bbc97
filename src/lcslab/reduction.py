"""Zero-level sets and chart-level reduction checks.

Quotients never appear: a reduced space is represented by an explicit
parametrization of a level slice, and every claim about the quotient becomes
a pointwise identity along that slice — the momentum vanishes on it, the
generators contract trivially with level-tangent vectors, and the pulled-back
pair (theta, omega) is again LCS (or symplectic when theta dies).  For
associated bundles the extra claim is a block split of the coupling form.

A check replays once per point set, and again only on points computed by
that replay: on the slice points the pulled-back forms with the
parametrization's jet (the slice images and Jacobians), then on the images
the generators, momenta and contractions; the transversality test is one
stacked rank computation.  The pullbacks of the coupling form by ``id x g``
(a fiber element or the slice map) are skew matrices ``DG^T W DG`` from one
jet of ``g``, never new nodes, with one replay on each image.  A sample
point where some value is not finite is skipped and counted, and a row with
too many skipped points is inconclusive rather than passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import dual
from .actions import ActionSpec, MomentumMap
from .charts import Chart, check_same_chart
from .coupling import CouplingChart
from .errors import PreconditionError, UsageError
from .forms import (
    DifferentialForm,
    ScalarField,
    SmoothMap,
    VectorField,
    derived,
    exterior_derivative,
    interior_product,
    pullback,
)
from .lcs import LCSStructure, _nondegeneracy_row, skew_matrices, twisted_derivative
from .report import DEFAULT_TOL, CheckResult, Report, _expand, _minor_plan, batch_values, evaluate_form, finite_points
from .report import demote_if_sparse, residual_row, scaled_residuals, triangle, value_array

_RANK_TOL = 1e-9
# _require_transverse certifies full rank where det(M^T M) > _CERTIFIED * tr(M^T M)**c,
# with M's entries |x| <= 1 and at most _CERTIFIED_ROWS rows (2**8 minors a point).
# Rounding: a computed c-row minor is off by at most gamma_64 * perm|M_S| <=
# gamma_64 * tr**(c/2) (perm|M_S| <= the product of the column 1-norms, then
# AM-GM; gamma_n = n u / (1 - n u), u = 2**-53), so the sum of N <= C(8, 4) = 70
# squares is off by < 3 N gamma_71 tr**c < 2e-12 tr**c, and underflow by far less
# (tr >= 1): at a certified point (s_min / s_max)**2 > 0.97e-10, not 1e-18.
_CERTIFIED = 1e-10
_CERTIFIED_ROWS = 8
# How close to zero a sampled momentum must come for its level to count as present.
_LEVEL_MARGIN = 0.01


@dataclass(frozen=True)
class LevelSlice:
    """A parametrized piece of a momentum zero level.

    ``directions`` holds coefficient rows: each row v picks the combination
    sum_a v_a mu_a claimed to vanish on the image of ``parametrization``.
    """

    parametrization: SmoothMap
    directions: tuple[tuple[float, ...], ...]
    name: str = ""

    def __post_init__(self):
        rows = tuple(tuple(float(x) for x in v) for v in self.directions)
        if not rows:
            raise UsageError("a level slice needs at least one momentum direction")
        if len({len(v) for v in rows}) != 1:
            raise UsageError("momentum direction rows must share a length")
        object.__setattr__(self, "directions", rows)

    @staticmethod
    def single(parametrization: SmoothMap, v, name: str = "") -> "LevelSlice":
        return LevelSlice(parametrization, (tuple(v),), name)


@derived
def _combined_generator(act: ActionSpec, v: tuple) -> VectorField:
    out = dual.total((1, coef * rho) for coef, rho in zip(v, act.fields))
    return out or VectorField(act.chart, [0.0] * act.chart.dim)


@derived
def _combined_momentum(mu: MomentumMap, v: tuple) -> ScalarField:
    return dual.total((1, coef * m) for coef, m in zip(v, mu.components)) or ScalarField(mu.chart, 0.0)


def invariant_hamiltonian_check(act: ActionSpec, mu: MomentumMap, points, tol: float = DEFAULT_TOL) -> Report:
    """Each momentum component is unchanged by every finite element of the action, at ``points``.

    Only abelian structure constants are supported; with a nonzero bracket the
    components mix under the group and pointwise invariance is the wrong claim.
    """
    if not act.abelian:
        raise UsageError("invariance of individual Hamiltonians needs an abelian action")
    check_same_chart(act.chart, mu.chart, "action and momentum")
    pts = np.asarray(points, dtype=float)
    rep = Report("invariant_hamiltonian_check")
    if not act.elements:
        rep.add(CheckResult.recorded("elements", "no finite elements supplied", 0.0))
        return rep
    # one replay for the momentum and every element's image, then one on each image
    momentum = [f.node for f in mu.components]
    at_points, *images = dual.replay([momentum, *(g.components for g in act.elements.values())], pts)
    for gname, image in zip(act.elements, images):
        outside = ~act.chart.contains(image)
        at_image = dual.evaluate(momentum, image)
        for a in range(mu.dim):
            # an image outside the chart is a skipped point
            diff = np.where(outside, np.nan, at_image[:, a] - at_points[:, a])
            rep.add(
                residual_row(
                    f"invariant[{a}][{gname}]",
                    "Hamiltonian component is unchanged by the finite element",
                    diff,
                    tol,
                )
            )
    return rep


def bundle_momentum_check(c: CouplingChart, points, tol: float = DEFAULT_TOL) -> Report:
    """The fiber generators are twisted Hamiltonian for the coupling form, at ``points`` of the total chart.

    For each generator the contraction of the vertically-extended field with
    the coupling form must equal the twisted differential of the momentum
    pulled back from the fiber factor, and finite fiber elements must
    preserve the coupling form: ``DG^T W(G p) DG = W(p)`` for ``G = id x g``,
    from Omega's skew matrices ``W`` and one jet of ``g``, in numpy.  The
    points replay once, their fiber columns once (the momentum and every
    element's jet), and each element's image once.
    """
    if not c.action.abelian:
        raise UsageError("bundle momentum checks need an abelian structure group")
    mu = c.momentum
    check_same_chart(mu.chart, c.fiber.chart, "momentum and fiber")
    pts = np.asarray(points, dtype=float)
    m, n, k = c.base_dim, len(pts), c.fiber.chart.dim
    sides, mu_hat = [], c.fiber_momenta
    for rho_hat, f in zip(c.fiber_generators, mu_hat):
        sides += [interior_product(rho_hat, c.Omega), twisted_derivative(c.Theta, DifferentialForm.from_scalar(f))]
    *sides, omega, on_points = batch_values([*sides, c.Omega], pts, [f.node for f in mu_hat])
    jets = [x for g in c.action.elements.values() for x in (g.components, dual.grads(g.components, k))]
    on_fiber, *jets = dual.replay([[f.node for f in mu.components], *jets], pts[:, m:])
    rep = Report("bundle_momentum_check")
    for a in range(c.action.dim):
        claim = "vertical generator contracts to the twisted differential of the pulled-back Hamiltonian"
        rep.add(residual_row(f"bundle-momentum[{a}]", claim, scaled_residuals(*sides[2 * a : 2 * a + 2], n), tol))
        claim = "zero level of the bundle momentum is base times the fiber zero level"
        rep.add(residual_row(f"level-product[{a}]", claim, on_points[:, a] - on_fiber[:, a], tol))
    i, j = triangle(c.total.dim)
    for gname, image, Dg in zip(c.action.elements, jets[::2], jets[1::2]):
        pulled = _pulled_back_matrices(c, pts, image, Dg)[:, i, j].T
        residuals = scaled_residuals(dict(zip(zip(i.tolist(), j.tolist()), pulled)), omega, n)
        claim = "coupling form is preserved by the fiber element"
        rep.add(residual_row(f"omega-invariant[{gname}]", claim, residuals, tol))
    return rep


def _pulled_back_matrices(c: CouplingChart, pts: np.ndarray, image: np.ndarray, Dg: np.ndarray) -> np.ndarray:
    """The skew matrices of ``(id x g)^* Omega`` at every point, ``DG^T W(G p) DG`` with ``DG = diag(I, Dg)``.

    ``g`` maps the fiber columns of ``pts`` into the fiber, not necessarily
    between equal dimensions; ``image`` and ``Dg`` are its values and
    Jacobians there, from one jet.
    """
    m = c.base_dim
    DG = np.zeros((len(pts), m + Dg.shape[1], m + Dg.shape[2]))
    DG[:, :m, :m], DG[:, m:, m:] = np.eye(m), Dg
    return np.swapaxes(DG, 1, 2) @ skew_matrices(c.Omega, np.concatenate([pts[:, :m], image], axis=1)) @ DG


def level_scan(chart: Chart, mu: MomentumMap, direction, points) -> Report:
    """Scan the sample ``points`` of the chart for the zero level of a momentum combination.

    The row's verdict classifies the outcome: "present in chart" when some
    sample comes within ``_LEVEL_MARGIN`` of zero, else "no zero level in chart";
    it is "inconclusive" when too many samples were skipped.  With no finite
    sample the residual is inf and the row names no point.
    """
    check_same_chart(chart, mu.chart, "chart and momentum")
    f = _combined_momentum(mu, tuple(map(float, direction)))
    pts = np.asarray(points, dtype=float)
    if not len(pts):  # no sample can show that a level is absent
        raise UsageError("a level scan needs at least one sample point")
    vals = np.abs(f.batch(pts))
    finite = np.flatnonzero(finite_points(vals))
    skipped = len(pts) - finite.size
    details = {"points": len(pts), "skipped": skipped}
    residual = np.inf
    if finite.size:
        best = finite[vals[finite].argmin()]
        residual, details = float(vals[best]), {"point": [float(x) for x in pts[best]], **details}
    verdict = "present in chart" if residual <= _LEVEL_MARGIN else "no zero level in chart"
    claim = "minimum magnitude of the momentum combination over chart samples"
    row = CheckResult("zero-level", claim, residual, _LEVEL_MARGIN, True, verdict, details)
    rep = Report("level_scan")
    rep.add(demote_if_sparse(row, skipped, len(pts)))
    return rep


def reduced_form_check(
    fiber: LCSStructure,
    act: ActionSpec,
    slc: LevelSlice,
    mu: MomentumMap,
    points,
    tol: float = DEFAULT_TOL,
) -> Report:
    """Pointwise reduction identities along a parametrized level slice, at ``points`` of its source.

    Checks that the claimed momentum combinations vanish on the slice, that
    the slice is transverse to the generator directions it reduces, that the
    generators contract to zero with slice-tangent vectors, and that the
    pulled-back pair (theta, omega) is LCS — symplectic when theta pulls back
    to zero.
    """
    check_same_chart(fiber.chart, act.chart, "structure and action")
    check_same_chart(fiber.chart, mu.chart, "structure and momentum")
    param = slc.parametrization
    check_same_chart(param.target, fiber.chart, "slice target")
    if len(slc.directions[0]) != act.dim:
        raise UsageError(
            f"direction rows have {len(slc.directions[0])} entries for a {act.dim}-generator action"
        )
    src = param.source
    pts = np.asarray(points, dtype=float)

    gen_fields = [_combined_generator(act, v) for v in slc.directions]
    mom_fields = [_combined_momentum(mu, v) for v in slc.directions]
    theta_s, omega_s = pullback(param, fiber.lee), pullback(param, fiber.omega)
    forms = [exterior_derivative(theta_s), theta_s, exterior_derivative(omega_s), twisted_derivative(theta_s, omega_s)]
    # one replay on the slice points, with the slice map's jet, and one on the image
    jet = param.components, dual.grads(param.components, src.dim)
    *values, omega, image, J = batch_values([*forms, omega_s], pts, *jet)
    contractions = [interior_product(rho, fiber.omega) for rho in gen_fields]
    fields = [rho.components for rho in gen_fields], [f.node for f in mom_fields]
    *contractions, generators, momenta = batch_values(contractions, image, *fields)
    _require_transverse(pts, J, np.moveaxis(generators, 1, -1))

    rep = Report("reduced_form_check")
    for idx in range(len(mom_fields)):
        claim = "claimed momentum combination vanishes along the slice"
        rep.add(residual_row(f"level[{idx}]", claim, momenta[:, idx], tol))
    for idx, w in enumerate(contractions):
        pairings = np.stack([evaluate_form(w, J[:, :, j : j + 1]) for j in range(src.dim)], axis=-1)
        claim = "generator contracts to zero with slice-tangent vectors"
        rep.add(residual_row(f"level-isotropy[{idx}]", claim, pairings, tol))

    n = len(pts)
    dtheta, theta, domega, lcs = values
    rep.add(residual_row("reduced-lee-closed", "pulled-back Lee form is closed", scaled_residuals(dtheta, {}, n), tol))
    size = np.abs(value_array(theta, n))
    if size[np.isfinite(size)].max(initial=0.0) <= tol:
        claim = "Lee form pulls back to zero; reduced form is closed"
        rep.add(residual_row("reduced-closed", claim, scaled_residuals(domega, {}, n), tol))
    else:
        claim = "pulled-back pair satisfies the LCS identity"
        rep.add(residual_row("reduced-lcs", claim, scaled_residuals(lcs, {}, n), tol))
    if src.dim % 2 == 0:
        rep.add(_nondegeneracy_row(omega_s, omega, n, tol, "reduced-nondegenerate"))
    else:
        rep.add(
            CheckResult.recorded(
                "reduced-nondegenerate", "odd-dimensional slice: determinant test skipped", 0.0
            )
        )
    return rep


def product_split_check(c: CouplingChart, slc: LevelSlice, points, tol: float = DEFAULT_TOL) -> Report:
    """Pulls the coupling form back to base x slice and requires the base-slice cross block to vanish.

    ``points`` lie on ``product_chart(base, slice source)``.  The slice block
    must equal the reduced fiber form; the base block's magnitude is recorded.
    """
    param = slc.parametrization
    check_same_chart(param.target, c.fiber.chart, "slice target and coupling fiber")
    m = c.base_dim
    pts = np.asarray(points, dtype=float)
    image, Dp = dual.jet(param.components, pts[:, m:])
    pulled = _pulled_back_matrices(c, pts, image, Dp)
    reduced = np.swapaxes(Dp, 1, 2) @ skew_matrices(c.fiber.omega, image) @ Dp

    i, j = np.triu_indices(pts.shape[1], 1)
    upper, on_fiber = pulled[:, i, j], i >= m
    zero = np.zeros(len(pts))  # leads every block, so an empty block reads 0
    cross = upper[:, (i < m) & (j >= m)]
    base_block = upper[:, j < m]
    fiber_gap = upper[:, on_fiber] - reduced[:, i[on_fiber] - m, j[on_fiber] - m]
    rep = Report("product_split_check")
    rep.add(
        residual_row(
            "product-cross",
            "pulled-back coupling form has no base-slice cross terms",
            np.column_stack([zero, cross]),
            tol,
        )
    )
    rep.add(
        residual_row(
            "product-fiber",
            "slice block of the coupling form is the reduced fiber form",
            np.column_stack([zero, fiber_gap]),
            tol,
        )
    )
    rep.add(
        residual_row(
            "product-base", "magnitude of the base block along the level", np.column_stack([zero, base_block]), None
        )
    )
    return rep


def _require_transverse(pts: np.ndarray, J: np.ndarray, G: np.ndarray) -> None:
    """Raise unless ``[slice tangent | active generators]`` has full rank at every point.

    ``J`` holds the slice Jacobians, shape (n, dim, k), and ``G`` the combined
    generators, shape (n, dim, generators).  A generator is active at a point
    where it exceeds 1e-12 of the point's largest ``|entry|`` of ``[J | G]``,
    a test no common scale changes; inactive columns are zeroed, so the rank
    needed is ``k`` plus the number of active generators.  Points with a
    non-finite entry are left out of the test.

    The rank is ``matrix_rank(M, rtol=_RANK_TOL)`` of ``M = [J | active G]``
    (n, dim, c) after a certificate: with ``M`` divided by its largest
    ``|entry|``, ``det(M^T M)`` is the sum of the squared c-row minors
    (Cauchy-Binet) and ``(s_min / s_max)**2 >= det(M^T M) / tr(M^T M)**c``,
    so ``det > _CERTIFIED * tr**c`` (1e-10) proves rank ``c``.  The SVD
    decides every other point: a zeroed generator, ``c > dim`` or ``dim >
    _CERTIFIED_ROWS``, a near-threshold or non-finite test.  So the verdicts,
    ranks and error text are the SVD's.
    """
    finite = finite_points(JG := np.concatenate([J, G], axis=-1))
    active = np.abs(G).max(axis=1) > 1e-12 * np.abs(JG).max(axis=(1, 2))[:, None]
    M = np.concatenate([J, np.where(active[:, None, :], G, 0.0)], axis=-1)
    n, dim, c = M.shape
    undecided = finite.copy()
    if c <= dim <= _CERTIFIED_ROWS:
        with np.errstate(all="ignore"):
            scaled = M / np.abs(M).max(axis=(1, 2))[:, None, None]
            plan = _minor_plan(tuple(combinations(range(dim), c)), c)
            det = np.square(_expand(np.moveaxis(scaled, 0, -1).reshape(dim * c, n), plan)).sum(axis=0)
            undecided &= ~(det > _CERTIFIED * np.square(scaled).sum(axis=(1, 2)) ** c)
    rank = np.full(n, c)
    if undecided.any():
        rank[undecided] = np.linalg.matrix_rank(M[undecided], rtol=_RANK_TOL)
    needed = J.shape[-1] + active.sum(axis=1)
    bad = np.flatnonzero(finite & (rank < needed))
    if bad.size:
        i = bad[0]
        raise PreconditionError(
            f"slice is not transverse at {[round(float(x), 6) for x in pts[i]]}: "
            f"rank {rank[i]} of [tangent | generators] is below {needed[i]}"
        )

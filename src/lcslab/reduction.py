"""Zero-level sets and chart-level reduction checks.

Quotients never appear: a reduced space is represented by an explicit
parametrization of a level slice, and every claim about the quotient becomes
a pointwise identity along that slice — the momentum vanishes on it, the
generators contract trivially with level-tangent vectors, and the pulled-back
pair (theta, omega) is again LCS (or symplectic when theta dies).  For
associated bundles the extra claim is a block split of the coupling form.

Every row is evaluated once on the whole point batch: the slice images and
Jacobians come from one first-order jet of the parametrization, and the
transversality test is one stacked rank computation.  A sample point where
some value is not finite is skipped and counted, and a row with too many
skipped points is inconclusive rather than passed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual
from .actions import ActionSpec, MomentumMap
from .charts import Chart, check_same_chart
from .coupling import CouplingChart, embed_fiber_field, embed_fiber_vector, product_chart
from .errors import PreconditionError, UsageError
from .forms import (
    DifferentialForm,
    ScalarField,
    SmoothMap,
    VectorField,
    coordinate,
    exterior_derivative,
    interior_product,
    pullback,
    wedge,
)
from .lcs import LCSStructure, nondegeneracy_check, residual_check, twisted_derivative
from .report import DEFAULT_TOL, CheckResult, Report, evaluate_form, finite_points, form_max, form_values, residual_row

_RANK_TOL = 1e-9


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


def _combined_generator(act: ActionSpec, v) -> VectorField:
    out = VectorField(act.chart, [0.0] * act.chart.dim)
    for coef, rho in zip(v, act.fields):
        out = out + float(coef) * rho
    return out


def _combined_momentum(mu: MomentumMap, v) -> ScalarField:
    out = float(v[0]) * mu.components[0]
    for coef, m in zip(v[1:], mu.components[1:]):
        out = out + float(coef) * m
    return out


def invariant_hamiltonian_check(
    act: ActionSpec,
    mu: MomentumMap,
    points=None,
    n: int = 64,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> Report:
    """Each momentum component is unchanged by every finite element of the action.

    Only abelian structure constants are supported; with a nonzero bracket the
    components mix under the group and pointwise invariance is the wrong claim.
    """
    if not act.abelian:
        raise UsageError("invariance of individual Hamiltonians needs an abelian action")
    check_same_chart(act.chart, mu.chart, "action and momentum")
    pts = act.chart.sample(n, seed) if points is None else np.asarray(points, dtype=float)
    rep = Report("invariant_hamiltonian_check")
    if not act.elements:
        rep.add(CheckResult.recorded("elements", "no finite elements supplied", 0.0))
        return rep
    for gname, g in act.elements.items():
        images = g.batch(pts)
        outside = ~act.chart.contains(images)
        for a, m in enumerate(mu.components):
            # an image outside the chart is a skipped point
            diff = np.where(outside, np.nan, m.batch(images) - m.batch(pts))
            rep.add(
                residual_row(
                    f"invariant[{a}][{gname}]",
                    "Hamiltonian component is unchanged by the finite element",
                    diff,
                    tol,
                )
            )
    return rep


def _fiber_extension(c: CouplingChart, g: SmoothMap) -> SmoothMap:
    """A fiber self-map acting on the product chart, identity on the base."""
    m = c.gauge.base.dim
    comps = [coordinate(c.total, i) for i in range(m)]
    for comp in g.components:
        comps.append(
            ScalarField(c.total, lambda p, _f=comp.fn, _m=m: _f(p[_m:]))
        )
    return SmoothMap(c.total, c.total, comps)


def bundle_momentum_check(
    c: CouplingChart,
    mu: MomentumMap | None = None,
    points=None,
    n: int = 48,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> Report:
    """The fiber generators are twisted Hamiltonian for the coupling form.

    For each generator the contraction of the vertically-extended field with
    the coupling form must equal the twisted differential of the momentum
    pulled back from the fiber factor, and finite fiber elements must
    preserve the coupling form.
    """
    if not c.action.abelian:
        raise UsageError("bundle momentum checks need an abelian structure group")
    mu = c.momentum if mu is None else mu
    check_same_chart(mu.chart, c.fiber.chart, "momentum and fiber")
    base = c.gauge.base
    pts = c.total.sample(n, seed) if points is None else np.asarray(points, dtype=float)
    rep = Report("bundle_momentum_check")
    for a, rho in enumerate(c.action.fields):
        rho_hat = embed_fiber_vector(c.total, base, rho)
        mu_hat = embed_fiber_field(c.total, base, mu.components[a])
        rep.add(
            residual_check(
                f"bundle-momentum[{a}]",
                "vertical generator contracts to the twisted differential of the pulled-back Hamiltonian",
                interior_product(rho_hat, c.Omega),
                twisted_derivative(c.Theta, DifferentialForm.from_scalar(mu_hat)),
                pts,
                tol,
            )
        )
        rep.add(
            residual_row(
                f"level-product[{a}]",
                "zero level of the bundle momentum is base times the fiber zero level",
                mu_hat.batch(pts) - mu.components[a].batch(pts[:, base.dim :]),
                tol,
            )
        )
    for gname, g in c.action.elements.items():
        G = _fiber_extension(c, g)
        rep.add(
            residual_check(
                f"omega-invariant[{gname}]",
                "coupling form is preserved by the fiber element",
                pullback(G, c.Omega),
                c.Omega,
                pts,
                tol,
            )
        )
    return rep


def level_scan(
    chart: Chart,
    mu: MomentumMap,
    direction,
    points=None,
    n: int = 256,
    seed: int = 0,
    margin: float = 0.01,
) -> Report:
    """Scan the chart for the zero level of a momentum combination.

    The row's verdict classifies the outcome: "present in chart" when some
    sample comes within ``margin`` of zero, else "no zero level in chart".
    """
    check_same_chart(chart, mu.chart, "chart and momentum")
    f = _combined_momentum(mu, direction)
    pts = chart.sample(n, seed) if points is None else np.asarray(points, dtype=float)
    vals = np.abs(f.batch(pts))
    finite = np.flatnonzero(finite_points(vals))
    if finite.size == 0:
        raise UsageError("momentum combination evaluated nowhere finite on the chart")
    best = finite[vals[finite].argmin()]
    verdict = "present in chart" if vals[best] <= margin else "no zero level in chart"
    rep = Report("level_scan")
    rep.add(
        CheckResult(
            "zero-level",
            "minimum magnitude of the momentum combination over chart samples",
            float(vals[best]),
            margin,
            True,
            verdict,
            {"point": [float(x) for x in pts[best]], "points": len(pts), "skipped": len(pts) - finite.size},
        )
    )
    return rep


def reduced_form_check(
    fiber: LCSStructure,
    act: ActionSpec,
    slc: LevelSlice,
    mu: MomentumMap,
    points=None,
    n: int = 48,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    coupling: CouplingChart | None = None,
) -> Report:
    """Pointwise reduction identities along a parametrized level slice.

    Checks that the claimed momentum combinations vanish on the slice, that
    the slice is transverse to the generator directions it reduces, that the
    generators contract to zero with slice-tangent vectors, and that the
    pulled-back pair (theta, omega) is LCS — symplectic when theta pulls back
    to zero.  With ``coupling`` given, additionally pulls the coupling form
    back to base x slice and requires the base-slice cross block to vanish.
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
    pts = src.sample(n, seed) if points is None else np.asarray(points, dtype=float)

    gen_fields = [_combined_generator(act, v) for v in slc.directions]
    mom_fields = [_combined_momentum(mu, v) for v in slc.directions]
    image, J = dual.jet(param, pts)  # (n, fiber dim), (n, fiber dim, slice dim)
    _require_transverse(pts, J, [rho.batch(image) for rho in gen_fields])

    rep = Report("reduced_form_check")
    for idx, f in enumerate(mom_fields):
        rep.add(
            residual_row(
                f"level[{idx}]", "claimed momentum combination vanishes along the slice", f.batch(image), tol
            )
        )
    for idx, rho in enumerate(gen_fields):
        w = form_values(interior_product(rho, fiber.omega), image)
        pairings = np.stack([evaluate_form(w, J[:, :, j : j + 1]) for j in range(src.dim)], axis=-1)
        rep.add(
            residual_row(
                f"level-isotropy[{idx}]", "generator contracts to zero with slice-tangent vectors", pairings, tol
            )
        )

    theta_s = pullback(param, fiber.lee)
    omega_s = pullback(param, fiber.omega)
    rep.add(
        residual_check("reduced-lee-closed", "pulled-back Lee form is closed",
                       exterior_derivative(theta_s), None, pts, tol)
    )
    if form_max(theta_s, pts) <= tol:
        rep.add(
            residual_check("reduced-closed", "Lee form pulls back to zero; reduced form is closed",
                           exterior_derivative(omega_s), None, pts, tol)
        )
    else:
        rep.add(
            residual_check("reduced-lcs", "pulled-back pair satisfies the LCS identity",
                           exterior_derivative(omega_s) - wedge(theta_s, omega_s), None, pts, tol)
        )
    if src.dim % 2 == 0:
        rep.add(nondegeneracy_check(omega_s, pts, tol, check_id="reduced-nondegenerate"))
    else:
        rep.add(
            CheckResult.recorded(
                "reduced-nondegenerate", "odd-dimensional slice: determinant test skipped", 0.0
            )
        )

    if coupling is not None:
        for row in _product_split_rows(coupling, slc, n, seed, tol):
            rep.add(row)
    return rep


def _product_split_rows(c: CouplingChart, slc: LevelSlice, n: int, seed: int, tol: float):
    base = c.gauge.base
    param = slc.parametrization
    check_same_chart(param.target, c.fiber.chart, "slice target and coupling fiber")
    src = param.source
    total_src = product_chart(base, src, name=f"{base.name}x{src.name}-slice")
    m = base.dim
    comps = [coordinate(total_src, i) for i in range(m)]
    for comp in param.components:
        comps.append(ScalarField(total_src, lambda p, _f=comp.fn, _m=m: _f(p[_m:])))
    big = SmoothMap(total_src, c.total, comps)
    pts = total_src.sample(n, seed + 1)
    pulled = form_values(pullback(big, c.Omega), pts)
    reduced = form_values(pullback(param, c.fiber.omega), pts[:, m:])

    zero = np.zeros(len(pts))  # leads every block, so an empty block reads 0
    cross = [v for (i, j), v in pulled.items() if i < m <= j]
    base_block = [v for (i, j), v in pulled.items() if j < m]
    fiber_gap = [v - reduced.get((i - m, j - m), zero) for (i, j), v in pulled.items() if i >= m]
    return [
        residual_row(
            "product-cross",
            "pulled-back coupling form has no base-slice cross terms",
            np.column_stack([zero, *cross]),
            tol,
        ),
        residual_row(
            "product-fiber",
            "slice block of the coupling form is the reduced fiber form",
            np.column_stack([zero, *fiber_gap]),
            tol,
        ),
        residual_row(
            "product-base",
            "magnitude of the base block along the level",
            np.column_stack([zero, *base_block]),
            tol=None,
        ),
    ]


def _require_transverse(pts: np.ndarray, J: np.ndarray, generators: list) -> None:
    """Raise unless ``[slice tangent | active generators]`` has full rank at every point.

    ``J`` holds the slice Jacobians, shape (n, dim, k), and ``generators`` one
    (n, dim) array per combined generator.  A generator is active at a point
    where it does not vanish; inactive columns are zeroed, so the rank needed
    is ``k`` plus the number of active generators.  Points with a non-finite
    entry are left out of the test.
    """
    G = np.stack(generators, axis=-1)  # (n, dim, generators)
    finite = finite_points(np.concatenate([J, G], axis=-1))
    active = np.abs(G).max(axis=1) > 1e-12
    M = np.concatenate([J, np.where(active[:, None, :], G, 0.0)], axis=-1)
    rank = np.zeros(len(pts), dtype=int)
    rank[finite] = np.linalg.matrix_rank(M[finite], rtol=_RANK_TOL)
    needed = J.shape[-1] + active.sum(axis=1)
    bad = np.flatnonzero(finite & (rank < needed))
    if bad.size:
        i = bad[0]
        raise PreconditionError(
            f"slice is not transverse at {[round(float(x), 6) for x in pts[i]]}: "
            f"rank {rank[i]} of [tangent | generators] is below {needed[i]}"
        )

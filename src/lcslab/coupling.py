"""Coupling a twisted Hamiltonian fiber to a gauge potential on a base chart.

Everything happens in one local trivialization ``U x F``: a gauge potential
``A^a`` on the base, fundamental fields ``rho_a`` with momentum ``mu_a`` on
the fiber.  The coupling 2-form is

    Omega = omega
          + sum_a A^a ^ (i_rho_a omega)
          + sum_{a<b} omega(rho_a, rho_b) A^a ^ A^b
          - sum_a mu_a F^a

with curvature ``F^a = dA^a + 1/2 c^a_{bc} A^b ^ A^c``, which on tangent
pairs reads ``Omega((X,W),(Y,V)) = omega(W + A(X)rho, V + A(Y)rho)
- sum mu_a F^a(X,Y)``.  The sign on the curvature block is pinned by
requiring ``d_Theta Omega = 0`` (it equals the momentum pairing with the
curvature field ``[X*,Y*] - [X,Y]*``); the test suite freezes it.

Every check evaluates its forms once on the whole point batch: argument
classes are (n, dim, k) arrays built from the batched horizontal lift, and a
form is contracted with them through determinants of index minors.  A
sample point where some value is not finite is skipped and counted, and a
row with too many skipped points is inconclusive rather than passed.

The chapter on almost complex structures lives here too: block structures
``J~`` preserving horizontal/vertical splits, the Nijenhuis tensor and the
curvature identity for its purely horizontal values.  An
:class:`EndomorphismField` is one matrix-valued function, and Nijenhuis
values come from first-order jets (values and Jacobians) of ``J`` and of
the two vector fields, taken by one dual lift per coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charts import Chart, check_same_chart
from .errors import InvalidStructureError, PreconditionError, UsageError
from .actions import ActionSpec, MomentumMap, check_structure_constants, verify_twisted_hamiltonian
from .forms import (
    DifferentialForm,
    ScalarField,
    SmoothMap,
    VectorField,
    basis_vector,
    constant,
    contract,
    coordinate,
    det_generic,
    exterior_derivative,
    interior_product,
    lie_bracket,
    wedge,
)
from . import dual
from .lcs import LCSStructure, nondegeneracy_check, residual_check, skew_matrices, twisted_derivative
from .report import (
    DEFAULT_TOL,
    CheckResult,
    Report,
    demote_if_sparse,
    evaluate_form,
    finite_points,
    form_residual,
    form_values,
    residual_row,
    scaled_residuals,
)

# --------------------------------------------------------------------------
# product charts and embeddings


def product_chart(base: Chart, fiber: Chart, name: str = "") -> Chart:
    """Chart for U x F; base coordinates first, names must not collide."""
    clash = set(base.coords) & set(fiber.coords)
    if clash:
        raise UsageError(f"coordinate names {sorted(clash)} appear on both factors")
    m = base.dim
    bp, fp = base.predicate, fiber.predicate
    pred = None
    if bp is not None or fp is not None:

        def pred(cols, _bp=bp, _fp=fp, _m=m):
            ok = np.ones(np.shape(cols[0]), dtype=bool)
            if _bp is not None:
                ok = ok & _bp(cols[:_m])
            if _fp is not None:
                ok = ok & _fp(cols[_m:])
            return ok

    return Chart(
        name or f"{base.name}x{fiber.name}",
        base.coords + fiber.coords,
        box=base.box + fiber.box,
        predicate=pred,
    )


def _embedded_field(total: Chart, offset: int, width: int, f: ScalarField) -> ScalarField:
    fn = f.fn
    return ScalarField(total, lambda p, _fn=fn, _o=offset, _w=width: _fn(p[_o : _o + _w]))


def embed_base_field(total: Chart, base: Chart, f: ScalarField) -> ScalarField:
    check_same_chart(base, f.chart, "embedded field")
    return _embedded_field(total, 0, base.dim, f)


def embed_fiber_field(total: Chart, base: Chart, f: ScalarField) -> ScalarField:
    return _embedded_field(total, base.dim, f.chart.dim, f)


def embed_base_form(total: Chart, base: Chart, form: DifferentialForm) -> DifferentialForm:
    check_same_chart(base, form.chart, "embedded form")
    coeffs = {I: _embedded_field(total, 0, base.dim, f) for I, f in form.coeffs.items()}
    return DifferentialForm(total, form.degree, coeffs)


def embed_fiber_form(total: Chart, base: Chart, form: DifferentialForm) -> DifferentialForm:
    m = base.dim
    coeffs = {
        tuple(i + m for i in I): _embedded_field(total, m, form.chart.dim, f)
        for I, f in form.coeffs.items()
    }
    return DifferentialForm(total, form.degree, coeffs)


def embed_fiber_vector(total: Chart, base: Chart, X: VectorField) -> VectorField:
    m = base.dim
    comps = [0.0] * m + [_embedded_field(total, m, X.chart.dim, c) for c in X.components]
    return VectorField(total, comps)


# --------------------------------------------------------------------------
# gauge data


@dataclass(frozen=True, eq=False)
class GaugeChart:
    """Gauge potentials ``A^a`` on a base chart, sharing the action's constants."""

    base: Chart
    potentials: tuple[DifferentialForm, ...]
    constants: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "potentials", tuple(self.potentials))
        for A in self.potentials:
            check_same_chart(self.base, A.chart, "gauge potentials")
            if A.degree != 1:
                raise UsageError("gauge potentials must be 1-forms")
        d = len(self.potentials)
        C = np.zeros((d, d, d)) if self.constants is None else np.asarray(self.constants, dtype=float)
        if C.shape != (d, d, d):
            raise UsageError(f"gauge structure constants must have shape ({d}, {d}, {d})")
        check_structure_constants(C)
        object.__setattr__(self, "constants", C)

    @property
    def dim(self) -> int:
        return len(self.potentials)


def _curvature_forms(g: GaugeChart) -> tuple[DifferentialForm, ...]:
    """``F^a = dA^a + 1/2 c^a_{bc} A^b ^ A^c``, one 2-form per generator."""
    F = []
    for a, A in enumerate(g.potentials):
        Fa = exterior_derivative(A)
        for b, c in np.argwhere(g.constants[a]):
            Fa = Fa + 0.5 * float(g.constants[a, b, c]) * wedge(g.potentials[b], g.potentials[c])
        F.append(Fa)
    return tuple(F)


def gauge_curvature(
    g: GaugeChart,
    points: np.ndarray | None = None,
    n: int = 32,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> tuple[tuple[DifferentialForm, ...], Report]:
    """``F^a = dA^a + 1/2 c^a_{bc} A^b ^ A^c`` with its Bianchi residuals.

    The report carries one row per generator for
    ``dF^a + c^a_{bc} A^b ^ F^c = 0``.
    """
    pts = g.base.sample(n, seed) if points is None else np.asarray(points, dtype=float)
    F = _curvature_forms(g)
    rep = Report("gauge_curvature")
    for a in range(g.dim):
        bianchi = exterior_derivative(F[a])
        for b, c in np.argwhere(g.constants[a]):
            bianchi = bianchi + float(g.constants[a, b, c]) * wedge(g.potentials[b], F[c])
        rep.add(residual_check(f"bianchi[{a}]", "dF + c A ^ F = 0", bianchi, None, pts, tol))
    return F, rep


def circle_fat_from_symplectic(
    omega_base: DifferentialForm,
    alpha_potential: DifferentialForm,
    points: np.ndarray | None = None,
    n: int = 32,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> GaugeChart:
    """Abelian gauge whose curvature is a prescribed symplectic base form.

    Requires ``d alpha = omega_base`` within tolerance on samples — the local
    model of a connection on the circle bundle the base form classifies.
    """
    check_same_chart(omega_base.chart, alpha_potential.chart, "base form and potential")
    if omega_base.degree != 2 or alpha_potential.degree != 1:
        raise UsageError("need a 2-form and a candidate potential 1-form")
    pts = omega_base.chart.sample(n, seed) if points is None else np.asarray(points, dtype=float)
    res, _ = form_residual(exterior_derivative(alpha_potential), omega_base, pts)
    if res > tol:
        raise PreconditionError(
            f"d(potential) does not reproduce the base 2-form (residual {res:.3e})"
        )
    return GaugeChart(omega_base.chart, (alpha_potential,))


def horizontal_lift(
    g: GaugeChart, act: ActionSpec, X: VectorField, total: Chart | None = None
) -> VectorField:
    """``X* = (X, -sum_a A^a(X) rho_a)`` on the product chart."""
    check_same_chart(g.base, X.chart, "lifted field")
    if g.dim != act.dim:
        raise UsageError("gauge and action have different numbers of generators")
    if not np.array_equal(g.constants, act.constants):
        raise UsageError("gauge and action must share their structure constants")
    total = product_chart(g.base, act.chart) if total is None else total
    m, k = g.base.dim, act.chart.dim
    comps = [embed_base_field(total, g.base, c) for c in X.components]
    vert = [constant(total, 0.0) for _ in range(k)]
    for a in range(g.dim):
        coefficient = embed_base_field(total, g.base, contract(g.potentials[a], X))
        rho = act.fields[a]
        for j in range(k):
            vert[j] = vert[j] - coefficient * embed_fiber_field(total, g.base, rho.components[j])
    return VectorField(total, comps + vert)


# --------------------------------------------------------------------------
# the coupling chart


@dataclass(frozen=True, eq=False)
class CouplingChart:
    """The assembled data on ``U x F``: forms, curvature, and the parts they came from."""

    total: Chart
    base: Chart
    fiber: LCSStructure
    gauge: GaugeChart
    action: ActionSpec
    momentum: MomentumMap
    Omega: DifferentialForm
    Theta: DifferentialForm
    curvature: tuple[DifferentialForm, ...]

    @property
    def base_dim(self) -> int:
        return self.base.dim

    def vertical_field(self, V: VectorField) -> VectorField:
        return embed_fiber_vector(self.total, self.base, V)

    def lift(self, X: VectorField) -> VectorField:
        return horizontal_lift(self.gauge, self.action, X, total=self.total)


def build_coupling(
    g: GaugeChart,
    fiber: LCSStructure,
    act: ActionSpec,
    mu: MomentumMap,
    points: np.ndarray | None = None,
    n: int = 32,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> CouplingChart:
    """Assemble (Omega, Theta) on the product chart from verified parts.

    Refuses (with the failing report attached) when the fiber triple does not
    verify as twisted Hamiltonian — the closedness of the output is exactly
    equivalent to those hypotheses.
    """
    pre = verify_twisted_hamiltonian(fiber, act, mu, points=points, n=n, seed=seed, tol=tol)
    if not pre.passed:
        raise PreconditionError("fiber action is not twisted Hamiltonian on samples", report=pre)
    if g.dim != act.dim:
        raise UsageError("gauge and action have different numbers of generators")
    if not np.array_equal(g.constants, act.constants):
        raise UsageError("gauge and action must share their structure constants")

    total = product_chart(g.base, fiber.chart)
    m = g.base.dim
    F = _curvature_forms(g)

    Omega = embed_fiber_form(total, g.base, fiber.omega)
    for a in range(g.dim):
        A_hat = embed_base_form(total, g.base, g.potentials[a])
        iota_hat = embed_fiber_form(total, g.base, interior_product(act.fields[a], fiber.omega))
        Omega = Omega + wedge(A_hat, iota_hat)
    for a in range(g.dim):
        for b in range(a + 1, g.dim):
            pairing = embed_fiber_field(total, g.base, contract(fiber.omega, act.fields[a], act.fields[b]))
            Omega = Omega + pairing * wedge(
                embed_base_form(total, g.base, g.potentials[a]),
                embed_base_form(total, g.base, g.potentials[b]),
            )
    for a in range(g.dim):
        Omega = Omega - embed_fiber_field(total, g.base, mu.components[a]) * embed_base_form(
            total, g.base, F[a]
        )

    Theta = embed_fiber_form(total, g.base, fiber.lee)
    return CouplingChart(
        total=total,
        base=g.base,
        fiber=fiber,
        gauge=g,
        action=act,
        momentum=mu,
        Omega=Omega,
        Theta=Theta,
        curvature=F,
    )


# --------------------------------------------------------------------------
# verification


def _unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    V = rng.standard_normal((count, dim))
    return V / np.linalg.norm(V, axis=1, keepdims=True)


def _lift_operators(c: CouplingChart, pts: np.ndarray) -> np.ndarray:
    """The horizontal lift at every point as a matrix, shape (n, m + k, m).

    Column j is the lift of the j-th base coordinate vector, so a base
    vector X lifts to ``X* = H X``.
    """
    lifts = [c.lift(basis_vector(c.base, j)) for j in range(c.base_dim)]
    return np.stack([X.batch(pts) for X in lifts], axis=-1)


def _draw_arguments(pattern: str, H: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Unit tangent vectors per point and slot, shape (n, m + k, len(pattern)).

    'h' is the horizontal lift (through ``H``) of a unit base vector, 'v' a
    unit vertical.  The rng is drawn point by point, then slot by slot.
    """
    n, dim, m = H.shape
    widths = [m if kind == "h" else dim - m for kind in pattern]
    raw = rng.standard_normal((n, sum(widths)))
    out = np.zeros((n, dim, len(pattern)))
    start = 0
    for s, (kind, w) in enumerate(zip(pattern, widths)):
        V = raw[:, start : start + w]
        V = V / np.linalg.norm(V, axis=1, keepdims=True)
        if kind == "h":
            out[:, :, s] = np.einsum("nij,nj->ni", H, V)
        else:
            out[:, m:, s] = V
        start += w
    return out


_PATTERNS = ("vvv", "vvh", "vhv", "hvv", "vhh", "hvh", "hhv", "hhh")


def verify_coupling(
    c: CouplingChart,
    points: np.ndarray | None = None,
    n: int = 64,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> Report:
    """Closedness of Theta, ``d_Theta Omega = 0`` by argument class, nondegeneracy.

    The twisted closedness is checked once on coefficients and once per
    horizontal/vertical argument pattern so a failure points at the violated
    hypothesis (momentum identity, curvature mismatch, invariance).
    Restriction rows certify Theta and Omega restrict to the fiber data and
    that horizontal lifts are Omega-orthogonal to verticals.  Every row
    evaluates its forms once on the whole point batch.
    """
    pts = c.total.sample(n, seed) if points is None else np.asarray(points, dtype=float)
    rep = Report("verify_coupling")
    rep.add(residual_check("theta-closed", "d Theta = 0", exterior_derivative(c.Theta), None, pts, tol))

    closed3 = form_values(twisted_derivative(c.Theta, c.Omega), pts)
    rep.add(
        residual_row(
            "closed[coeffs]", "d_Theta Omega = 0 (all coefficients)", scaled_residuals(closed3, {}, len(pts)), tol
        )
    )

    H = _lift_operators(c, pts)
    rng = np.random.default_rng(seed + 0x517CC1B7)
    for pattern in _PATTERNS:
        vecs = _draw_arguments(pattern, H, rng)
        rep.add(
            residual_row(
                f"closed[{pattern}]", "d_Theta Omega = 0 on this argument class", evaluate_form(closed3, vecs), tol
            )
        )

    m = c.base_dim
    vertical_pairs = {I: f for I, f in c.Omega.coeffs.items() if I[0] >= m}
    fiber_embedded = embed_fiber_form(c.total, c.base, c.fiber.omega)
    rep.add(
        residual_check(
            "fiber-block",
            "Omega on verticals equals the fiber 2-form",
            DifferentialForm(c.total, 2, vertical_pairs),
            fiber_embedded,
            pts,
            tol,
        )
    )
    rep.add(
        residual_check(
            "theta-fiber",
            "Theta restricts to the fiber Lee form",
            c.Theta,
            embed_fiber_form(c.total, c.base, c.fiber.lee),
            pts,
            tol,
        )
    )

    h1, _, v1 = np.moveaxis(_draw_arguments("hhv", H, rng), -1, 0)
    theta_h = evaluate_form(form_values(c.Theta, pts), h1[:, :, None])
    omega_hv = evaluate_form(form_values(c.Omega, pts), np.stack([h1, v1], axis=-1))
    rep.add(residual_row("theta-horizontal", "Theta annihilates horizontal lifts", theta_h, tol))
    rep.add(residual_row("hor-vert", "Omega(horizontal lift, vertical) = 0", omega_hv, tol))
    rep.add(nondegeneracy_check(c.Omega, pts, tol))
    return rep


def lift_bracket_diagnostic(
    c: CouplingChart,
    points: np.ndarray | None = None,
    n: int = 16,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    pairs: int = 3,
) -> Report:
    """The hor-hor-vert mechanism behind closedness, as a standalone identity.

    For lifted fields X*, Y* and a vertical Z:
    ``-d_Theta(Omega(Y*, X*))(Z) + (d_Theta Omega)(Y*, X*, Z) = Omega([X*, Y*], Z)``.
    This holds for any 2-form orthogonal between lifts and verticals whose
    Lee form kills horizontals, so it is a diagnostic of the *shape* of the
    data rather than of closedness itself.
    """
    pts = c.total.sample(n, seed) if points is None else np.asarray(points, dtype=float)
    rng = np.random.default_rng(seed + 0x2545F491)
    m, k = c.base_dim, c.fiber.chart.dim
    closed3 = twisted_derivative(c.Theta, c.Omega)
    rep = Report("lift_bracket_diagnostic")
    values = []
    for _ in range(pairs):
        X = VectorField(c.base, list(_unit_rows(rng, 1, m)[0]))
        Y = VectorField(c.base, list(_unit_rows(rng, 1, m)[0]))
        Z = c.vertical_field(VectorField(c.fiber.chart, list(_unit_rows(rng, 1, k)[0])))
        Xs, Ys = c.lift(X), c.lift(Y)
        pairing = contract(c.Omega, Ys, Xs)
        term1 = contract(twisted_derivative(c.Theta, DifferentialForm.from_scalar(pairing)), Z)
        term2 = contract(closed3, Ys, Xs, Z)
        rhs = contract(c.Omega, lie_bracket(Xs, Ys), Z)
        values.append(-term1.batch(pts) + term2.batch(pts) - rhs.batch(pts))
    rep.add(
        residual_row(
            "lift-bracket",
            "-d_Theta(Omega(Y,X))(Z) + d_Theta Omega(Y,X,Z) = Omega([X,Y],Z)",
            np.stack(values, axis=-1),
            tol,
            pairs=pairs,
        )
    )
    return rep


# --------------------------------------------------------------------------
# fatness


def fatness_check(
    g: GaugeChart,
    mu: MomentumMap,
    fiber_points: np.ndarray,
    base_points: np.ndarray | None = None,
    n: int = 64,
    seed: int = 0,
    threshold: float = 1e-4,
) -> Report:
    """Minimum ``|det sum_a mu_a(x) F^a_u|`` over sampled (base, fiber) pairs.

    A determinant bounded away from zero on the sampled region is the chart
    statement of fatness along the momentum image: the curvature pairing
    stays nondegenerate, which is what feeds horizontal nondegeneracy of the
    coupling form.  Curvature matrices and momenta are evaluated once per
    batch; a pair with a non-finite entry is skipped and counted.
    """
    m = g.base.dim
    rep = Report("fatness_check")
    note = None
    if m % 2 == 1:
        note = "odd base dimension: skew determinants vanish identically"
    elif g.dim == 0:
        note = "no gauge potentials"
    if note is not None:
        rep.add(
            CheckResult(
                "fat",
                "curvature-momentum pairing nondegenerate",
                residual=0.0,
                threshold=threshold,
                passed=False,
                details={"note": note},
            )
        )
        return rep
    bpts = g.base.sample(n, seed) if base_points is None else np.asarray(base_points, dtype=float)
    fpts = np.asarray(fiber_points, dtype=float)
    Fmats = np.stack([skew_matrices(Fa, bpts) for Fa in _curvature_forms(g)])  # (d, nb, m, m)
    muvals = np.stack([comp.batch(fpts) for comp in mu.components])  # (d, nf)
    pairs = np.einsum("af,abij->fbij", muvals, Fmats).reshape(-1, m, m)  # fiber-major (nf * nb, m, m)
    finite = finite_points(pairs)
    dets = np.full(len(pairs), np.inf)
    dets[finite] = np.abs(np.linalg.det(pairs[finite]))
    worst_pair = int(dets.argmin())
    fi, bi = np.unravel_index(worst_pair, (len(fpts), len(bpts)))
    worst = float(dets[worst_pair]) if finite.any() else 0.0
    skipped = int(len(pairs) - finite.sum())
    row = CheckResult(
        "fat",
        "min |det(mu . F)| over sampled pairs",
        residual=worst,
        threshold=threshold,
        passed=bool(worst > threshold),
        details={
            "min_det": worst,
            "base_point": [float(v) for v in bpts[bi]],
            "fiber_point": [float(v) for v in fpts[fi]],
            "pairs": len(pairs),
            "skipped": skipped,
        },
    )
    rep.add(demote_if_sparse(row, skipped, len(pairs)))
    return rep


# --------------------------------------------------------------------------
# almost complex structures


class EndomorphismField:
    """A pointwise linear map of the tangent space, as one matrix-valued function.

    ``fn(p)`` returns the rows of the matrix at ``p`` as nested lists.  Like a
    scalar-field closure it uses the generic arithmetic of :mod:`lcslab.dual`,
    so a single call yields every entry on floats, batched columns or
    dual-lifted columns, and work the entries share (a Jacobian, an
    adjugate) is done once per evaluation.  Derivatives, as the Nijenhuis
    tensor needs them, come from first-order jets of ``fn``.
    """

    __slots__ = ("chart", "fn")

    def __init__(self, chart: Chart, fn: Callable):
        self.chart = chart
        self.fn = fn

    @staticmethod
    def from_matrix(chart: Chart, M: np.ndarray) -> "EndomorphismField":
        rows = np.asarray(M, dtype=float).tolist()
        return EndomorphismField(chart, lambda p: rows)

    def batch(self, points: np.ndarray) -> np.ndarray:
        """The matrices at every point, shape (n, dim, dim)."""
        out = dual.evaluate(self.fn, points)
        n = self.chart.dim
        if out.shape[1:] != (n, n):
            raise UsageError(f"endomorphism on {self.chart.name!r} needs {n} rows of {n} entries")
        return out

    def at(self, point) -> np.ndarray:
        return self.batch(point)[0]


def rotation_structure(chart: Chart) -> EndomorphismField:
    """Block rotation sending each (x, y) coordinate pair to (-y, x) directions."""
    n = chart.dim
    if n % 2 == 1:
        raise UsageError("a rotation structure needs an even-dimensional chart")
    M = np.zeros((n, n))
    for i in range(0, n, 2):
        M[i + 1, i] = 1.0
        M[i, i + 1] = -1.0
    return EndomorphismField.from_matrix(chart, M)


def _check_square(Jv: np.ndarray, pts: np.ndarray, tol: float) -> None:
    defect = np.abs(Jv @ Jv + np.eye(Jv.shape[-1])).max(axis=(1, 2))
    bad = np.flatnonzero(defect > tol)
    if bad.size:
        i = bad[0]
        raise InvalidStructureError(
            f"endomorphism does not square to -id at {list(map(float, pts[i]))!r} (defect {defect[i]:.3e})"
        )


def nijenhuis(
    J: EndomorphismField, X: VectorField, Y: VectorField, points, tol: float = 1e-6
) -> np.ndarray:
    """``N_J(X,Y) = [X,Y] - [JX,JY] + J[JX,Y] + J[X,JY]`` at one point or a batch.

    Returns shape (dim,) for one point and (n, dim) for an (n, dim) batch.
    The value comes from the first-order jets of J, X and Y at all points at
    once: with ``DA`` the Jacobian of a field A, ``[A, B] = DB A - DA B`` and
    ``D(JA) = (dJ) A + J DA``.
    """
    check_same_chart(J.chart, X.chart, "Nijenhuis arguments")
    check_same_chart(J.chart, Y.chart, "Nijenhuis arguments")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    Jv, dJ = dual.jet(J.fn, pts)
    _check_square(Jv, pts, tol)
    Xv, DX = dual.jet(X, pts)
    Yv, DY = dual.jet(Y, pts)

    def bracket(A, DA, B, DB):
        return np.einsum("nij,nj->ni", DB, A) - np.einsum("nij,nj->ni", DA, B)

    def turn(A, DA):
        return np.einsum("nij,nj->ni", Jv, A), np.einsum("nijk,nj->nik", dJ, A) + Jv @ DA

    JX, DJX = turn(Xv, DX)
    JY, DJY = turn(Yv, DY)
    inner = bracket(JX, DJX, Yv, DY) + bracket(Xv, DX, JY, DJY)
    out = bracket(Xv, DX, Yv, DY) - bracket(JX, DJX, JY, DJY) + np.einsum("nij,nj->ni", Jv, inner)
    return out[0] if np.ndim(points) == 1 else out


def nijenhuis_tensoriality(
    J: EndomorphismField, X: VectorField, Y: VectorField, p, seed: int = 0
) -> float:
    """Max deviation between N_J on (X, Y) and on perturbed extensions.

    The perturbations vanish at p but have random first derivatives, so
    agreement certifies the value depends only on the tangent vectors there.
    """
    rng = np.random.default_rng(seed)
    base_val = nijenhuis(J, X, Y, p)
    chart = J.chart
    offsets = [coordinate(chart, i) - float(p[i]) for i in range(chart.dim)]

    def perturb(Z: VectorField) -> VectorField:
        B = rng.standard_normal((chart.dim, chart.dim))
        comps = []
        for i, comp in enumerate(Z.components):
            extra = constant(chart, 0.0)
            for j in range(chart.dim):
                extra = extra + float(B[i, j]) * offsets[j]
            comps.append(comp + extra)
        return VectorField(chart, comps)

    val = nijenhuis(J, perturb(X), perturb(Y), p)
    return float(np.abs(val - base_val).max())


def coupled_complex_structure(
    c: CouplingChart, J_base: EndomorphismField, J_fiber: EndomorphismField
) -> EndomorphismField:
    """The block structure sending lifts to lifts and verticals to verticals.

    ``J~ X* = (J_base X)*`` and ``J~ (0,V) = (0, J_fiber V)``; in coordinates
    the fiber-base block compensates for the gauge potential:
    ``-A^a(J1 e_j) rho_a + A^a_j J_fiber rho_a``.
    """
    check_same_chart(c.base, J_base.chart, "base structure")
    check_same_chart(c.fiber.chart, J_fiber.chart, "fiber structure")
    m, k = c.base_dim, c.fiber.chart.dim
    gauge = [
        ([A.coefficient((i,)).fn for i in range(m)], [comp.fn for comp in rho.components])
        for A, rho in zip(c.gauge.potentials, c.action.fields)
    ]

    def fn(p):
        u, x = p[:m], p[m:]
        Jb, Jf = J_base.fn(u), J_fiber.fn(x)
        rows = [list(Jb[i]) + [0.0] * k for i in range(m)]
        rows += [[0.0] * m + list(Jf[i]) for i in range(k)]
        for A_fns, rho_fns in gauge:
            A = [f(u) for f in A_fns]
            rho = [f(x) for f in rho_fns]
            J_rho = [_dot(Jf[i], rho) for i in range(k)]
            for j in range(m):
                aj1 = _dot(A, [Jb[i][j] for i in range(m)])  # A^a(J1 e_j)
                for i in range(k):
                    rows[m + i][j] = rows[m + i][j] - aj1 * rho[i] + A[j] * J_rho[i]
        return rows

    return EndomorphismField(c.total, fn)


def conjugate_structure(psi: SmoothMap, J_target: EndomorphismField) -> EndomorphismField:
    """Pull an endomorphism back through a diffeomorphism chart map.

    ``J_source = (d psi)^-1 J_target(psi(p)) (d psi)`` with the inverse taken
    via adjugate/determinant so the entries stay differentiable; the
    Jacobian, image, adjugate and determinant are computed once per call.
    """
    check_same_chart(psi.target, J_target.chart, "conjugation target")
    src = psi.source
    n = src.dim
    if psi.target.dim != n:
        raise UsageError("conjugation needs a diffeomorphism between equal dimensions")
    comps = [comp.fn for comp in psi.components]

    def fn(p):
        jac = [[dual.partial(f, p, s) for s in range(n)] for f in comps]
        JJ = _matmul(J_target.fn([f(p) for f in comps]), jac)
        det = det_generic(jac)
        return [[v / det for v in row] for row in _matmul(_adjugate(jac), JJ)]

    return EndomorphismField(src, fn)


def _dot(a, b):
    acc = 0.0
    for x, y in zip(a, b):
        acc = acc + x * y
    return acc


def _matmul(A, B):
    return [[_dot(row, [B[s][j] for s in range(len(B))]) for j in range(len(B[0]))] for row in A]


def _adjugate(M):
    n = len(M)
    if n == 1:
        return [[1.0]]
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for r, row in enumerate(M) if r != i]
            out[j][i] = (-1.0) ** (i + j) * det_generic(minor)
    return out


def horizontal_nijenhuis_identity(
    c: CouplingChart,
    J_base: EndomorphismField,
    J_fiber: EndomorphismField,
    points: np.ndarray | None = None,
    n: int = 8,
    seed: int = 0,
    tol: float = 1e-7,
    pairs: int = 2,
) -> Report:
    """Purely horizontal Nijenhuis values against the curvature expression.

    With ``R(X,Y) = -F^a(X,Y) rho_a`` (the vertical part of ``[X*,Y*]``):
    ``N(X*,Y*) = J_f(R(J1 X, Y) + R(X, J1 Y)) + R(X,Y) - R(J1 X, J1 Y)``,
    valid whenever the base structure is integrable.  Also records whether
    Omega is invariant under J~ (the "type (1,1)" probe) without asserting it.
    Both sides are evaluated on the whole point batch, once per pair.
    """
    pts = c.total.sample(n, seed) if points is None else np.asarray(points, dtype=float)
    rng = np.random.default_rng(seed + 0x9E3779B9)
    m, k = c.base_dim, c.fiber.chart.dim
    Jt = coupled_complex_structure(c, J_base, J_fiber)
    rep = Report("horizontal_nijenhuis")

    u, x = pts[:, :m], pts[:, m:]
    J1, Jf = J_base.batch(u), J_fiber.batch(x)
    curvature = [form_values(Fa, u) for Fa in c.curvature]
    rho = [r.batch(x) for r in c.action.fields]

    def R(U, V):
        args = np.stack([U, V], axis=-1)
        out = np.zeros((len(pts), k))
        for Fa, r in zip(curvature, rho):
            out -= evaluate_form(Fa, args)[:, None] * r
        return out

    residuals = []
    for _ in range(pairs):
        Xv, Yv = _unit_rows(rng, 2, m)
        Xs = c.lift(VectorField(c.base, list(Xv)))
        Ys = c.lift(VectorField(c.base, list(Yv)))
        lhs = nijenhuis(Jt, Xs, Ys, pts)
        X, Y = np.broadcast_to(Xv, u.shape), np.broadcast_to(Yv, u.shape)
        JX, JY = J1 @ Xv, J1 @ Yv
        vert = np.einsum("nij,nj->ni", Jf, R(JX, Y) + R(X, JY)) + R(X, Y) - R(JX, JY)
        residuals.append(np.abs(lhs - np.concatenate([np.zeros_like(u), vert], axis=1)))
    rep.add(
        residual_row(
            "horizontal-identity",
            "N(X*, Y*) equals the curvature expression",
            np.stack(residuals, axis=1),
            tol,
            pairs=pairs,
        )
    )

    # two (U, V) draws per point, in point order
    UV = _unit_rows(rng, 4 * len(pts), m + k).reshape(len(pts), 2, 2, m + k)
    omega = form_values(c.Omega, pts)
    Jp = Jt.batch(pts)
    probe = []
    for r in range(2):
        args = np.moveaxis(UV[:, r], 1, 2)
        probe.append(np.abs(evaluate_form(omega, Jp @ args) - evaluate_form(omega, args)))
    rep.add(residual_row("type-11", "Omega(J~ ., J~ .) = Omega at samples", np.stack(probe, axis=1), tol=None))
    return rep

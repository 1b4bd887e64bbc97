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

Every check replays once per point set: the forms its rows read, the lift
block and the jets it needs come from one :func:`~lcslab.report.batch_values`
on the whole batch.  Argument classes are (n, dim, k) arrays built from the
batched horizontal lift, and a form is contracted with them through
determinants of index minors; random draws never become nodes.  A sample
point where some value is not finite is skipped and counted, and a row with
too many skipped points is inconclusive rather than passed.

The chapter on almost complex structures lives here too: block structures
``J~`` preserving horizontal/vertical splits and the curvature identity for
the purely horizontal values of their Nijenhuis tensor.  An
:class:`EndomorphismField` is a matrix of coefficient nodes.  ``J~`` is
assembled in numpy from one jet each of ``J_base``, ``J_fiber`` and the
lift block, so :func:`horizontal_lift` is the one place the gauge term
``-A(X) rho`` is built.  Nijenhuis values come from first-order jets
(values and Jacobians) of ``J~`` and of the lifted vectors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .charts import Chart, check_same_chart
from .errors import InvalidStructureError, PreconditionError, UsageError
from .actions import ActionSpec, MomentumMap, check_structure_constants, verify_twisted_hamiltonian
from .forms import (
    DifferentialForm,
    ScalarField,
    SmoothMap,
    VectorField,
    _on_chart,
    basis_vector,
    contract,
    det_generic,
    exterior_derivative,
    interior_product,
    wedge,
)
from . import dual
from .lcs import LCSStructure, _nondegeneracy_row, _skew, twisted_derivative
from .report import (
    DEFAULT_TOL,
    CheckResult,
    Report,
    batch_values,
    demote_if_sparse,
    evaluate_form,
    form_residual,
    pfaffian,
    residual_row,
    scaled_residuals,
    triangle,
)

# --------------------------------------------------------------------------
# product charts and embeddings


def product_chart(base: Chart, fiber: Chart) -> Chart:
    """Chart for U x F; base coordinates first, names must not collide, a point inside when both parts are."""
    clash = set(base.coords) & set(fiber.coords)
    if clash:
        raise UsageError(f"coordinate names {sorted(clash)} appear on both factors")
    m = base.dim
    # the fiber's domain nodes on coordinates shifted past the base's, as :func:`_embedded` shifts fields
    shifted = dual.tape(fiber.domain).run([dual.var(i) for i in range(m, m + fiber.dim)])
    name = f"{base.name}x{fiber.name}"
    return Chart(name, base.coords + fiber.coords, base.box + fiber.box, (*base.domain, *shifted))


def _embedded(total: Chart, offset: int, nodes) -> list:
    """Fiber ``nodes`` on the product chart, coordinates shifted by ``offset``, through their one shared tape.

    A base node needs no substitution: base coordinates come first, so it is
    already a node of the product chart.
    """
    return dual.tape(nodes).run([dual.var(i) for i in range(offset, total.dim)])


def embed_fiber_field(total: Chart, base: Chart, f: ScalarField) -> ScalarField:
    return ScalarField(total, _embedded(total, base.dim, [f.node])[0])


def embed_base_form(total: Chart, base: Chart, form: DifferentialForm) -> DifferentialForm:
    check_same_chart(base, form.chart, "embedded form")
    return DifferentialForm(total, form.degree, form.coeffs)


def embed_fiber_form(total: Chart, base: Chart, form: DifferentialForm) -> DifferentialForm:
    m = base.dim
    coeffs = _embedded(total, m, list(form.coeffs.values()))
    return DifferentialForm(total, form.degree, {tuple(i + m for i in I): f for I, f in zip(form.coeffs, coeffs)})


def embed_fiber_vector(total: Chart, base: Chart, X: VectorField) -> VectorField:
    return VectorField(total, [0.0] * base.dim + _embedded(total, base.dim, X.components))


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
        object.__setattr__(self, "constants", check_structure_constants(self.constants, len(self.potentials)))

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
    g: GaugeChart, points: np.ndarray, tol: float = DEFAULT_TOL
) -> tuple[tuple[DifferentialForm, ...], Report]:
    """``F^a = dA^a + 1/2 c^a_{bc} A^b ^ A^c`` with its Bianchi residuals.

    The report carries one row per generator for
    ``dF^a + c^a_{bc} A^b ^ F^c = 0`` at the base ``points``.
    """
    pts = np.asarray(points, dtype=float)
    F = _curvature_forms(g)
    bianchi = [exterior_derivative(Fa) for Fa in F]
    for a, b, c in np.argwhere(g.constants):
        bianchi[a] = bianchi[a] + float(g.constants[a, b, c]) * wedge(g.potentials[b], F[c])
    rep = Report("gauge_curvature")
    for a, values in enumerate(batch_values(bianchi, pts)):
        rep.add(residual_row(f"bianchi[{a}]", "dF + c A ^ F = 0", scaled_residuals(values, {}, len(pts)), tol))
    return F, rep


def circle_fat_from_symplectic(
    omega_base: DifferentialForm,
    alpha_potential: DifferentialForm,
    points: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> GaugeChart:
    """Abelian gauge whose curvature is a prescribed symplectic base form.

    Requires ``d alpha = omega_base`` within tolerance at ``points`` — the local
    model of a connection on the circle bundle the base form classifies.
    """
    check_same_chart(omega_base.chart, alpha_potential.chart, "base form and potential")
    if omega_base.degree != 2 or alpha_potential.degree != 1:
        raise UsageError("need a 2-form and a candidate potential 1-form")
    res, _ = form_residual(exterior_derivative(alpha_potential), omega_base, np.asarray(points, dtype=float))
    if res > tol:
        raise PreconditionError(
            f"d(potential) does not reproduce the base 2-form (residual {res:.3e})"
        )
    return GaugeChart(omega_base.chart, (alpha_potential,))


def _require_matching_gauge(g: GaugeChart, act: ActionSpec) -> None:
    """Refuse a gauge and an action with different generator counts or structure constants."""
    if g.dim != act.dim:
        raise UsageError("gauge and action have different numbers of generators")
    if not np.array_equal(g.constants, act.constants):
        raise UsageError("gauge and action must share their structure constants")


def horizontal_lift(g: GaugeChart, act: ActionSpec, X: VectorField, total: Chart) -> VectorField:
    """``X* = (X, -sum_a A^a(X) rho_a)`` on ``total``, the product chart of the base and the fiber."""
    check_same_chart(g.base, X.chart, "lifted field")
    _require_matching_gauge(g, act)
    m, k = g.base.dim, act.chart.dim
    # X and every A^a(X) keep their base nodes; every rho_a comes from the fiber through one tape
    on_base = [*X.components, *(contract(A, X).node for A in g.potentials)]
    rho = _embedded(total, m, [c for field in act.fields for c in field.components])
    vert = [dual.total((-1, coef * rho[a * k + j]) for a, coef in enumerate(on_base[m:])) for j in range(k)]
    return VectorField(total, on_base[:m] + vert)


# --------------------------------------------------------------------------
# the coupling chart


@dataclass(frozen=True, eq=False)
class CouplingChart:
    """The assembled data on ``U x F``: forms, curvature, and the parts they came from.

    The fiber data carried to ``U x F`` and the lift block are kept with the
    chart, so a check run again on the same chart builds no node and no tape.
    """

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

    def lift(self, X: VectorField) -> VectorField:
        return horizontal_lift(self.gauge, self.action, X, total=self.total)

    @functools.cached_property
    def lift_block(self) -> list:
        """The lifts of the base coordinate vectors as nodes, (m + k) rows of m: column j lifts the j-th."""
        lifts = [self.lift(basis_vector(self.base, j)) for j in range(self.base_dim)]
        return [[X.components[i] for X in lifts] for i in range(self.total.dim)]

    @functools.cached_property
    def fiber_forms(self) -> tuple[DifferentialForm, DifferentialForm]:
        """The fiber's omega and Lee form on the total chart."""
        return tuple(embed_fiber_form(self.total, self.base, f) for f in (self.fiber.omega, self.fiber.lee))

    @functools.cached_property
    def fiber_generators(self) -> tuple[VectorField, ...]:
        """The fundamental fields, extended vertically to the total chart."""
        return tuple(embed_fiber_vector(self.total, self.base, rho) for rho in self.action.fields)

    @functools.cached_property
    def fiber_momenta(self) -> tuple[ScalarField, ...]:
        """The momentum components, pulled back from the fiber factor."""
        return tuple(embed_fiber_field(self.total, self.base, f) for f in self.momentum.components)


def build_coupling(
    g: GaugeChart,
    fiber: LCSStructure,
    act: ActionSpec,
    mu: MomentumMap,
    points: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> CouplingChart:
    """Assemble (Omega, Theta) on the product chart from verified parts.

    Refuses (with the failing report attached) when the fiber triple does not
    verify as twisted Hamiltonian at ``points``, on the fiber chart — the
    closedness of the output is exactly equivalent to those hypotheses.
    """
    _require_matching_gauge(g, act)
    pre = verify_twisted_hamiltonian(fiber, act, mu, points, tol)
    if not pre.passed:
        raise PreconditionError("fiber action is not twisted Hamiltonian on samples", report=pre)

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


def _lifted(H: np.ndarray, DH: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``X* = H X`` for a constant base vector and its Jacobian ``DH·X``; ``H, DH = dual.jet(c.lift_block, pts)``."""
    return H @ X, np.einsum("nijl,j->nil", DH, X)


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


def verify_coupling(c: CouplingChart, points: np.ndarray, seed: int = 0, tol: float = DEFAULT_TOL) -> Report:
    """Closedness of Theta, ``d_Theta Omega = 0`` by argument class, nondegeneracy.

    The twisted closedness is checked once on coefficients and once per
    horizontal/vertical argument pattern so a failure points at the violated
    hypothesis (momentum identity, curvature mismatch, invariance).
    Restriction rows certify Theta and Omega restrict to the fiber data and
    that horizontal lifts are Omega-orthogonal to verticals.  Every row reads
    one replay of its forms and the lift block on the whole batch of
    ``points``; ``seed`` seeds the random argument draws.
    """
    pts = np.asarray(points, dtype=float)
    m, n = c.base_dim, len(pts)
    forms = [exterior_derivative(c.Theta), twisted_derivative(c.Theta, c.Omega), c.Omega, c.Theta]
    forms += c.fiber_forms
    dtheta, closed3, omega, theta, fiber_omega, fiber_lee, H = batch_values(forms, pts, c.lift_block)
    rep = Report("verify_coupling")
    rep.add(residual_row("theta-closed", "d Theta = 0", scaled_residuals(dtheta, {}, n), tol))
    claim = "d_Theta Omega = 0 (all coefficients)"
    rep.add(residual_row("closed[coeffs]", claim, scaled_residuals(closed3, {}, n), tol))

    rng = np.random.default_rng(seed + 0x517CC1B7)
    for pattern in _PATTERNS:
        vecs = _draw_arguments(pattern, H, rng)
        rep.add(
            residual_row(
                f"closed[{pattern}]", "d_Theta Omega = 0 on this argument class", evaluate_form(closed3, vecs), tol
            )
        )

    vertical = {I: v for I, v in omega.items() if I[0] >= m}
    claim = "Omega on verticals equals the fiber 2-form"
    rep.add(residual_row("fiber-block", claim, scaled_residuals(vertical, fiber_omega, n), tol))
    claim = "Theta restricts to the fiber Lee form"
    rep.add(residual_row("theta-fiber", claim, scaled_residuals(theta, fiber_lee, n), tol))

    h1, _, v1 = np.moveaxis(_draw_arguments("hhv", H, rng), -1, 0)
    theta_h = evaluate_form(theta, h1[:, :, None])
    omega_hv = evaluate_form(omega, np.stack([h1, v1], axis=-1))
    rep.add(residual_row("theta-horizontal", "Theta annihilates horizontal lifts", theta_h, tol))
    rep.add(residual_row("hor-vert", "Omega(horizontal lift, vertical) = 0", omega_hv, tol))
    rep.add(_nondegeneracy_row(c.Omega, omega, n, tol))
    return rep


def lift_bracket_diagnostic(
    c: CouplingChart, points: np.ndarray, seed: int = 0, tol: float = DEFAULT_TOL, pairs: int = 3
) -> Report:
    """The hor-hor-vert mechanism behind closedness, as a standalone identity.

    For lifted fields X*, Y* and a vertical Z:
    ``-d_Theta(Omega(Y*, X*))(Z) + (d_Theta Omega)(Y*, X*, Z) = Omega([X*, Y*], Z)``.
    This holds for any 2-form orthogonal between lifts and verticals whose
    Lee form kills horizontals, so it is a diagnostic of the *shape* of the
    data rather than of closedness itself.

    The DAG holds only the chart's forms, the lift block and ``d_Theta
    Omega``; one replay of them, with the jets of Omega and of the lift
    block, serves every pair, and the random X, Y, Z are contracted with it
    in numpy: ``X* = H X`` with Jacobian ``DH·X``, ``Omega(U, V) = U^T W V``,
    the product rule for ``Z(Omega(Y*, X*))``.  ``seed`` seeds the random X, Y, Z.
    """
    pts = np.asarray(points, dtype=float)
    v = _lift_bracket_terms(c, pts, np.random.default_rng(seed + 0x2545F491), pairs)
    rep = Report("lift_bracket_diagnostic")
    rep.add(
        residual_row(
            "lift-bracket",
            "-d_Theta(Omega(Y,X))(Z) + d_Theta Omega(Y,X,Z) = Omega([X,Y],Z)",
            -v[:, :, 0] + v[:, :, 1] - v[:, :, 2],
            tol,
            pairs=pairs,
        )
    )
    return rep


def _lift_bracket_terms(c: CouplingChart, pts: np.ndarray, rng: np.random.Generator, pairs: int) -> np.ndarray:
    """``d_Theta(Omega(Y*, X*))(Z)``, ``d_Theta Omega(Y*, X*, Z)``, ``Omega([X*, Y*], Z)``, shape (n, pairs, 3).

    Each pair draws X, Y on the base and a vertical Z, in that order.
    """
    m, k, dim = c.base_dim, c.fiber.chart.dim, c.total.dim
    forms = [c.Theta, twisted_derivative(c.Theta, c.Omega), c.Omega]
    jets = dual.grads(list(c.Omega.coeffs.values()), dim), c.lift_block, dual.grads(c.lift_block, dim)
    theta, closed3, values, derivatives, H, DH = batch_values(forms, pts, *jets)
    W = _skew(values, dim, len(pts))
    dW = _skew(dict(zip(c.Omega.coeffs, np.moveaxis(derivatives, 1, 0))), dim, len(pts))

    def omega(U, M, V):
        return np.einsum("ni,nij,nj->n", U, M, V)

    terms = []
    for _ in range(pairs):
        (Xs, DX), (Ys, DY) = (_lifted(H, DH, _unit_rows(rng, 1, m)[0]) for _ in range(2))
        z = np.concatenate([np.zeros(m), _unit_rows(rng, 1, k)[0]])
        Z = np.broadcast_to(z, Xs.shape)
        along_z = omega(DY @ z, W, Xs) + omega(Ys, dW @ z, Xs) + omega(Ys, W, DX @ z)
        bracket = np.einsum("nij,nj->ni", DY, Xs) - np.einsum("nij,nj->ni", DX, Ys)
        term1 = along_z - evaluate_form(theta, Z[:, :, None]) * omega(Ys, W, Xs)
        terms.append([term1, evaluate_form(closed3, np.stack([Ys, Xs, Z], axis=-1)), omega(bracket, W, Z)])
    return np.moveaxis(np.array(terms), -1, 0)


# --------------------------------------------------------------------------
# fatness


def fatness_check(
    g: GaugeChart,
    mu: MomentumMap,
    fiber_points: np.ndarray,
    base_points: np.ndarray,
    threshold: float = 1e-4,
) -> Report:
    """Minimum ``|det sum_a mu_a(x) F^a_u|`` over sampled (base, fiber) pairs.

    A determinant bounded away from zero on the sampled region is the chart
    statement of fatness along the momentum image: the curvature pairing
    stays nondegenerate, which is what feeds horizontal nondegeneracy of the
    coupling form.  The pairing's upper-triangle entries ``mu.T @ F_ij`` are
    formed in fiber blocks of at most ``dual._SCRATCH_BYTES`` and each
    determinant is their Pfaffian squared, so no stack of every pair's matrix
    is built.  A pair with a non-finite entry is skipped and counted, one
    whose determinant overflows counts as infinite; the worst pair is the
    first in fiber-major order.
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
    bpts = np.asarray(base_points, dtype=float)
    fpts = np.asarray(fiber_points, dtype=float)
    i, j = triangle(m)
    curvature, zero = batch_values(_curvature_forms(g), bpts), np.zeros(len(bpts))
    F = np.array([[Fa.get(ij, zero) for Fa in curvature] for ij in zip(i.tolist(), j.tolist())])  # (pairs, d, nb)
    muvals = dual.evaluate([f.node for f in mu.components], fpts)  # (nf, d)
    block = max(1, dual._SCRATCH_BYTES // (8 * len(i) * len(bpts)))
    worst, worst_pair, skipped = np.inf, 0, 0
    for start in range(0, len(fpts), block):
        with np.errstate(all="ignore"):
            entries = muvals[start : start + block] @ F  # (pairs, fibers in the block, nb)
            finite = np.isfinite(entries).all(axis=0)
            dets = np.where(finite, np.nan_to_num(np.square(pfaffian(entries, m)), nan=np.inf), np.inf)
        k = int(dets.argmin())
        if dets.flat[k] < worst:
            worst, worst_pair = float(dets.flat[k]), start * len(bpts) + k
        skipped += int(finite.size - np.count_nonzero(finite))
    fi, bi = divmod(worst_pair, len(bpts))
    pairs = len(fpts) * len(bpts)
    worst = worst if skipped < pairs else 0.0
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
            "pairs": pairs,
            "skipped": skipped,
        },
    )
    rep.add(demote_if_sparse(row, skipped, pairs))
    return rep


# --------------------------------------------------------------------------
# almost complex structures


class EndomorphismField:
    """A pointwise linear map of the tangent space: a matrix of coefficient nodes.

    ``entries`` holds the rows of the matrix, one node of the coefficient DAG
    per position, so work the entries share (a Jacobian, an adjugate, a
    horizontal lift) is one set of nodes.  The constructor takes the rows
    as nodes, scalar fields or numbers, or a closure over the coordinate
    sequence returning them, traced once as a scalar-field closure is; a
    closure that cannot run on coordinate nodes, or an entry that is no
    number or node, is refused (see :func:`lcslab.dual.trace`).
    Derivatives, as the Nijenhuis tensor needs them, come from first-order
    jets of the entries.
    """

    __slots__ = ("chart", "entries")

    def __init__(self, chart: Chart, entries):
        n = chart.dim
        if callable(entries):
            entries = dual.on_coordinates(entries, n)
        try:
            square = len(entries) == n and all(len(row) == n for row in entries)
        except TypeError:  # the entries, or a row, are no sequence
            square = False
        if not square:
            raise UsageError(f"endomorphism on {chart.name!r} needs {n} rows of {n} entries")
        self.chart = chart
        self.entries = [[_on_chart(chart, v, "endomorphism entries") for v in row] for row in entries]

    @staticmethod
    def from_matrix(chart: Chart, M: np.ndarray) -> "EndomorphismField":
        return EndomorphismField(chart, np.asarray(M, dtype=float).tolist())

    def batch(self, points: np.ndarray) -> np.ndarray:
        """The matrices at every point, shape (n, dim, dim)."""
        return dual.evaluate(self.entries, points)


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


def _require_structure(Jv: np.ndarray, pts: np.ndarray, tol: float = 1e-6) -> None:
    """Refuse matrices ``Jv`` (one per point) that do not square to -id."""
    defect = np.abs(Jv @ Jv + np.eye(Jv.shape[-1])).max(axis=(1, 2))
    bad = np.flatnonzero(defect > tol)
    if bad.size:
        i = bad[0]
        raise InvalidStructureError(
            f"endomorphism does not square to -id at {list(map(float, pts[i]))!r} (defect {defect[i]:.3e})"
        )


def _nijenhuis_values(Jv, dJ, X, DX, Y, DY) -> np.ndarray:
    """``N_J(X, Y)`` at every point from the jets of J, X and Y, shape (n, dim).

    With ``DA`` the Jacobian of a field A, ``[A, B] = DB A - DA B`` and
    ``D(JA) = (dJ) A + J DA``.
    """

    def bracket(A, DA, B, DB):
        return np.einsum("nij,nj->ni", DB, A) - np.einsum("nij,nj->ni", DA, B)

    def turn(A, DA):
        return np.einsum("nij,nj->ni", Jv, A), np.einsum("nijk,nj->nik", dJ, A) + Jv @ DA

    JX, DJX = turn(X, DX)
    JY, DJY = turn(Y, DY)
    inner = bracket(JX, DJX, Y, DY) + bracket(X, DX, JY, DJY)
    return bracket(X, DX, Y, DY) - bracket(JX, DJX, JY, DJY) + np.einsum("nij,nj->ni", Jv, inner)


def conjugate_structure(psi: SmoothMap, J_target: EndomorphismField) -> EndomorphismField:
    """Pull an endomorphism back through a diffeomorphism chart map.

    ``J_source = (d psi)^-1 J_target(psi(p)) (d psi)`` with the inverse taken
    via adjugate/determinant so the entries stay differentiable; the
    Jacobian, image, adjugate and determinant are built once, as nodes.
    """
    check_same_chart(psi.target, J_target.chart, "conjugation target")
    src = psi.source
    n = src.dim
    if psi.target.dim != n:
        raise UsageError("conjugation needs a diffeomorphism between equal dimensions")
    image = psi.components
    jac = [[f.partial(s) for s in range(n)] for f in image]
    moved = dual.tape([e for row in J_target.entries for e in row]).run(image)
    JJ = _matmul([moved[i : i + n] for i in range(0, n * n, n)], jac)
    det = det_generic(jac)
    return EndomorphismField(src, [[v / det for v in row] for row in _matmul(_adjugate(jac), JJ)])


def _matmul(A, B):
    """The product of two matrices of nodes or numbers, each entry summed left to right from its first nonzero term."""
    return [[dual.total((1, a * b) for a, b in zip(row, col)) for col in zip(*B)] for row in A]


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


def _coupled_jet(J1, dJ1, Jf, dJf, H, DH) -> tuple[np.ndarray, np.ndarray]:
    """The block structure ``J~`` and its derivatives, assembled from the jets of its blocks.

    ``J~`` sends lifts to lifts and verticals to verticals: ``J~ X* = (J_base
    X)*`` and ``J~ (0, V) = (0, J_fiber V)``.  With ``L = H[:, m:]`` the
    vertical block of the lift, ``X* = (X, L X)``, that is ``J~ = [[J_base,
    0], [L J_base - J_fiber L, J_fiber]]``; ``d(L J_base - J_fiber L)`` is
    the product rule.
    """
    n, dim, m = H.shape
    L, dL = H[:, m:], DH[:, m:]  # (n, k, m) and (n, k, m, dim)
    J, dJ = np.zeros((n, dim, dim)), np.zeros((n, dim, dim, dim))
    J[:, :m, :m], J[:, m:, m:], J[:, m:, :m] = J1, Jf, L @ J1 - Jf @ L
    dJ[:, :m, :m, :m], dJ[:, m:, m:, m:] = dJ1, dJf
    dJ[:, m:, :m] = np.einsum("nijl,njk->nikl", dL, J1) - np.einsum("nij,njkl->nikl", Jf, dL)
    dJ[:, m:, :m, :m] += np.einsum("nij,njkl->nikl", L, dJ1)
    dJ[:, m:, :m, m:] -= np.einsum("nijl,njk->nikl", dJf, L)
    return J, dJ


def horizontal_nijenhuis_identity(
    c: CouplingChart,
    J_base: EndomorphismField,
    J_fiber: EndomorphismField,
    points: np.ndarray,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    pairs: int = 2,
) -> Report:
    """Purely horizontal Nijenhuis values against the curvature expression.

    With ``R(X,Y) = -F^a(X,Y) rho_a`` (the vertical part of ``[X*,Y*]``):
    ``N(X*,Y*) = J_f(R(J1 X, Y) + R(X, J1 Y)) + R(X,Y) - R(J1 X, J1 Y)``,
    valid whenever the base structure is integrable.  Also records whether
    Omega is invariant under J~ (the "type (1,1)" probe) without asserting it.
    The DAG holds only ``J_base``, ``J_fiber`` and the lift block, one jet
    of each for every pair and the probe; ``J~``, ``dJ~`` (:func:`_coupled_jet`)
    and the lifts of the random X, Y are assembled in numpy; ``seed`` seeds
    X, Y and the probe's draws.  Each point set replays once: the base
    columns (``J_base``'s jet, the curvature), the fiber columns
    (``J_fiber``'s jet, the generators) and the points (the lift block's
    jet, Omega).
    """
    pts = np.asarray(points, dtype=float)
    rng = np.random.default_rng(seed + 0x9E3779B9)
    check_same_chart(c.base, J_base.chart, "base structure")
    check_same_chart(c.fiber.chart, J_fiber.chart, "fiber structure")
    m, k = c.base_dim, c.fiber.chart.dim
    u, x = pts[:, :m], pts[:, m:]
    *curvature, J1, dJ1 = batch_values(c.curvature, u, J_base.entries, dual.grads(J_base.entries, m))
    fiber = J_fiber.entries, dual.grads(J_fiber.entries, k), [r.components for r in c.action.fields]
    Jf, dJf, rho = dual.replay(fiber, x)
    omega, H, DH = batch_values([c.Omega], pts, c.lift_block, dual.grads(c.lift_block, m + k))
    Jv, dJ = _coupled_jet(J1, dJ1, Jf, dJf, H, DH)
    _require_structure(Jv, pts)
    rep = Report("horizontal_nijenhuis")

    def R(U, V):
        args = np.stack([U, V], axis=-1)
        out = np.zeros((len(pts), k))
        for Fa, r in zip(curvature, np.moveaxis(rho, 1, 0)):
            out -= evaluate_form(Fa, args)[:, None] * r
        return out

    residuals = []
    for Xv, Yv in (_unit_rows(rng, 2, m) for _ in range(pairs)):
        lhs = _nijenhuis_values(Jv, dJ, *_lifted(H, DH, Xv), *_lifted(H, DH, Yv))
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
    probe = []
    for r in range(2):
        args = np.moveaxis(UV[:, r], 1, 2)
        probe.append(np.abs(evaluate_form(omega, Jv @ args) - evaluate_form(omega, args)))
    rep.add(residual_row("type-11", "Omega(J~ ., J~ .) = Omega at samples", np.stack(probe, axis=1), tol=None))
    return rep

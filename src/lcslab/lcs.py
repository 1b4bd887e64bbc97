"""Locally conformally symplectic structures on a single chart.

A structure is a pair (omega, theta) with ``d omega = theta ^ omega`` and
``d theta = 0``; ``twisted_derivative`` is the operator ``d_theta = d - theta ^ .``
Verification checks pointwise identities over seeded samples and returns a
:class:`~lcslab.report.Report` rather than raising, except where an operation
is genuinely unusable (odd dimension, degenerate input).  Each row evaluates
its forms once on the whole point batch (nondegeneracy from one stack of skew
coefficient matrices); a sample point where some value is not finite is
skipped and counted, and a row with too many skipped points is inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import dual
from .charts import Chart, check_same_chart
from .errors import DegenerateInputError, UsageError
from .forms import (
    DifferentialForm,
    ScalarField,
    differential_1form,
    exterior_derivative,
    wedge,
)
from .report import (
    DEFAULT_TOL,
    CheckResult,
    Report,
    demote_if_sparse,
    finite_points,
    form_values,
    residual_row,
    scaled_residuals,
)


@dataclass(frozen=True)
class LCSStructure:
    """A chart, a nondegenerate 2-form and its closed Lee form.

    ``potential`` (optional) is a 1-form eta with ``omega = d_theta eta``;
    keeping it around is what makes the momentum constructions of the action
    module possible.
    """

    chart: Chart
    omega: DifferentialForm
    lee: DifferentialForm
    potential: DifferentialForm | None = None
    name: str = ""

    def __post_init__(self):
        check_same_chart(self.chart, self.omega.chart, "structure members")
        check_same_chart(self.chart, self.lee.chart, "structure members")
        if self.omega.degree != 2 or self.lee.degree != 1:
            raise UsageError("an LCS structure needs a 2-form and a 1-form")
        if self.potential is not None:
            check_same_chart(self.chart, self.potential.chart, "structure members")
            if self.potential.degree != 1:
                raise UsageError("the potential must be a 1-form")


def twisted_derivative(theta: DifferentialForm, form: DifferentialForm) -> DifferentialForm:
    """``d_theta form = d form - theta ^ form``.

    Well defined for any 1-form theta; it squares to zero only when theta is
    closed, which callers check separately (see :func:`verify_lcs`).
    """
    check_same_chart(theta.chart, form.chart, "twisted derivative arguments")
    if theta.degree != 1:
        raise UsageError("the twisting form must be a 1-form")
    return exterior_derivative(form) - wedge(theta, form)


# --------------------------------------------------------------------------
# nondegeneracy


class Nondegeneracy(NamedTuple):
    determinant: float
    note: str = ""

    def __float__(self) -> float:
        return float(self.determinant)


_ODD_NOTE = "odd-dimensional chart: skew matrices of odd size are singular"


def skew_matrices(omega: DifferentialForm, points) -> np.ndarray:
    """The skew coefficient matrices of a 2-form at every point, shape (n, dim, dim).

    ``points`` is one point or an (n, dim) batch; the coefficients are
    evaluated once on the whole batch, and a point outside a coefficient's
    domain gets non-finite entries.
    """
    if omega.degree != 2:
        raise UsageError("skew coefficient matrices are defined for 2-forms only")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = omega.chart.dim
    M = np.zeros((len(pts), d, d))
    for (i, j), v in form_values(omega, pts).items():
        M[:, i, j] = v
        M[:, j, i] = -v
    return M


def nondegeneracy(omega: DifferentialForm, p) -> Nondegeneracy:
    """Determinant of the skew coefficient matrix of ``omega`` at ``p``.

    Equals the square of the Pfaffian; a value above threshold certifies the
    form nondegenerate at the point.  Odd-dimensional charts yield 0 with an
    explanatory note (skew matrices of odd size are always singular).
    """
    if omega.degree != 2:
        raise UsageError("nondegeneracy applies to 2-forms")
    if omega.chart.dim % 2 == 1:
        return Nondegeneracy(0.0, _ODD_NOTE)
    return Nondegeneracy(float(np.linalg.det(skew_matrices(omega, p)[0])))


def normalized_determinant(M: np.ndarray) -> float | np.ndarray:
    """Determinant after dividing every row by its largest absolute entry.

    Scale-free nondegeneracy score used by the verify routines: the raw
    determinant of a 2-form with coefficients ~1e3 would dwarf any fixed
    threshold, the normalized one stays in [-1, 1]-ish territory.  ``M`` is
    one matrix (returns a float) or a stack of shape (..., d, d) (returns an
    array); a matrix of odd size, with a zero row or with a non-finite entry
    scores 0.
    """
    M = np.asarray(M, dtype=float)
    if M.shape[-1] != M.shape[-2] or M.shape[-1] % 2 == 1:
        out = np.zeros(M.shape[:-2])
    else:
        scales = np.abs(M).max(axis=-1, keepdims=True)
        ok = np.all((scales > 0.0) & np.isfinite(scales), axis=-2, keepdims=True)
        # a masked scale: det only ever sees finite matrices
        rows = np.where(ok, M / np.where(ok, scales, 1.0), np.eye(M.shape[-1]))
        out = np.where(ok[..., 0, 0], np.linalg.det(rows), 0.0)
    return float(out) if M.ndim == 2 else out


def nondegeneracy_check(
    omega: DifferentialForm, points: np.ndarray, tol: float, check_id: str = "nondegenerate"
) -> CheckResult:
    """Minimum normalized determinant over the samples, as a check row.

    The skew matrices are built once for the whole batch; a point with a
    non-finite coefficient is skipped and counted.
    """
    if omega.chart.dim % 2 == 1:
        return CheckResult(
            check_id,
            "2-form nondegenerate at samples",
            residual=0.0,
            threshold=tol,
            passed=False,
            verdict="fail",
            details={"note": _ODD_NOTE},
        )
    M = skew_matrices(omega, points)
    finite = finite_points(M)
    dets = np.abs(normalized_determinant(M[finite]))
    worst = float(dets.min()) if dets.size else 0.0
    skipped = int(len(M) - finite.sum())
    result = CheckResult(
        check_id,
        "2-form nondegenerate at samples (min normalized |det|)",
        residual=worst,
        threshold=tol,
        passed=bool(worst > tol),
        details={"min_abs_det": worst, "skipped": skipped, "points": len(M)},
    )
    return demote_if_sparse(result, skipped, len(M))


def residual_check(
    check_id: str,
    claim: str,
    a: DifferentialForm,
    b: DifferentialForm | None,
    points: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> CheckResult:
    """Pointwise scaled residual of ``a - b`` (or ``a`` alone) as a check row."""
    vb = form_values(b, points) if b is not None else {}
    return residual_row(check_id, claim, scaled_residuals(form_values(a, points), vb, len(points)), tol)


# --------------------------------------------------------------------------
# verification


def verify_lcs(
    s: LCSStructure,
    points: np.ndarray | None = None,
    n: int = 64,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> Report:
    """Closedness of the Lee form, the structure identity, nondegeneracy.

    When the structure carries a potential, the identity
    ``omega = d eta - theta ^ eta`` is verified as well.
    """
    pts = s.chart.sample(n, seed) if points is None else np.asarray(points, dtype=float)
    rep = Report(f"verify_lcs({s.name or s.chart.name})")
    rep.add(residual_check("lee-closed", "d(lee form) = 0", exterior_derivative(s.lee), None, pts, tol))
    rep.add(
        residual_check(
            "lcs-identity", "d(omega) = lee ^ omega", exterior_derivative(s.omega), wedge(s.lee, s.omega), pts, tol
        )
    )
    rep.add(nondegeneracy_check(s.omega, pts, tol))
    if s.potential is not None:
        rep.add(
            residual_check(
                "potential",
                "omega = d(eta) - lee ^ eta",
                s.omega,
                twisted_derivative(s.lee, s.potential),
                pts,
                tol,
            )
        )
    return rep


# --------------------------------------------------------------------------
# Lee form recovery


class LeeSolution(NamedTuple):
    coefficients: np.ndarray
    residual: float


def solve_lee_form(omega: DifferentialForm, p, tol: float = DEFAULT_TOL) -> LeeSolution:
    """The covector solving ``d omega = theta ^ omega`` at one point.

    Least-squares solve of the overdetermined linear system in the unknown
    coefficients of theta; for a nondegenerate 2-form in dimension >= 4 the
    solution is unique, and the returned residual is ~0 exactly when omega
    is compatible with *some* Lee form at the point.
    """
    if omega.degree != 2:
        raise UsageError("solve_lee_form applies to 2-forms")
    nd = omega.chart.dim
    if nd < 4:
        raise UsageError(
            "Lee form recovery needs chart dimension >= 4 "
            "(in dimension 2 the wedge with omega has a kernel)"
        )
    if nd % 2 == 1:
        raise UsageError("Lee form recovery needs an even-dimensional chart")
    M = skew_matrices(omega, p)[0]
    if abs(normalized_determinant(M)) <= tol:
        raise DegenerateInputError(f"2-form is degenerate at {list(p)!r}; cannot recover a Lee form")

    dw = form_values(exterior_derivative(omega), [p])
    triples = list(combinations(range(nd), 3))
    A = np.zeros((len(triples), nd))
    b = np.zeros(len(triples))
    for r, K in enumerate(triples):
        if K in dw:
            b[r] = dw[K][0]
        for t, i in enumerate(K):
            rest = K[:t] + K[t + 1 :]
            A[r, i] += (-1.0) ** t * M[rest]
    theta, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < nd:
        raise DegenerateInputError("normal system for the Lee form is singular")
    res = float(np.abs(A @ theta - b).max()) / (1.0 + float(np.abs(b).max(initial=0.0)))
    return LeeSolution(theta, res)


# --------------------------------------------------------------------------
# conformal rescaling and exact structures


def exp_field(f: ScalarField) -> ScalarField:
    fn = f.fn
    return ScalarField(f.chart, lambda p: dual.exp(fn(p)))


def conformal_rescale(s: LCSStructure, f: ScalarField) -> LCSStructure:
    """Replace omega by e^f omega and the Lee form by theta + df.

    Rescaling is a group action of scalar fields: rescaling by f then by -f
    restores the structure pointwise, and the LCS identity is preserved.
    A potential, when present, rescales to e^f eta.
    """
    check_same_chart(s.chart, f.chart, "rescaling factor")
    ef = exp_field(f)
    return LCSStructure(
        chart=s.chart,
        omega=s.omega * ef,
        lee=s.lee + differential_1form(f),
        potential=None if s.potential is None else s.potential * ef,
        name=f"{s.name}~rescaled" if s.name else "rescaled",
    )


def exact_lcs(
    theta: DifferentialForm,
    eta: DifferentialForm,
    points: np.ndarray | None = None,
    n: int = 32,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    name: str = "",
) -> tuple[LCSStructure, Report]:
    """Structure with ``omega = d_theta eta`` plus its verification report.

    Nondegeneracy of the resulting 2-form is not automatic (eta = 0 gives the
    zero form); the structure is returned either way with the report attached
    so callers can decide.
    """
    if theta.degree != 1 or eta.degree != 1:
        raise UsageError("exact_lcs takes two 1-forms")
    check_same_chart(theta.chart, eta.chart, "exact structure data")
    s = LCSStructure(
        chart=theta.chart,
        omega=twisted_derivative(theta, eta),
        lee=theta,
        potential=eta,
        name=name or "exact",
    )
    return s, verify_lcs(s, points=points, n=n, seed=seed, tol=tol)

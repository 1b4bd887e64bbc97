"""Locally conformally symplectic structures on a single chart.

A structure is a pair (omega, theta) with ``d omega = theta ^ omega`` and
``d theta = 0``; ``twisted_derivative`` is the operator ``d_theta = d - theta ^ .``
Verification checks pointwise identities over seeded samples and returns a
:class:`~lcslab.report.Report` rather than raising, except where an operation
is genuinely unusable (odd dimension, degenerate input).  A check replays
once on its point batch: every form its rows read, through
:func:`~lcslab.report.batch_values`, and each row reads those columns
(nondegeneracy from one stack of skew coefficient matrices); a sample point
where some value is not finite is skipped and counted, and a row with too
many skipped points is inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .charts import Chart, check_same_chart
from .errors import DegenerateInputError, UsageError
from .forms import DifferentialForm, derived, exterior_derivative, wedge
from .report import (
    DEFAULT_TOL,
    CheckResult,
    Report,
    batch_values,
    demote_if_sparse,
    finite_points,
    form_values,
    pfaffian,
    residual_row,
    scaled_residuals,
    triangle,
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


@derived
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
    return _skew(form_values(omega, pts), omega.chart.dim, len(pts))


def _skew(values: dict, d: int, n: int) -> np.ndarray:
    """Skew matrices from 2-form coefficient columns, (n, d, d); trailing axes of the columns stay last."""
    M = np.zeros((n, d, d, *np.shape(next(iter(values.values()), ()))[1:]))
    for (i, j), v in values.items():
        M[:, i, j] = v
        M[:, j, i] = -v
    return M


def normalized_determinant(M: np.ndarray) -> float | np.ndarray:
    """Determinant of the skew matrix ``M`` after dividing every row by its largest absolute entry.

    Scale-free nondegeneracy score used by the verify routines: the raw
    determinant of a 2-form with coefficients ~1e3 would dwarf any fixed
    threshold, the normalized one stays in [0, 1]-ish territory.  ``M`` is
    one matrix (returns a float) or a stack of shape (..., d, d) (returns an
    array); a matrix of odd size, with a zero row or with a non-finite entry
    scores 0.  ``M`` must be skew, as :func:`skew_matrices` builds it: the
    score is ``Pf(N)**2`` with ``N_ij = M_ij / sqrt(s_i s_j)`` and ``s_i`` the
    row scales, the same number (``det N = det M / prod(s)``) with every
    ``|N_ij| <= 1``, so no scale of ``M`` overflows it.
    """
    M = np.asarray(M, dtype=float)
    d = M.shape[-1]
    if d != M.shape[-2] or d % 2 == 1:
        out = np.zeros(M.shape[:-2])
    else:
        i, j = triangle(d)
        root = np.moveaxis(np.sqrt(np.abs(M).max(axis=-1)), -1, 0)  # the row scales' square roots, (d, ...)
        ok = np.all((root > 0.0) & np.isfinite(root), axis=0)
        with np.errstate(all="ignore"):
            upper = np.moveaxis(M, (-2, -1), (0, 1))[i, j] / root[i]
            upper /= root[j]
            out = np.where(ok, np.square(pfaffian(upper, d)), 0.0)
    return float(out) if M.ndim == 2 else out


def _nondegeneracy_row(
    omega: DifferentialForm, values: dict, n: int, tol: float, check_id: str = "nondegenerate"
) -> CheckResult:
    """Minimum normalized determinant of ``omega`` over ``n`` samples, from its coefficient columns ``values``.

    A point with a non-finite coefficient is skipped and counted.
    """
    if omega.chart.dim % 2 == 1:
        claim = "2-form nondegenerate at samples"
        return CheckResult(check_id, claim, residual=0.0, threshold=tol, passed=False, details={"note": _ODD_NOTE})
    M = _skew(values, omega.chart.dim, n)
    finite = finite_points(M)
    dets = normalized_determinant(M if finite.all() else M[finite])
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


# --------------------------------------------------------------------------
# verification


def verify_lcs(s: LCSStructure, points: np.ndarray, tol: float = DEFAULT_TOL) -> Report:
    """Closedness of the Lee form, the structure identity, nondegeneracy, at ``points``.

    When the structure carries a potential, the identity
    ``omega = d eta - theta ^ eta`` is verified as well.
    """
    pts = np.asarray(points, dtype=float)
    rep = Report(f"verify_lcs({s.name or s.chart.name})")
    forms = [exterior_derivative(s.lee), exterior_derivative(s.omega), wedge(s.lee, s.omega), s.omega]
    if s.potential is not None:
        forms.append(twisted_derivative(s.lee, s.potential))
    # one replay for every row, so omega and its derivatives are evaluated once
    dlee, domega, lee_omega, omega, *potential = batch_values(forms, pts)
    n = len(pts)
    rep.add(residual_row("lee-closed", "d(lee form) = 0", scaled_residuals(dlee, {}, n), tol))
    rep.add(residual_row("lcs-identity", "d(omega) = lee ^ omega", scaled_residuals(domega, lee_omega, n), tol))
    rep.add(_nondegeneracy_row(s.omega, omega, n, tol))
    if potential:
        rep.add(
            residual_row(
                "potential", "omega = d(eta) - lee ^ eta", scaled_residuals(omega, potential[0], n), tol
            )
        )
    return rep


# --------------------------------------------------------------------------
# Lee form recovery


class LeeSolution(NamedTuple):
    coefficients: np.ndarray
    residual: float | np.ndarray


def solve_lee_form(omega: DifferentialForm, points, tol: float = DEFAULT_TOL) -> LeeSolution:
    """The covector solving ``d omega = theta ^ omega`` at one point or at every point of a batch.

    Least-squares solve of the overdetermined linear system in the unknown
    coefficients of theta; for a nondegenerate 2-form in dimension >= 4 the
    solution is unique, and the returned residual is ~0 exactly when omega
    is compatible with *some* Lee form at the point.  An (n, dim) batch is
    solved as one stack: one replay of omega and ``d omega``, one set of
    skew matrices, one stacked SVD with a stacked rank test; it raises at the
    first point where omega is degenerate or the system is singular.  One
    point gives coefficients of shape (dim,) and a float residual, a batch
    (n, dim) and (n,).
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
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    w, dw = batch_values([omega, exterior_derivative(omega)], pts)
    M = _skew(w, nd, len(pts))
    triples = list(combinations(range(nd), 3))
    A = np.zeros((len(pts), len(triples), nd))
    b = np.zeros((len(pts), len(triples)))
    for r, K in enumerate(triples):
        if K in dw:
            b[:, r] = dw[K]
        for t, i in enumerate(K):
            j, k = K[:t] + K[t + 1 :]
            A[:, r, i] += (-1.0) ** t * M[:, j, k]
    degenerate = np.abs(normalized_determinant(M)) <= tol
    U, S, Vt = np.linalg.svd(A[~degenerate], full_matrices=False)
    singular = np.zeros(len(pts), dtype=bool)
    # lstsq's rank rule: singular values below eps * max(rows, cols) of the largest
    singular[~degenerate] = (S > S[:, :1] * max(A.shape[1:]) * np.finfo(float).eps).sum(axis=-1) < nd
    if (degenerate | singular).any():
        first = int(np.argmax(degenerate | singular))
        if degenerate[first]:
            raise DegenerateInputError(
                f"2-form is degenerate at {pts[first].tolist()!r}; cannot recover a Lee form"
            )
        raise DegenerateInputError("normal system for the Lee form is singular")
    theta = np.einsum("nij,ni->nj", Vt, np.einsum("nki,nk->ni", U, b) / S)
    res = np.abs(np.einsum("nri,ni->nr", A, theta) - b).max(axis=1) / (1.0 + np.abs(b).max(axis=1, initial=0.0))
    if np.ndim(points) == 1:
        return LeeSolution(theta[0], float(res[0]))
    return LeeSolution(theta, res)

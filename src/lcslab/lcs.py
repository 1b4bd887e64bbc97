"""Locally conformally symplectic structures on a single chart.

A structure is a pair (omega, theta) with ``d omega = theta ^ omega`` and
``d theta = 0``; ``twisted_derivative`` is the operator ``d_theta = d - theta ^ .``
Verification checks pointwise identities over seeded samples and returns a
:class:`~lcslab.report.Report` rather than raising, except where an operation
is genuinely unusable (odd dimension, degenerate input).  A check replays
once on its point batch: every form its rows read, through
:func:`~lcslab.report.batch_values`, and each row reads those columns.
Nondegeneracy is scored on omega's upper-triangle columns too: each column
is divided by the square roots of its two row scales, then squared in one
batched Pfaffian, and no skew matrix is built.  A sample point where some
value is not finite is skipped and counted, and a row with too many skipped
points is inconclusive.
"""

from __future__ import annotations

import functools
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
    value_array,
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


@functools.cache
def _upper_keys(d: int) -> tuple:
    """The 2-form keys ``(i, j)`` in :func:`~lcslab.report.triangle` order, and the places of the d - 1 that touch each index."""
    i, j = triangle(d)
    return tuple(zip(i.tolist(), j.tolist())), np.array([np.flatnonzero((i == r) | (j == r)) for r in range(d)])


def _nondegeneracy_scores(values: dict, d: int, n: int) -> np.ndarray:
    """Normalized determinants of a 2-form on ``n`` points, from its coefficient columns ``values``; ``d`` is even.

    The score is ``Pf(N)**2`` with ``N_ij = omega_ij / sqrt(s_i s_j)``, where
    the row scale ``s_r`` is the largest ``|omega_ij|`` over the d - 1
    coefficients that touch index ``r``.  So ``det N = det M / prod(s)`` for
    the skew coefficient matrix ``M``, scale-free with every ``|N_ij| <= 1``,
    and no scale overflows it.  A point with a zero row or a non-finite
    coefficient scores 0.
    """
    (i, j), (keys, touching) = triangle(d), _upper_keys(d)
    zero = np.zeros(n)
    upper = np.stack([values.get(I, zero) for I in keys])  # (d(d-1)/2, n)
    root = np.sqrt(np.abs(upper)[touching].max(axis=1))  # the row scales' square roots, (d, n)
    ok = np.all((root > 0.0) & np.isfinite(root), axis=0)
    with np.errstate(all="ignore"):
        upper /= root[i]
        upper /= root[j]
        return np.where(ok, np.square(pfaffian(upper, d)), 0.0)


def _nondegeneracy_row(
    omega: DifferentialForm, values: dict, n: int, tol: float, check_id: str = "nondegenerate"
) -> CheckResult:
    """Minimum normalized determinant of ``omega`` over ``n`` samples, from its coefficient columns ``values``.

    A point with a non-finite coefficient is skipped and counted.
    """
    if omega.chart.dim % 2 == 1:
        claim = "2-form nondegenerate at samples"
        return CheckResult(check_id, claim, residual=0.0, threshold=tol, passed=False, details={"note": _ODD_NOTE})
    finite = finite_points(value_array(values, n))
    if not finite.all():
        values = {I: v[finite] for I, v in values.items()}
    dets = _nondegeneracy_scores(values, omega.chart.dim, int(finite.sum()))
    worst = float(dets.min()) if dets.size else 0.0
    skipped = int(n - finite.sum())
    result = CheckResult(
        check_id,
        "2-form nondegenerate at samples (min normalized |det|)",
        residual=worst,
        threshold=tol,
        passed=bool(worst > tol),
        details={"min_abs_det": worst, "skipped": skipped, "points": n},
    )
    return demote_if_sparse(result, skipped, n)


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
    solved as one stack: one replay of omega and ``d omega``, omega's scores
    from its columns, one stacked SVD with a stacked rank test; it raises at the
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
    triples = list(combinations(range(nd), 3))
    A = np.zeros((len(pts), len(triples), nd))
    b = np.zeros((len(pts), len(triples)))
    for r, K in enumerate(triples):
        if K in dw:
            b[:, r] = dw[K]
        for t, i in enumerate(K):
            A[:, r, i] += (-1.0) ** t * w.get(K[:t] + K[t + 1 :], 0.0)
    degenerate = _nondegeneracy_scores(w, nd, len(pts)) <= tol
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

"""Check results, reports and the shared residual conventions.

A "residual" everywhere in this package is scale-aware: a difference is
divided by ``1 + max coefficient magnitude at the point``, so tolerances mean
the same thing for forms with coefficients of order 1 and of order 1e6.

It also owns the batched evaluations the rows share: a form's coefficient
columns (:func:`form_values`, :func:`form_array`), its contraction with
argument vectors (:func:`evaluate_form`) and the Lie derivatives of one form
along several fields (:func:`lie_derivative_arrays`, first derivatives only,
one lift per coordinate shared by every field).

And it owns the skipped-point rule: :func:`finite_points` alone defines a
skipped point (one with a non-finite value); rows count them as ``skipped``
and :func:`demote_if_sparse` makes a row with too many inconclusive.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import dual
from .charts import check_same_chart
from .forms import DifferentialForm, VectorField

DEFAULT_TOL = 1e-8


@dataclass
class CheckResult:
    id: str
    claim: str
    residual: float
    threshold: float
    passed: bool
    verdict: str = ""
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.verdict:
            self.verdict = "pass" if self.passed else "fail"

    @staticmethod
    def from_residual(id: str, claim: str, residual: float, threshold: float, **details) -> "CheckResult":
        ok = bool(residual <= threshold)
        return CheckResult(id, claim, float(residual), float(threshold), ok, details=details)

    @staticmethod
    def recorded(id: str, claim: str, residual: float, **details) -> "CheckResult":
        """A measurement that is reported but never fails the run."""
        details = dict(details)
        details.setdefault("recorded", True)
        return CheckResult(id, claim, float(residual), math.inf, True, verdict="recorded", details=details)

    def to_dict(self) -> dict:
        out = {
            "id": self.id,
            "claim": self.claim,
            "residual": _json_float(self.residual),
            "threshold": _json_float(self.threshold),
            "verdict": self.verdict,
        }
        if self.details:
            out["details"] = _jsonable(self.details)
        return out


@dataclass
class Report:
    title: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check: CheckResult) -> CheckResult:
        self.checks.append(check)
        return check

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    def __getitem__(self, check_id: str) -> CheckResult:
        for c in self.checks:
            if c.id == check_id:
                return c
        raise KeyError(check_id)

    def to_dict(self, config: dict | None = None) -> dict:
        checks = [c.to_dict() for c in sorted(self.checks, key=lambda c: c.id)]
        failed = sum(1 for c in self.checks if not c.passed)
        out = {
            "title": self.title,
            "checks": checks,
            "summary": {
                "total": len(self.checks),
                "failed": failed,
                "verdict": "pass" if failed == 0 else "fail",
            },
        }
        if config is not None:
            out["config"] = _jsonable(config)
        return out

    def to_json(self, config: dict | None = None) -> str:
        return json.dumps(self.to_dict(config), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [self.title, "-" * len(self.title)]
        width = max((len(c.id) for c in self.checks), default=4)
        for c in sorted(self.checks, key=lambda c: c.id):
            thr = "-" if math.isinf(c.threshold) else f"{c.threshold:.1e}"
            lines.append(f"{c.id:<{width}}  {c.verdict:<8}  residual={c.residual:.3e}  tol={thr}  {c.claim}")
        failed = sum(1 for c in self.checks if not c.passed)
        lines.append(f"{len(self.checks)} checks, {failed} failed")
        return "\n".join(lines) + "\n"


def _json_float(x: float):
    if math.isinf(x):
        return "inf"
    if math.isnan(x):
        return "nan"
    return x


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return _json_float(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


# --------------------------------------------------------------------------
# batched evaluation


def form_values(form: DifferentialForm, points: np.ndarray) -> dict:
    """Every coefficient of ``form`` on the whole batch, as (n,) columns.

    A point outside a coefficient's domain yields a non-finite value, which
    the aggregators below skip and count.
    """
    return dict(zip(form.coeffs, form_array(form, points).T))


def form_array(form: DifferentialForm, points: np.ndarray) -> np.ndarray:
    """The coefficient columns of ``form`` side by side, shape (n, #coefficients)."""
    if not form.coeffs:
        return np.zeros((len(np.atleast_2d(points)), 0))
    fns = [f.fn for f in form.coeffs.values()]
    return dual.evaluate(lambda p: [fn(p) for fn in fns], points)


def evaluate_form(values: dict, vecs: np.ndarray) -> np.ndarray:
    """``form(v_1, ..., v_k)`` at every point, shape (n,).

    ``values`` holds the form's coefficient columns (see :func:`form_values`)
    and ``vecs`` the arguments, shape (n, dim, k); each coefficient multiplies
    the determinant of the argument rows its index selects.
    """
    if not values:
        return np.zeros(len(vecs))
    index = np.array(list(values))
    coeffs = np.stack(list(values.values()), axis=-1)
    with np.errstate(all="ignore"):
        return np.einsum("nt,nt->n", coeffs, np.linalg.det(vecs[:, index, :]))


def lie_derivative_arrays(
    fields: Sequence[VectorField], form: DifferentialForm, points, twist=None
) -> tuple[tuple, np.ndarray]:
    """``L_X form`` for every field ``X`` in ``fields``, shape (#fields, n, #keys).

    Uses the coordinate formula
    ``(L_X w)_I = X^j d_j w_I + sum_s w_{I[s->a]} d_{I_s} X^a``, which needs
    only first derivatives.  Each coordinate ``j`` is lifted once for all of
    ``w``'s coefficients and once for all the fields (:func:`dual.lifts`);
    ``X^j d_j w`` goes into every field's block and the ``w d_j X`` terms
    follow through a signed index table, so no stack of all derivatives is
    ever held.  Returns ``(keys, values)``: the index tuples of the
    coefficient columns and one block per field, laid out as
    :func:`form_array`'s.  ``twist``, one (n,) column or scalar per field
    such as ``theta(X)``, makes block ``i`` the twisted ``L_X w - twist[i] w``
    instead.  A point outside an expression's domain yields non-finite
    entries.
    """
    for X in fields:
        check_same_chart(X.chart, form.chart, "Lie derivative operands")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    keys, cols, terms = _lie_table(form.chart.dim, form.degree, tuple(form.coeffs))
    # accumulated with the points axis last, the axis point_array's results are contiguous along
    out = np.zeros((len(fields), len(keys), len(pts)))
    if form.coeffs and fields:
        fns = [f.fn for f in form.coeffs.values()]
        coeff_lifts = dual.lifts(lambda p: [fn(p) for fn in fns], pts)
        field_lifts = dual.lifts(lambda p: [X(p) for X in fields], pts)
        for j, ((w, dw), (x, dx)) in enumerate(zip(coeff_lifts, field_lifts)):
            # points axis last: dw[c] = d_j w_c, x[i, a] = X_i^a, dx[i, a] = d_j X_i^a
            w, dw, x, dx = w.T, dw.T, x.transpose(1, 2, 0), dx.transpose(1, 2, 0)
            with np.errstate(all="ignore"):
                for i in range(len(fields)):
                    out[i, cols] += x[i, j] * dw
                for a, rows, src, sign in terms[j]:
                    out[:, rows] += dx[:, a, None] * (w[src] * sign)
        with np.errstate(all="ignore"):
            for i, c in enumerate(() if twist is None else twist):
                out[i, cols] -= np.asarray(c) * w
    return keys, out.transpose(0, 2, 1)


@functools.cache
def _lie_table(dim: int, degree: int, keys: tuple) -> tuple:
    """The index table of the ``w dX`` terms of ``L_X w`` for a form with coefficients on ``keys``.

    Returns ``(out_keys, cols, terms)``: the output index tuples (``keys``
    and every tuple a term reaches, in increasing order), the output columns
    of ``keys`` (a slice when they are all of them), and for each coordinate
    ``b`` the entries ``(a, rows, src, sign)`` that add
    ``sign * w[:, src] * d_b X^a`` to the output columns ``rows`` (no column
    twice within an entry).
    """
    pos = {K: c for c, K in enumerate(keys)}
    found: dict[tuple, list] = {}
    for I in combinations(range(dim), degree):
        for s in range(degree):
            rest = I[:s] + I[s + 1 :]
            for a in range(dim):
                K = tuple(sorted(rest + (a,)))
                if a not in rest and K in pos:
                    # the sign of moving a from slot s to its place in K
                    found.setdefault((I[s], a), []).append((I, pos[K], (-1.0) ** (s + K.index(a))))
    out_keys = tuple(sorted(set(keys) | {I for entries in found.values() for I, _, _ in entries}))
    col = {I: c for c, I in enumerate(out_keys)}
    terms = [[] for _ in range(dim)]
    for (b, a), e in sorted(found.items()):
        rows, src, sign = zip(*e)
        terms[b].append((a, np.array([col[I] for I in rows]), np.array(src), np.array(sign)[:, None]))
    cols = slice(None) if out_keys == keys else np.array([col[K] for K in keys])
    return out_keys, cols, tuple(map(tuple, terms))


# --------------------------------------------------------------------------
# residual aggregation

# fraction of sample points allowed to fail evaluation before a check is
# demoted from pass/fail to "inconclusive"
_SKIP_FRACTION = 0.2


def form_residual(a: DifferentialForm, b: DifferentialForm | None, points: np.ndarray) -> tuple[float, int]:
    """Scaled max residual of ``a - b`` (or of ``a`` alone) over ``points``.

    Returns (residual, skipped) where ``skipped`` counts points at which some
    coefficient failed to evaluate to a finite number.
    """
    vb = form_values(b, points) if b is not None else {}
    return worst_residual(scaled_residuals(form_values(a, points), vb, np.asarray(points).shape[0]))


def scaled_residuals(va: dict, vb: dict, n: int) -> np.ndarray:
    """Per point ``max_I |a_I - b_I| / (1 + max(1, max_I |a_I|, max_I |b_I|))``.

    ``va`` and ``vb`` are coefficient columns from :func:`form_values`; a
    point where any coefficient is non-finite gets a non-finite residual.
    """
    keys = set(va) | set(vb)
    if not keys:
        return np.zeros(n)
    zero = np.zeros(n)
    x = np.vstack([va.get(I, zero) for I in keys])
    y = np.vstack([vb.get(I, zero) for I in keys])
    with np.errstate(invalid="ignore"):
        scale = np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)).max(axis=0))
        return np.max(np.abs(x - y), axis=0) / (1.0 + scale)


def finite_points(values) -> np.ndarray:
    """Mask of the points (leading axis) whose values, over all trailing axes, are finite.

    Every other point is a skipped point.
    """
    v = np.asarray(values, dtype=float)
    return np.isfinite(v).all(axis=tuple(range(1, v.ndim)))


def worst_residual(values) -> tuple[float, int]:
    """Max ``|value|`` over the points whose values are all finite.

    ``values`` is laid out as for :func:`finite_points`.  Returns (worst,
    skipped); ``worst`` is inf when no point is left, so a non-finite value
    can never make a row pass.
    """
    v = np.abs(np.asarray(values, dtype=float))
    mask = finite_points(v)
    if not mask.any():
        return math.inf, len(v)
    return float(v[mask].max(initial=0.0)), int(len(v) - mask.sum())


def demote_if_sparse(check: CheckResult, skipped: int, total: int) -> CheckResult:
    """``check`` as "inconclusive" when more than ``_SKIP_FRACTION`` of its points were skipped."""
    if total and skipped > _SKIP_FRACTION * total:
        return CheckResult(
            check.id,
            check.claim,
            residual=check.residual,
            threshold=check.threshold,
            passed=False,
            verdict="inconclusive",
            details={**check.details, "skipped": skipped, "points": total},
        )
    return check


def residual_row(check_id: str, claim: str, values, tol: float | None, **details) -> CheckResult:
    """The row for a residual that is a max over sample points.

    ``values`` has one leading axis of points (see :func:`worst_residual`);
    the row records ``skipped`` and ``points`` and is demoted when too many
    points were skipped.  With ``tol=None`` the max is a recorded
    measurement that carries no verdict of its own.
    """
    worst, skipped = worst_residual(values)
    n = len(values)
    if tol is None:
        row = CheckResult.recorded(check_id, claim, worst, skipped=skipped, points=n, **details)
    else:
        row = CheckResult.from_residual(check_id, claim, worst, tol, skipped=skipped, points=n, **details)
    return demote_if_sparse(row, skipped, n)


def form_max(form: DifferentialForm, points: np.ndarray) -> float:
    """Raw max coefficient magnitude of ``form`` over finite samples."""
    v = np.abs(form_array(form, points))
    return float(v[np.isfinite(v)].max(initial=0.0))


def spread(values: np.ndarray) -> float:
    """Max - min over finite samples; inf when nothing is finite."""
    v = np.asarray(values, dtype=float)
    v = v[np.isfinite(v)]
    if v.size == 0:
        return math.inf
    return float(v.max() - v.min())

"""Check results, reports and the shared residual conventions.

A "residual" everywhere in this package is scale-aware: a difference is
divided by ``1 + max coefficient magnitude at the point``, so tolerances mean
the same thing for forms with coefficients of order 1 and of order 1e6.

It also owns the batched evaluations the rows share.  A report replays once
per point set: :func:`batch_values` gives the coefficient columns of every
form it needs on those points, and any fields, maps or jets it names with
them, from one replay of the coefficient DAG, so a shared subexpression is
evaluated once and every row reads the same columns (:func:`form_values` is
its one-form case, :func:`value_array` sets columns side by side).  A form's
contraction with argument vectors (:func:`evaluate_form`, by the minors of
the argument matrix) and the Pfaffians of skew matrices (:func:`pfaffian`)
are both taken as polynomials on the whole batch.

And it owns the skipped-point rule: :func:`finite_points` alone defines a
skipped point (one with a non-finite value); rows count them as ``skipped``
and :func:`demote_if_sparse` makes a row with too many inconclusive.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import dual
from .forms import DifferentialForm

DEFAULT_TOL = 1e-8
DEFAULT_POINTS = 64  # sample points of a run that names no count: the CLI's --points, gallery.run_manifest


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

    def to_dict(self) -> dict:
        checks = [c.to_dict() for c in sorted(self.checks, key=lambda c: c.id)]
        failed = sum(1 for c in self.checks if not c.passed)
        return {
            "title": self.title,
            "checks": checks,
            "summary": {
                "total": len(self.checks),
                "failed": failed,
                "verdict": "pass" if failed == 0 else "fail",
            },
        }

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
    return batch_values([form], points)[0]


def batch_values(forms: Sequence[DifferentialForm], points: np.ndarray, *nested) -> list:
    """:func:`form_values` of every form in ``forms``, then each of ``nested`` on the batch, from one replay.

    A subexpression the forms share, such as ``omega`` inside ``d omega`` and
    ``L_X omega``, is evaluated once.  ``nested`` holds nodes in nested lists
    (a field's components, a lift block, their :func:`~lcslab.dual.grads`),
    each returned as :func:`~lcslab.dual.evaluate` returns it.
    """
    cols, *extra = dual.replay([[f for form in forms for f in form.coeffs.values()], *nested], points)
    out, start = [], 0
    for form in forms:
        out.append(dict(zip(form.coeffs, cols.T[start : start + len(form.coeffs)])))
        start += len(form.coeffs)
    return out + extra


def value_array(values: dict, n: int) -> np.ndarray:
    """Coefficient columns from :func:`batch_values` side by side, shape (n, #coefficients)."""
    return np.stack(list(values.values()), axis=-1) if values else np.zeros((n, 0))


def evaluate_form(values: dict, vecs: np.ndarray) -> np.ndarray:
    """``form(v_1, ..., v_k)`` at every point, shape (n,).

    ``values`` holds the form's coefficient columns (see :func:`form_values`)
    and ``vecs`` the arguments, shape (n, dim, k); each coefficient multiplies
    the minor of the argument rows its index selects (:func:`_minor_plan`).
    """
    if not values:
        return np.zeros(len(vecs))
    with np.errstate(all="ignore"):
        minors = _expand(np.moveaxis(vecs, 0, -1).reshape(-1, len(vecs)), _minor_plan(tuple(values), vecs.shape[-1]))
        return np.einsum("tn,tn->n", np.stack(list(values.values())), minors)


# --------------------------------------------------------------------------
# determinants as polynomials on the batch


@functools.cache
def _minor_plan(rows: tuple, k: int) -> tuple:
    """The minors ``det(vecs[:, S, :])`` of the row subsets ``rows``, along the last column; (r, c) is r * k + c."""
    return _levels(
        rows, lambda S: [((-1) ** (t + len(S) - 1), S[t] * k + len(S) - 1, S[:t] + S[t + 1 :]) for t in range(len(S))]
    )


@functools.cache
def _pfaffian_plan(d: int) -> tuple:
    """A subset's Pfaffian, expanded along its first row (the entry ``a_{s0 st}``'s place in the upper triangle)."""
    ij = {p: r for r, p in enumerate(zip(*triangle(d)))}
    return _levels(
        [tuple(range(d))], lambda S: [((-1) ** (t + 1), ij[S[0], S[t]], S[1:t] + S[t + 1 :]) for t in range(1, len(S))]
    )


def _levels(top: list, terms) -> tuple:
    """The largest level's size and, per level from the one-term subsets up to ``top``, the entries (u, t),
    places one level down (u, t) and signs (t,) of each subset's terms; ``terms(S)`` gives (sign, entry, subset)."""
    need = [list(top)]
    while need[-1][0]:
        need.append(sorted({sub for S in need[-1] for _, _, sub in terms(S)}))
    plan = []
    for upper, lower in zip(need[-2::-1], need[:0:-1]):
        place = {S: r for r, S in enumerate(lower)}
        table = np.array([[(s, e, place[sub]) for s, e, sub in terms(S)] for S in upper])  # (u, t, 3)
        plan.append((table[..., 1], table[..., 2], table[0, :, 0].astype(float)))
    return max(below.size for _, below, _ in plan), plan


def _expand(values: np.ndarray, levels: tuple) -> np.ndarray:
    """Run the expansion ``levels`` of :func:`_levels` on the entries ``values`` (#entries, n).

    The batch is cut into slices whose largest gathered operand takes at most a
    sixteenth of ``dual._SCRATCH_BYTES``; a non-finite entry propagates.
    """
    size, plan = levels
    width = max(1, dual._SCRATCH_BYTES // (128 * size))
    if values.shape[1] > width:
        return np.concatenate([_expand(values[:, s : s + width], levels) for s in range(0, values.shape[1], width)], 1)
    level = values[plan[0][0][:, 0]]  # the first level's subsets have one term each, of sign 1
    for entries, below, signs in plan[1:]:
        level = np.einsum("utn,utn,t->un", values[entries], level[below], signs)
    return level


@functools.cache
def triangle(d: int) -> tuple:
    """``np.triu_indices(d, 1)``: the order of the upper-triangle entries :func:`pfaffian` takes."""
    return np.triu_indices(d, 1)


# matrices up to this size are expanded whole: 105 products at 8 cost less per point than one elimination step
_PFAFFIAN_BLOCK = 8


def pfaffian(upper: np.ndarray, d: int) -> np.ndarray:
    """Pf of the d x d skew matrices whose upper triangles are ``upper``, shape (d(d-1)/2, ...).

    The entries come in :func:`triangle` order.  Up to ``_PFAFFIAN_BLOCK``
    rows the Pfaffian is expanded along the first row,
    ``Pf(S) = sum_t (-1)**(t+1) a_{s0 st} Pf(S - {s0, st})``; a larger matrix
    is first brought down to that size by :func:`_eliminate`, on slices of
    the batch of at most ``dual._SCRATCH_BYTES``, so the cost grows as d**3.
    A non-finite entry propagates.
    """
    if d % 2 == 1 or d == 0:
        return np.full(upper.shape[1:], float(d == 0))
    flat, e = upper.reshape(len(upper), -1), max(0, d - _PFAFFIAN_BLOCK)
    width = max(1, dual._SCRATCH_BYTES // (8 * d * d))
    if e == 0:
        out = _expand(flat, _pfaffian_plan(d))[0]
    elif flat.shape[1] > width:
        out = np.concatenate([pfaffian(flat[:, s : s + width], d) for s in range(0, flat.shape[1], width)])
    else:
        i, j = triangle(d)
        W = np.zeros((d, d, flat.shape[1]))
        W[i, j], W[j, i] = flat, -flat
        out = _eliminate(W, e) * pfaffian(W[i[i >= e], j[i >= e]], d - e)
    return out.reshape(upper.shape[1:])


def _eliminate(W: np.ndarray, e: int) -> np.ndarray:
    """Skew Gaussian elimination with pivoting (Parlett-Reid) of indices ``0..e-1`` of ``W`` (d, d, n), in place.

    Step k pivots on column k's largest entry below the diagonal, at row p, moves index k + 1 to slot p (a
    sign flip) and eliminates the pair (k, p); returns the factor with ``Pf(W) = factor * Pf(W[e:, e:])``.
    """
    factor = np.ones(W.shape[-1])
    for k in range(0, e, 2):
        A = W[k:, k:]  # the rows and columns left
        p = 1 + np.abs(A[1:, 0]).argmax(axis=0)
        at = p[None, None]
        row = np.take_along_axis(A, at, axis=0)[0]  # the pivot row, then with index 1 in slot p
        np.put_along_axis(row, p[None], row[1][None], axis=0)
        np.put_along_axis(A, at, A[1][None], axis=0)
        np.put_along_axis(A, at, A[:, 1][:, None], axis=1)
        pivot = -row[0]
        factor *= np.where(p == 1, pivot, -pivot)
        tau = np.divide(A[0, 2:], pivot, out=np.zeros_like(row[2:]), where=pivot != 0.0)
        update = row[2:, None] * tau
        A[2:, 2:] += update - np.swapaxes(update, 0, 1)
    return factor


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
    va, vb = batch_values([a, DifferentialForm.zero(a.chart, a.degree) if b is None else b], points)
    return worst_residual(scaled_residuals(va, vb, np.asarray(points).shape[0]))


def scaled_residuals(va: dict, vb: dict, n: int) -> np.ndarray:
    """Per point ``max_I |a_I - b_I| / (1 + max(1, max_I |a_I|, max_I |b_I|))``.

    ``va`` and ``vb`` are coefficient columns from :func:`form_values`; a
    point where any coefficient is non-finite gets a non-finite residual.
    """
    zero = np.zeros(n)
    worst, scale = np.zeros(n), np.ones(n)
    # one coefficient at a time, so no (#coefficients, n) stack is held
    with np.errstate(invalid="ignore"):
        for I in set(va) | set(vb):
            x, y = va.get(I, zero), vb.get(I, zero)
            np.maximum(worst, np.abs(x - y), out=worst)
            np.maximum(scale, np.maximum(np.abs(x), np.abs(y)), out=scale)
        return worst / (1.0 + scale)


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
        details = {**check.details, "skipped": skipped, "points": total}
        return replace(check, passed=False, verdict="inconclusive", details=details)
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
    v = np.abs(value_array(form_values(form, points), len(np.atleast_2d(points))))
    return float(v[np.isfinite(v)].max(initial=0.0))


def spread(values: np.ndarray) -> float:
    """Max - min over finite samples; inf when nothing is finite."""
    v = np.asarray(values, dtype=float)
    v = v[np.isfinite(v)]
    if v.size == 0:
        return math.inf
    return float(v.max() - v.min())

"""Check results, reports and the shared residual conventions.

A "residual" everywhere in this package is scale-aware: a difference is
divided by ``1 + max coefficient magnitude at the point``, so tolerances mean
the same thing for forms with coefficients of order 1 and of order 1e6.

It also owns the batched evaluations the rows share: a form's coefficient
columns (:func:`form_values`, :func:`form_array`), those of every form a
report needs from one replay of the coefficient DAG (:func:`batch_values`,
so a shared subexpression is evaluated once), and a form's contraction with
argument vectors (:func:`evaluate_form`).

And it owns the skipped-point rule: :func:`finite_points` alone defines a
skipped point (one with a non-finite value); rows count them as ``skipped``
and :func:`demote_if_sparse` makes a row with too many inconclusive.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import dual
from .forms import DifferentialForm

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


def batch_values(forms: Sequence[DifferentialForm], points: np.ndarray) -> list[dict]:
    """:func:`form_values` of every form in ``forms``, from one replay of the DAG.

    A subexpression the forms share, such as ``omega`` inside ``d omega`` and
    ``L_X omega``, is evaluated once.
    """
    nodes = [f.node for form in forms for f in form.coeffs.values()]
    cols = dual.evaluate(nodes, points).T if nodes else ()
    out, start = [], 0
    for form in forms:
        out.append(dict(zip(form.coeffs, cols[start : start + len(form.coeffs)])))
        start += len(form.coeffs)
    return out


def form_array(form: DifferentialForm, points: np.ndarray) -> np.ndarray:
    """The coefficient columns of ``form`` side by side, shape (n, #coefficients)."""
    return value_array(form_values(form, points), len(np.atleast_2d(points)))


def value_array(values: dict, n: int) -> np.ndarray:
    """Coefficient columns from :func:`batch_values` side by side, shape (n, #coefficients)."""
    return np.stack(list(values.values()), axis=-1) if values else np.zeros((n, 0))


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

"""Check results, reports and the shared residual conventions.

A "residual" everywhere in this package is scale-aware: a difference is
divided by ``1 + max coefficient magnitude at the point``, so tolerances mean
the same thing for forms with coefficients of order 1 and of order 1e6.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .charts import columns
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
# residual helpers


def form_values(form: DifferentialForm, points: np.ndarray) -> dict:
    cols = columns(points)
    n = len(cols[0]) if cols else len(points)
    out = {}
    for I, f in form.coeffs.items():
        v = f(cols)
        if not isinstance(v, np.ndarray):
            v = np.full(n, float(v))
        out[I] = v
    return out


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


def worst_residual(values) -> tuple[float, int]:
    """Max ``|value|`` over the points whose values are all finite.

    ``values`` has one leading axis of sample points; any trailing axes
    (components, pairs) belong to that point.  Returns (worst, skipped) where
    ``skipped`` counts points with a non-finite value; ``worst`` is inf when
    no point is left, so a non-finite value can never make a row pass.
    """
    v = np.abs(np.asarray(values, dtype=float))
    v = v.reshape(v.shape[0], int(np.prod(v.shape[1:])))
    mask = np.isfinite(v).all(axis=1)
    skipped = int(v.shape[0] - mask.sum())
    if not mask.any():
        return math.inf, skipped
    return float(v[mask].max(initial=0.0)), skipped


def form_max(form: DifferentialForm, points: np.ndarray) -> float:
    """Raw max coefficient magnitude of ``form`` over finite samples."""
    vals = form_values(form, points)
    if not vals:
        return 0.0
    best = 0.0
    for v in vals.values():
        v = v[np.isfinite(v)]
        if v.size:
            best = max(best, float(np.max(np.abs(v))))
    return best


def spread(values: np.ndarray) -> float:
    """Max - min over finite samples; inf when nothing is finite."""
    v = np.asarray(values, dtype=float)
    v = v[np.isfinite(v)]
    if v.size == 0:
        return math.inf
    return float(v.max() - v.min())

"""Coordinate charts: named coordinates, a sampling box and a domain.

A chart is the ambient bookkeeping for every field and form in the package.
Charts never store transition maps; each verification runs inside a single
fixed chart and global statements are only ever probed through explicitly
constructed maps between charts.

A domain is a tuple of expression nodes, positive inside the chart; they
replay through :func:`lcslab.dual.evaluate` like every coefficient, and this
module carries no floating-point guard of its own.  A chart keeps each draw
of :meth:`Chart.sample` by count and seed for as long as it lives, read-only,
so a check run again on the same chart only does its arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dual
from .errors import ChartMismatchError, DomainError, UsageError

# Rejection-sampling rounds before a domain counts as too thin to sample.
_MAX_TRIES = 200

# Draws by (chart id, count, seed), each kept while its chart lives.
_SAMPLES = dual.Kept()


@dataclass(frozen=True)
class Chart:
    """An open box carrying named coordinates, cut down to a domain.

    ``box`` bounds are only a sampling region, one finite ``lo < hi`` pair
    per coordinate.  ``domain`` is the actual domain: a tuple of
    expressions, each a number, a node or a closure over the coordinates
    (traced as a :class:`~lcslab.forms.ScalarField` coefficient is), and a
    point is inside when every one is positive and finite there.  A chart
    with an empty domain accepts every finite point.  Coordinate names are
    distinct.  Two charts compare by name, coordinates and box.
    """

    name: str
    coords: tuple[str, ...]
    box: tuple[tuple[float, float], ...] = field(default=())
    domain: tuple[dual.Node, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if len(set(self.coords)) != len(self.coords):
            raise UsageError(f"chart {self.name!r} names a coordinate twice: {list(self.coords)}")
        try:
            box = tuple((float(lo), float(hi)) for lo, hi in self.box or [(-1.5, 1.5)] * len(self.coords))
        except (TypeError, ValueError):
            box = None
        if box is None or len(box) != len(self.coords) or not all(-math.inf < lo < hi < math.inf for lo, hi in box):
            raise UsageError(f"chart {self.name!r}: box must give one finite (lo, hi) pair with lo < hi per coordinate")
        object.__setattr__(self, "box", box)
        if not isinstance(self.domain, (tuple, list)):
            raise UsageError(f"chart {self.name!r}: domain must be a tuple of expressions, each positive inside")
        object.__setattr__(self, "domain", tuple(dual.trace(entry, self.dim) for entry in self.domain))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, name: str) -> int:
        try:
            return self.coords.index(name)
        except ValueError:
            raise KeyError(f"chart {self.name!r} has no coordinate {name!r}") from None

    def contains(self, point):
        """Domain test of one point, or of every row of an (n, dim) batch.

        One point gives a bool, a batch a boolean array of shape (n,).  A
        point with a non-finite coordinate is outside every chart.
        """
        pts = np.asarray(point, dtype=float)
        margins = dual.evaluate(self.domain, pts)
        inside = np.isfinite(np.atleast_2d(pts)).all(axis=1) & ((margins > 0) & (margins < math.inf)).all(axis=1)
        return inside if pts.ndim == 2 else bool(inside[0])

    def sample(self, n: int, seed: int = 0) -> np.ndarray:
        """Deterministic rejection sampling of ``n`` points, shape (n, dim); ``n`` is at least 1.

        The draw is kept with the chart and returned read-only; a draw that
        finds the domain too thin raises :class:`DomainError` and is not kept.
        """
        if n < 1:
            raise UsageError(f"chart {self.name!r}: cannot draw {n} sample points; the count must be at least 1")
        return _SAMPLES.keep((id(self), n, seed), (self,), self._draw, n, seed)

    def _draw(self, n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        out = []
        for _ in range(_MAX_TRIES):
            chunk = rng.uniform(lo, hi, size=(max(4 * n, 16), self.dim))
            out.append(chunk[self.contains(chunk)])
            if sum(map(len, out)) >= n:
                break
        pts = np.concatenate(out, axis=0)
        if len(pts) < n:
            raise DomainError(
                f"could not draw {n} points inside chart {self.name!r}; "
                f"domain appears too thin inside the sampling box"
            )
        pts = pts[:n].copy()  # a kept draw holds no surplus accepted rows
        pts.setflags(write=False)
        return pts


def same_chart(a: Chart, b: Chart) -> bool:
    return a is b or (a.name == b.name and a.coords == b.coords)


def check_same_chart(a: Chart, b: Chart, what: str = "operands") -> None:
    if not same_chart(a, b):
        raise ChartMismatchError(f"{what} live on different charts: {a.name!r} vs {b.name!r}")

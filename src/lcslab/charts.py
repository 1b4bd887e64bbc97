"""Coordinate charts: named coordinates, a sampling box and a domain test.

A chart is the ambient bookkeeping for every field and form in the package.
Charts never store transition maps; each verification runs inside a single
fixed chart and global statements are only ever probed through explicitly
constructed maps between charts.

The domain predicate runs through :func:`lcslab.dual.evaluate` like every
other expression; this module carries no floating-point guard of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import dual
from .errors import ChartMismatchError, DomainError, UsageError


@dataclass(frozen=True)
class Chart:
    """An open box (with optional predicate) carrying named coordinates.

    ``box`` bounds are only a sampling region, one finite ``lo < hi`` pair
    per coordinate; ``predicate`` (batched: receives one array per
    coordinate, returns a boolean array) is the actual domain test.  A chart
    with no predicate accepts every point.  Coordinate names are distinct.
    """

    name: str
    coords: tuple[str, ...]
    box: tuple[tuple[float, float], ...] = field(default=())
    predicate: Callable | None = None

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
        inside = np.isfinite(np.atleast_2d(pts)).all(axis=1)
        if self.predicate is not None:
            inside &= dual.evaluate(self.predicate, pts).astype(bool)
        return inside if pts.ndim == 2 else bool(inside[0])

    def sample(self, n: int, seed: int = 0, max_tries: int = 200) -> np.ndarray:
        """Deterministic rejection sampling of ``n`` points, shape (n, dim); ``n`` is at least 1."""
        if n < 1:
            raise UsageError(f"chart {self.name!r}: cannot draw {n} sample points; the count must be at least 1")
        rng = np.random.default_rng(seed)
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        out = []
        for _ in range(max_tries):
            chunk = rng.uniform(lo, hi, size=(max(4 * n, 16), self.dim))
            out.append(chunk if self.predicate is None else chunk[self.contains(chunk)])
            if sum(map(len, out)) >= n:
                break
        pts = np.concatenate(out, axis=0)
        if len(pts) < n:
            raise DomainError(
                f"could not draw {n} points inside chart {self.name!r}; "
                f"domain appears too thin inside the sampling box"
            )
        return pts[:n]


def same_chart(a: Chart, b: Chart) -> bool:
    return a is b or (a.name == b.name and a.coords == b.coords)


def check_same_chart(a: Chart, b: Chart, what: str = "operands") -> None:
    if not same_chart(a, b):
        raise ChartMismatchError(f"{what} live on different charts: {a.name!r} vs {b.name!r}")

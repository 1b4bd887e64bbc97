"""Finite twisted cohomology: simplicial complexes with an edge cocycle.

The continuous twisted differential has an exact finite analog: carry a real
weight ``theta(u, v)`` on each oriented edge and transport the 0th vertex,

    (delta_theta c)(v0...v_{k+1})
        = e^{theta(v0, v1)} c(v1...v_{k+1})
        + sum_{i>=1} (-1)^i c(v0...^vi...v_{k+1}).

``delta^2 = 0`` is then a theorem whenever theta satisfies the triangle
cocycle condition, and Betti numbers come from sparse elimination ranks
(checked against SVD ranks of the dense matrices in the tests).

Each dimension k is a sorted ``(n_k, k+1)`` integer array, and every face
lookup is one ``np.searchsorted`` over the rows' big-endian bytes.  ``betti``
ranks from the top degree down, clearing the rows of ``delta_{k-1}`` that the
pivots of ``delta_k`` name (Chen & Kerber 2011) and peeling singleton rows and
columns (Mrozek & Batko 2009); threshold pivoting decides only what is left.
"""

from __future__ import annotations

import math
from itertools import chain, combinations

import numpy as np

from .errors import InvalidComplexError, UsageError

_RANK_TOL = 1e-9
_COCYCLE_TOL = 1e-12
_MAX_WEIGHT = math.log(np.finfo(float).max)  # largest |theta| with e^theta finite, in either orientation


def closure(simplices) -> set[tuple[int, ...]]:
    """All nonempty subtuples of the given simplices (downward closure)."""
    out: set[tuple[int, ...]] = set()
    for s in simplices:
        s = tuple(sorted(s))
        for k in range(1, len(s) + 1):
            out.update(combinations(s, k))
    return out


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of a nonnegative integer array as one string of big-endian bytes; they sort as the rows do."""
    rows = np.ascontiguousarray(rows, dtype=">i8")
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


class TwistedComplex:
    """A downward-closed family of increasing vertex tuples with edge weights.

    Vertices are ``0..n_vertices-1`` and are always simplices themselves;
    ``theta`` maps each oriented edge ``(u, v)`` with ``u < v`` to a real
    weight and must satisfy ``theta(u,v) + theta(v,w) = theta(u,w)`` on every
    2-simplex for the coboundary to square to zero.
    """

    def __init__(self, n_vertices: int, simplices, theta=None):
        if n_vertices < 1:
            raise InvalidComplexError("a complex needs at least one vertex")
        self.n_vertices = n = int(n_vertices)
        given = [s for s in simplices if len(s)]
        lens = np.fromiter(map(len, given), np.intp, len(given))
        starts, flat = np.cumsum(lens) - lens, np.array(list(chain.from_iterable(given)))
        inside = (flat >= 0) & (flat < n) & (flat % 1 == 0)
        ints = np.where(inside, flat, 0).astype(np.int64)
        up = np.r_[True, flat[1:] > flat[:-1]]
        up[starts] = True
        up, inside = np.logical_and.reduceat(up, starts), np.logical_and.reduceat(inside, starts)
        bad = np.flatnonzero(~(up & inside))
        if bad.size:
            why = "is not a strictly increasing vertex tuple" if not up[bad[0]] else f"uses vertices outside 0..{n - 1}"
            raise InvalidComplexError(f"simplex {tuple(given[bad[0]])} {why}")
        self._dims = {0: np.arange(n)[:, None]}
        for size in set(lens.tolist()) - {1}:
            rows = ints[starts[lens == size, None] + np.arange(size)]
            self._dims[size - 1] = rows[np.unique(_row_keys(rows), return_index=True)[1]]
        self.top = max(self._dims)
        self._faces = {}  # row s, column i: the index of s without its vertex i
        for k, rows in sorted(self._dims.items())[1:]:
            faces = np.broadcast_to(rows[:, None], (len(rows), k + 1, k + 1))[:, ~np.eye(k + 1, dtype=bool)]
            want = _row_keys(faces.reshape(-1, k))
            have = _row_keys(self._dims[k - 1]) if k - 1 in self._dims else want[:0]
            at = self._faces[k] = np.searchsorted(have, want).reshape(-1, k + 1)
            found = at < len(have)
            found[found] = have[at[found]] == want.reshape(at.shape)[found]
            if not found.all():
                r = np.flatnonzero(~found.all(1))[0]
                s, i = tuple(rows[r].tolist()), np.flatnonzero(~found[r])[-1]
                raise InvalidComplexError(f"family is not downward closed: {s} lacks facet {s[:i] + s[i + 1 :]}")
        th = {}
        for (u, v), val in (theta or {}).items():
            if u >= v:
                raise InvalidComplexError(f"edge weights are keyed by (u, v) with u < v, got ({u}, {v})")
            try:  # a boolean is no weight, though float() takes it
                w = th[(u, v)] = math.nan if isinstance(val, (bool, np.bool_)) else float(val)
            except (TypeError, ValueError):
                w = math.nan
            if not abs(w) <= _MAX_WEIGHT:
                raise InvalidComplexError(f"edge weight {val!r} on ({u}, {v}) is not a number of size <= {_MAX_WEIGHT:.2f}")
        edges = self.simplices(1)
        for e in edges:
            th.setdefault(e, 0.0)
        unknown = set(th) - set(edges)
        if unknown:
            raise InvalidComplexError(f"weights given on non-edges: {sorted(unknown)[:3]}")
        self.theta = th
        weights = np.array([th[e] for e in edges], dtype=float)
        self._growth = np.array([math.exp(w) for w in weights.tolist()])  # e^theta per edge, as math.exp rounds it
        self._coboundaries: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        f = self._faces.get(2, np.empty((0, 3), np.intp))  # faces of (u, v, w): (v, w), (u, w), (u, v)
        defect = weights[f[:, 2]] + weights[f[:, 0]] - weights[f[:, 1]]
        bad = np.flatnonzero(~(np.abs(defect) <= _COCYCLE_TOL))
        if bad.size:
            s, at = self.simplices(2)[bad[0]], defect[bad[0]]
            raise InvalidComplexError(f"edge weights violate the cocycle condition on triangle {s} (defect {at:.3e})")

    def simplices(self, k: int) -> list[tuple[int, ...]]:
        return list(map(tuple, self._dims[k].tolist())) if k in self._dims else []

    def count(self, k: int) -> int:
        return len(self._dims[k]) if k in self._dims else 0

    def theta_of(self, u: int, v: int) -> float:
        if u == v:
            return 0.0
        return self.theta[(u, v)] if u < v else -self.theta[(v, u)]


def _coboundary(K: TwistedComplex, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Sparse ``delta_theta`` from degree k, built on first use and kept on the complex."""
    if k not in K._coboundaries:
        K._coboundaries[k] = _coboundary_entries(K, k)
    return K._coboundaries[k]


def _coboundary_entries(K: TwistedComplex, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only column indices and values of ``delta_theta`` from degree k, a row per (k+1)-simplex.

    Row ``s`` holds its k+2 faces: face ``i`` (vertex i removed) carries
    ``e^{theta(s0, s1)}`` for ``i = 0`` and ``(-1)^i`` otherwise.
    """
    cols = K._faces.get(k + 1, np.empty((0, k + 2), np.intp))
    first = np.arange(len(cols))  # the edge (s0, s1) of each row, reached by dropping last vertices
    for d in range(k + 1, 1, -1):
        first = K._faces.get(d, cols)[first, d]  # no rows: index the empty cols
    vals = np.tile([(-1.0) ** i for i in range(k + 2)], (len(cols), 1))
    vals[:, 0] = K._growth[first]
    cols.flags.writeable = vals.flags.writeable = False
    return cols, vals


def coboundary_defects(K: TwistedComplex) -> list[float]:
    """``max |delta_{k+1} delta_k|`` for each degree ``k`` below the top: zero when theta is a cocycle."""
    out = []
    for k in range(K.top):
        c0, v0 = _coboundary(K, k)
        c1, v1 = _coboundary(K, k + 1)
        # row r of the product sums v1[r, j] times row c1[r, j] of delta_k
        keys = (np.arange(len(c1))[:, None, None] * K.count(k) + c0[c1]).ravel()
        _, at = np.unique(keys, return_inverse=True)
        prod = np.bincount(at, (v1[:, :, None] * v0[c1]).ravel())
        out.append(float(np.abs(prod).max(initial=0.0)))
    return out


def _rank(cols: np.ndarray, vals: np.ndarray, n_cols: int, cleared=()) -> tuple[int, np.ndarray]:
    """Rank and pivot columns of the rows ``cols``/``vals`` without the rows ``cleared``.

    Entries at most ``_RANK_TOL * s`` count as zero; ``s = sqrt(|M|_1) sqrt(|M|_inf)``,
    each norm under its own root so no weight overflows it, bounds the
    largest singular value of the whole matrix.  Every column held by one row
    and every row holding one column is a pivot touching no other row
    (peeling), until none is left.  The remainder goes through Gaussian
    elimination, each row pivoting on an entry at least half its largest;
    among those the column held by the fewest rows wins.  The pivot columns
    are independent columns of the matrix.
    """
    mags = np.abs(vals)
    s = math.sqrt(np.bincount(cols.ravel(), mags.ravel(), n_cols).max(initial=0)) * math.sqrt(mags.sum(1).max(initial=0))
    eps = _RANK_TOL * s
    live = mags > eps
    live[np.asarray(cleared, dtype=np.intp)] = False
    er, at = np.nonzero(live)  # the live entries: row, column, value
    ec, ev = cols[er, at], vals[er, at]
    pivots = []
    while er.size:
        lone = (np.bincount(ec, minlength=n_cols)[ec] == 1) | (np.bincount(er, minlength=len(cols))[er] == 1)
        if not lone.any():
            break
        r, c = er[lone], ec[lone]
        _, one = np.unique(r, return_index=True)  # one pivot per row ...
        r, c = r[one], c[one]
        _, one = np.unique(c, return_index=True)  # ... and per column
        r, c = r[one], c[one]
        pivots.append(c)
        keep = ~(np.isin(er, r) | np.isin(ec, c))
        er, ec, ev = er[keep], ec[keep], ev[keep]

    left: dict[int, dict[int, float]] = {}
    for r, c, v in zip(er.tolist(), ec.tolist(), ev.tolist()):
        left.setdefault(r, {})[c] = v
    rows = list(left.values())
    holders: dict[int, set[int]] = {}  # column -> rows below the current one holding it
    for r, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(r)
    found = []
    for r, row in enumerate(rows):
        for c in row:
            holders[c].discard(r)
        if not row:
            continue
        big = 0.5 * max(map(abs, row.values()))
        p = min((c for c, v in row.items() if abs(v) >= big), key=lambda c: len(holders[c]))
        found.append(p)
        pv = row.pop(p)
        for o in holders.pop(p):
            other = rows[o]
            f = other.pop(p) / pv
            for c, v in row.items():
                w = other.get(c, 0.0) - f * v
                if abs(w) > eps:
                    if c not in other:
                        holders[c].add(o)
                    other[c] = w
                elif c in other:
                    del other[c]
                    holders[c].discard(o)
    pivots = np.concatenate([*pivots, np.array(found, np.intp)])
    return len(pivots), pivots


def betti(K: TwistedComplex) -> list[int]:
    """``b_k = n_k - rank delta_k - rank delta_{k-1}``, the ranks taken from the top degree down.

    The pivot columns of ``delta_k`` are k-simplices, and ``delta_{k-1}``
    leaves out their rows (clearing): they are combinations of its others.
    """
    ranks, pivots = {}, ()
    for k in range(K.top, -1, -1):
        ranks[k], pivots = _rank(*_coboundary(K, k), K.count(k), pivots)
    return [K.count(k) - ranks[k] - ranks.get(k - 1, 0) for k in range(K.top + 1)]


# --------------------------------------------------------------------------
# builders


def circle(n: int = 3, holonomy: float = 0.0) -> TwistedComplex:
    """Cycle on n >= 3 vertices; the weight on edge (0,1) carries the holonomy."""
    if n < 3:
        raise UsageError("a simplicial circle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    theta = {(0, 1): float(holonomy)}
    return TwistedComplex(n, edges, theta)


def simplex_boundary(m: int) -> TwistedComplex:
    """All proper faces of the m-simplex: a simplicial (m-1)-sphere."""
    if m < 1:
        raise UsageError("need m >= 1")
    verts = range(m + 1)
    simplices = [s for k in range(1, m + 1) for s in combinations(verts, k)]
    return TwistedComplex(m + 1, simplices)


def product_complex(K1: TwistedComplex, K2: TwistedComplex) -> TwistedComplex:
    """Staircase triangulation of the product, weights added factorwise.

    Vertices are pairs ordered as ``i * n2 + j``; the simplices are the
    monotone lattice paths through each pair of maximal factor simplices,
    closed downward (a path through lower faces is a face of one of these).
    Both projections of any product edge are edges (or points) of the
    factors, so the weight sum is well defined and the cocycle condition is
    inherited.
    """
    n2 = K2.n_vertices
    vid = lambda i, j: i * n2 + j

    def paths(s1: tuple[int, ...], s2: tuple[int, ...]):
        start, goal = (0, 0), (len(s1) - 1, len(s2) - 1)
        stack = [(start, [start])]
        while stack:
            (a, b), path = stack.pop()
            if (a, b) == goal:
                yield tuple(vid(s1[i], s2[j]) for i, j in path)
                continue
            if a + 1 <= goal[0]:
                stack.append(((a + 1, b), path + [(a + 1, b)]))
            if b + 1 <= goal[1]:
                stack.append(((a, b + 1), path + [(a, b + 1)]))

    def maximal(K: TwistedComplex) -> list[tuple[int, ...]]:  # the simplices that are no facet
        rows = [np.delete(K._dims[k], K._faces[k + 1].ravel() if k < K.top else [], axis=0) for k in range(K.top + 1)]
        return [s for a in rows for s in map(tuple, a.tolist())]

    tops2 = maximal(K2)
    family = closure(p for s1 in maximal(K1) for s2 in tops2 for p in paths(s1, s2))

    edges = (s for s in family if len(s) == 2)
    theta = {(u, v): K1.theta_of(u // n2, v // n2) + K2.theta_of(u % n2, v % n2) for u, v in edges}
    return TwistedComplex(K1.n_vertices * n2, family, theta)

"""Finite twisted cohomology: simplicial complexes with an edge cocycle.

The continuous twisted differential has an exact finite analog: carry a real
weight ``theta(u, v)`` on each oriented edge and transport the 0th vertex,

    (delta_theta c)(v0...v_{k+1})
        = e^{theta(v0, v1)} c(v1...v_{k+1})
        + sum_{i>=1} (-1)^i c(v0...^vi...v_{k+1}).

``delta^2 = 0`` is then a theorem whenever theta satisfies the triangle
cocycle condition, Betti numbers come from sparse elimination ranks (checked
against SVD ranks in the tests), and the Hodge/Green story is plain linear
algebra — no elliptic theory, same identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InvalidComplexError, PreconditionError, UsageError

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
        self.n_vertices = int(n_vertices)
        family: set[tuple[int, ...]] = {(v,) for v in range(self.n_vertices)}
        for s in simplices:
            s = tuple(s)
            if list(s) != sorted(set(s)):
                raise InvalidComplexError(f"simplex {s} is not a strictly increasing vertex tuple")
            if s and (s[0] < 0 or s[-1] >= self.n_vertices):
                raise InvalidComplexError(f"simplex {s} uses vertices outside 0..{self.n_vertices - 1}")
            family.add(s)
        for s in family:
            if len(s) > 1:
                for t in combinations(s, len(s) - 1):
                    if t not in family:
                        raise InvalidComplexError(f"family is not downward closed: {s} lacks facet {t}")
        self.by_dim: dict[int, list[tuple[int, ...]]] = {}
        for s in family:
            self.by_dim.setdefault(len(s) - 1, []).append(s)
        for k in self.by_dim:
            self.by_dim[k].sort()
        self.index = {s: i for k in self.by_dim for i, s in enumerate(self.by_dim[k])}
        self.top = max(self.by_dim)

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
        for e in self.by_dim.get(1, ()):
            th.setdefault(e, 0.0)
        unknown = set(th) - set(self.by_dim.get(1, ()))
        if unknown:
            raise InvalidComplexError(f"weights given on non-edges: {sorted(unknown)[:3]}")
        self.theta = th
        self._coboundaries: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for s in self.by_dim.get(2, ()):
            u, v, w = s
            defect = th[(u, v)] + th[(v, w)] - th[(u, w)]
            if not abs(defect) <= _COCYCLE_TOL:
                raise InvalidComplexError(
                    f"edge weights violate the cocycle condition on triangle {s} (defect {defect:.3e})"
                )

    def simplices(self, k: int) -> list[tuple[int, ...]]:
        return self.by_dim.get(k, [])

    def count(self, k: int) -> int:
        return len(self.by_dim.get(k, ()))

    def theta_of(self, u: int, v: int) -> float:
        if u == v:
            return 0.0
        return self.theta[(u, v)] if u < v else -self.theta[(v, u)]

    def cochain(self, degree: int, values) -> "Cochain":
        c = Cochain(degree, np.asarray(values, dtype=float))
        if c.values.shape != (self.count(degree),):
            raise UsageError(
                f"degree-{degree} cochain needs {self.count(degree)} values, got {c.values.shape}"
            )
        return c


@dataclass(frozen=True)
class Cochain:
    degree: int
    values: np.ndarray


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
    rows, index = K.simplices(k + 1), K.index
    cols = np.array([index[s[:i] + s[i + 1 :]] for s in rows for i in range(k + 2)], dtype=np.intp)
    cols = cols.reshape(len(rows), k + 2)
    vals = np.tile([(-1.0) ** i for i in range(k + 2)], (len(rows), 1))
    vals[:, 0] = [math.exp(K.theta[s[:2]]) for s in rows]
    cols.flags.writeable = vals.flags.writeable = False
    return cols, vals


def twisted_coboundary(K: TwistedComplex, k: int) -> np.ndarray:
    """Dense matrix of ``delta_theta`` from degree k to k+1 (rows are (k+1)-simplices)."""
    cols, vals = _coboundary(K, k)
    M = np.zeros((len(cols), K.count(k)))
    np.put_along_axis(M, cols, vals, axis=1)
    return M


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


def apply_coboundary(K: TwistedComplex, c: Cochain) -> Cochain:
    return Cochain(c.degree + 1, twisted_coboundary(K, c.degree) @ c.values)


def _rank(cols: np.ndarray, vals: np.ndarray, n_cols: int) -> int:
    """Rank by Gaussian elimination, each row pivoting on an entry at least half its largest.

    Among those entries the column held by the fewest rows wins.  Entries at
    most ``_RANK_TOL * s`` count as zero; ``s = sqrt(|M|_1 |M|_inf)`` bounds
    the largest singular value.
    """
    if not vals.size:
        return 0
    mags = np.abs(vals)
    s = math.sqrt(np.bincount(cols.ravel(), mags.ravel(), n_cols).max() * mags.sum(axis=1).max())
    eps = _RANK_TOL * s
    rows = [{c: v for c, v in zip(cs, vs) if abs(v) > eps} for cs, vs in zip(cols.tolist(), vals.tolist())]
    holders: dict[int, set[int]] = {}  # column -> rows below the current one holding it
    for r, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(r)
    rank = 0
    for r, row in enumerate(rows):
        for c in row:
            holders[c].discard(r)
        if not row:
            continue
        big = 0.5 * max(map(abs, row.values()))
        p = min((c for c, v in row.items() if abs(v) >= big), key=lambda c: len(holders[c]))
        rank += 1
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
    return rank


def betti(K: TwistedComplex) -> list[int]:
    """``b_k = dim ker delta_k - rank delta_{k-1}`` for k up to the top dimension."""
    out = []
    prev_rank = 0
    for k in range(K.top + 1):
        r = _rank(*_coboundary(K, k), K.count(k))
        out.append(K.count(k) - r - prev_rank)
        prev_rank = r
    return out


# --------------------------------------------------------------------------
# Hodge decomposition and the Green primitive


def _boundary_matrices(K: TwistedComplex, k: int) -> tuple[np.ndarray, np.ndarray]:
    d_prev = twisted_coboundary(K, k - 1) if k >= 1 else np.zeros((K.count(0), 0))
    d_here = twisted_coboundary(K, k)
    return d_prev, d_here


def _project_onto_columns(M: np.ndarray, c: np.ndarray) -> np.ndarray:
    if M.size == 0:
        return np.zeros_like(c)
    coef, *_ = np.linalg.lstsq(M, c, rcond=None)
    return M @ coef


def hodge_decompose(K: TwistedComplex, c: Cochain) -> tuple[Cochain, Cochain, Cochain]:
    """Split ``c = harmonic + exact + coexact``, mutually orthogonal.

    Exactness of the coboundary makes the image of ``delta`` and the image of
    ``delta^T`` (from one degree up) orthogonal, so two least-squares
    projections and a remainder realize the decomposition; the harmonic
    space has dimension ``b_k``.
    """
    d_prev, d_here = _boundary_matrices(K, c.degree)
    exact = _project_onto_columns(d_prev, c.values)
    coexact = _project_onto_columns(d_here.T, c.values)
    harmonic = c.values - exact - coexact
    k = c.degree
    return Cochain(k, harmonic), Cochain(k, exact), Cochain(k, coexact)


def green_primitive(K: TwistedComplex, c: Cochain, tol: float = 1e-9) -> Cochain:
    """The unique coexact primitive of an exact cochain.

    ``psi = delta^T G c`` with G the pseudoinverse of the degree-k Laplacian;
    then ``delta psi = c`` and psi is orthogonal to every cocycle, which
    pins it uniquely — two different primitives of the same c give the same
    output.
    """
    if c.degree < 1:
        raise UsageError("a primitive lives one degree down; need degree >= 1")
    harmonic, _, coexact = hodge_decompose(K, c)
    scale = 1.0 + float(np.abs(c.values).max(initial=0.0))
    bad = max(
        float(np.abs(harmonic.values).max(initial=0.0)),
        float(np.abs(coexact.values).max(initial=0.0)),
    )
    if bad > tol * scale:
        raise PreconditionError(
            f"cochain is not exact (harmonic+coexact magnitude {bad:.3e})"
        )
    d_prev, d_here = _boundary_matrices(K, c.degree)
    lap = d_here.T @ d_here + d_prev @ d_prev.T
    psi = d_prev.T @ (np.linalg.pinv(lap) @ c.values)
    return Cochain(c.degree - 1, psi)


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
        facets = {t for k in range(1, K.top + 1) for s in K.simplices(k) for t in combinations(s, k)}
        return [s for k in range(K.top + 1) for s in K.simplices(k) if s not in facets]

    tops2 = maximal(K2)
    family = closure(p for s1 in maximal(K1) for s2 in tops2 for p in paths(s1, s2))

    theta = {}
    for s in family:
        if len(s) == 2:
            (u, v) = s
            i1, j1 = divmod(u, n2)
            i2, j2 = divmod(v, n2)
            theta[(u, v)] = K1.theta_of(i1, i2) + K2.theta_of(j1, j2)
    return TwistedComplex(K1.n_vertices * n2, family, theta)

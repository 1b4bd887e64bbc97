"""Weighted simplicial complexes: coboundaries and Betti numbers.

Oracles used below were computed by hand or by elementary counting:

* cycle on n vertices: b = [1, 1]; any nonzero total holonomy kills both.
* boundary of the m-simplex: a sphere S^{m-1}, so b = [1, 0, ..., 0, 1].
* cycle x cycle (a torus): 9 vertices / 27 edges / 18 triangles, chi = 0,
  b = [1, 2, 1]; twisting one factor kills everything.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from lcslab.cohomology import (
    TwistedComplex,
    _coboundary,
    _rank,
    betti,
    circle,
    closure,
    coboundary_defects,
    product_complex,
    simplex_boundary,
)
from lcslab.errors import InvalidComplexError


def gauge_shift(K, potentials):
    """Shift the weights by a vertex potential: ``theta'(u,v) = theta(u,v) + p_v - p_u``.

    This conjugates every coboundary by a positive diagonal matrix, so all
    ranks and Betti numbers are unchanged — the finite version of replacing
    the Lee form inside its cohomology class.
    """
    theta = {(u, v): K.theta[(u, v)] + potentials[v] - potentials[u] for (u, v) in K.simplices(1)}
    return TwistedComplex(K.n_vertices, [s for k in range(K.top + 1) for s in K.simplices(k)], theta)


def loop_defect(K):
    """Max over edges of ``|theta(u, v) - (p_v - p_u)|`` for potentials transported along a spanning tree.

    Zero exactly when every loop holonomy vanishes, that is when a twisted
    0-cocycle (a parallel section) exists on a connected complex.
    """
    pot, queue = {0: 0.0}, [0]
    while queue:
        u = queue.pop()
        for e in K.simplices(1):
            if u in e:
                v = e[0] + e[1] - u
                if v not in pot:
                    pot[v] = pot[u] + K.theta_of(u, v)
                    queue.append(v)
    return max(abs(K.theta_of(u, v) - (pot[v] - pot[u])) for u, v in K.simplices(1))


def delta_squared_max(K):
    worst = 0.0
    for k in range(K.top):
        M2 = twisted_coboundary(K, k + 1) @ twisted_coboundary(K, k)
        worst = max(worst, float(np.abs(M2).max(initial=0.0)))
    return worst


# -- construction and validation -------------------------------------------


def test_closure_generates_all_faces():
    faces = closure([(0, 1, 2)])
    assert (0, 1) in faces and (0, 2) in faces and (1, 2) in faces
    assert (0,) in faces and (2,) in faces
    assert (0, 1, 2) in faces


def test_missing_facet_rejected():
    with pytest.raises(InvalidComplexError, match="facet"):
        TwistedComplex(3, [(0, 1, 2)])
    TwistedComplex(3, closure([(0, 1, 2)]))  # closed family is fine


@pytest.mark.parametrize("bad", [(1, 0), (0, 0), (2, 1, 1)])
def test_non_increasing_tuples_rejected(bad):
    with pytest.raises(InvalidComplexError, match="increasing"):
        TwistedComplex(3, [bad])


def test_out_of_range_vertex_rejected():
    with pytest.raises(InvalidComplexError, match="vertices outside"):
        TwistedComplex(3, [(0, 5)])


@pytest.mark.parametrize(
    "simplices, message",
    [
        ([(0, 1), (0, 5), (2, 1)], r"simplex \(0, 5\) uses vertices outside"),
        ([(0, 1), (2, 1), (0, 5)], r"simplex \(2, 1\) is not a strictly increasing"),
        ([(0, 2**70)], "vertices outside"),
        ([(0, 0.5)], "vertices outside"),
    ],
)
def test_the_first_bad_simplex_in_input_order_is_named(simplices, message):
    """As a loop over the input would: checks run on whole arrays, but the message names the first offender."""
    with pytest.raises(InvalidComplexError, match=message):
        TwistedComplex(3, simplices)


def test_weight_on_non_edge_rejected():
    with pytest.raises(InvalidComplexError, match="non-edge"):
        TwistedComplex(4, [(0, 1)], theta={(2, 3): 1.0})


def test_weight_key_order_rejected():
    with pytest.raises(InvalidComplexError, match="u < v"):
        TwistedComplex(3, [(0, 1)], theta={(1, 0): 1.0})


def test_cocycle_violation_names_the_triangle():
    simp = closure([(0, 1, 2)])
    with pytest.raises(InvalidComplexError, match=r"\(0, 1, 2\)"):
        TwistedComplex(3, simp, theta={(0, 1): 1.0, (1, 2): 1.0, (0, 2): 0.5})
    # additive weights are fine
    TwistedComplex(3, simp, theta={(0, 1): 1.0, (1, 2): 1.0, (0, 2): 2.0})


# -- frozen Betti oracles ---------------------------------------------------


def test_circle_betti():
    assert betti(circle(3)) == [1, 1]
    assert betti(circle(7)) == [1, 1]


def test_circle_with_holonomy_is_acyclic():
    assert betti(circle(3, holonomy=math.log(2.0))) == [0, 0]
    assert betti(circle(5, holonomy=-0.3)) == [0, 0]


@pytest.mark.parametrize(
    "m, expected",
    [(2, [1, 1]), (3, [1, 0, 1]), (4, [1, 0, 0, 1])],
)
def test_sphere_betti(m, expected):
    K = simplex_boundary(m)
    assert K.count(0) == m + 1
    assert betti(K) == expected


def test_simplex_boundary_size():
    K = simplex_boundary(4)
    assert sum(K.count(k) for k in range(K.top + 1)) == 2**5 - 2


def test_torus_counts_and_betti():
    T = product_complex(circle(3), circle(3))
    assert [T.count(k) for k in range(3)] == [9, 27, 18]
    assert sum((-1) ** k * T.count(k) for k in range(3)) == 0  # Euler characteristic
    assert betti(T) == [1, 2, 1]


def test_torus_one_twisted_factor_kills_cohomology():
    T = product_complex(circle(3, holonomy=0.7), circle(3))
    assert betti(T) == [0, 0, 0]
    assert delta_squared_max(T) < 1e-12


def test_circle_times_sphere():
    K = product_complex(circle(3), simplex_boundary(4))
    assert [K.count(k) for k in range(5)] == [15, 75, 150, 150, 60]
    assert betti(K) == [1, 1, 0, 1, 1]
    assert betti(product_complex(circle(3, holonomy=1.1), simplex_boundary(4))) == [0] * 5


def test_product_weights_are_factor_sums():
    K1 = circle(3, holonomy=0.5)
    K2 = circle(3, holonomy=-0.2)
    K = product_complex(K1, K2)
    n2 = 3
    for (u, v) in K.simplices(1):
        (i1, j1), (i2, j2) = divmod(u, n2), divmod(v, n2)
        expect = K1.theta_of(i1, i2) + K2.theta_of(j1, j2)
        assert K.theta_of(u, v) == pytest.approx(expect, abs=1e-12)
    assert delta_squared_max(K) < 1e-12


def all_pairs_product(K1, K2):
    """The staircase product with lattice paths through every pair of factor simplices, not only maximal ones."""
    n2 = K2.n_vertices

    def walk(s1, s2, i, j):
        here = (s1[i] * n2 + s2[j],)
        if (i, j) == (len(s1) - 1, len(s2) - 1):
            yield here
        if i + 1 < len(s1):
            yield from (here + rest for rest in walk(s1, s2, i + 1, j))
        if j + 1 < len(s2):
            yield from (here + rest for rest in walk(s1, s2, i, j + 1))

    every = lambda K: [s for k in range(K.top + 1) for s in K.simplices(k)]
    family = closure({p for s1 in every(K1) for s2 in every(K2) for p in walk(s1, s2, 0, 0)})
    edges = [s for s in family if len(s) == 2]
    theta = {(u, v): K1.theta_of(u // n2, v // n2) + K2.theta_of(u % n2, v % n2) for u, v in edges}
    return TwistedComplex(K1.n_vertices * n2, family, theta)


@pytest.mark.parametrize(
    "K1, K2",
    [
        (circle(6, 0.4), simplex_boundary(4)),
        (circle(4, -0.2), circle(3, 0.5)),
        (simplex_boundary(3), circle(3)),
        (TwistedComplex(4, closure([(0, 1, 2), (2, 3)]), {(2, 3): 0.3}), circle(3, 0.7)),
    ],
)
def test_product_paths_through_maximal_simplices_suffice(K1, K2):
    K, oracle = product_complex(K1, K2), all_pairs_product(K1, K2)
    assert {k: K.simplices(k) for k in range(K.top + 1)} == {k: oracle.simplices(k) for k in range(oracle.top + 1)}
    assert K.theta == oracle.theta


# -- coboundary algebra -----------------------------------------------------


def test_delta_squared_vanishes_with_weights():
    K = TwistedComplex(
        4,
        closure([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
        theta={(0, 1): 0.3, (1, 2): -0.8, (0, 2): -0.5, (1, 3): 0.1, (0, 3): 0.4, (2, 3): 0.9},
    )
    assert delta_squared_max(K) < 1e-12


def test_untwisted_edge_row_is_signed_incidence():
    K = TwistedComplex(3, closure([(0, 1, 2)]))
    d0 = twisted_coboundary(K, 0)
    edges = K.simplices(1)
    r = edges.index((0, 2))
    np.testing.assert_allclose(d0[r], [-1.0, 0.0, 1.0])


# -- gauge invariance -------------------------------------------------------


def test_gauge_conjugation_identity():
    """delta_theta' T_k = T_{k+1} delta_theta with T = diag(e^{-p(first vertex)})."""
    K = circle(5, holonomy=0.4)
    p = np.array([0.3, -1.0, 0.2, 0.9, -0.4])
    Kg = gauge_shift(K, p)
    for k in range(K.top):
        d = twisted_coboundary(K, k)
        dg = twisted_coboundary(Kg, k)
        T_lo = np.diag([math.exp(-p[s[0]]) for s in K.simplices(k)])
        T_hi = np.diag([math.exp(-p[s[0]]) for s in K.simplices(k + 1)])
        np.testing.assert_allclose(dg @ T_lo, T_hi @ d, atol=1e-12)


@given(st.lists(st.integers(min_value=-2, max_value=2), min_size=9, max_size=9))
@settings(max_examples=20, deadline=None)
def test_betti_gauge_invariant(pot):
    T = product_complex(circle(3, holonomy=0.6), circle(3))
    shifted = gauge_shift(T, np.array(pot, dtype=float))
    assert betti(shifted) == betti(T)


def relabelled(K, perm):
    """``K`` with vertex ``v`` renamed ``perm[v]``; each simplex and edge weight reoriented to increasing order."""
    simplices = [tuple(sorted(perm[v] for v in s)) for k in range(K.top + 1) for s in K.simplices(k)]
    theta = {}
    for (u, v), w in K.theta.items():
        a, b = perm[u], perm[v]
        theta[(min(a, b), max(a, b))] = w if a < b else -w
    return TwistedComplex(K.n_vertices, simplices, theta)


def twisted_coboundary(K, k):
    """Dense matrix of ``delta_theta`` from degree k to k+1 (rows are (k+1)-simplices)."""
    cols, vals = _coboundary(K, k)
    M = np.zeros((len(cols), K.count(k)))
    np.put_along_axis(M, cols, vals, axis=1)
    return M


def svd_betti(K):
    """The reference rule: ranks from the singular values of the dense coboundaries."""
    ranks = [int(np.linalg.matrix_rank(twisted_coboundary(K, k), rtol=1e-9)) for k in range(K.top + 1)]
    return [K.count(k) - r - (ranks[k - 1] if k else 0) for k, r in enumerate(ranks)]


@pytest.mark.parametrize(
    "K, expected",
    [
        pytest.param(product_complex(circle(3), circle(3)), [1, 2, 1], id="torus"),
        pytest.param(product_complex(circle(3, 0.7), circle(3)), [0, 0, 0], id="torus-one-twisted-factor"),
        pytest.param(product_complex(circle(3), simplex_boundary(2)), [1, 2, 1], id="circle-x-circle-boundary"),
        pytest.param(simplex_boundary(3), [1, 0, 1], id="sphere"),
        pytest.param(circle(5, holonomy=-0.4), [0, 0], id="twisted-circle"),
    ],
)
def test_laplacian_kernel_has_the_betti_dimension(K, expected):
    """Discrete Hodge theorem: ``dim ker(delta delta^T + delta^T delta)`` in degree k is ``b_k``."""
    d = [twisted_coboundary(K, k) for k in range(K.top + 1)]
    for k in range(K.top + 1):
        lap = d[k].T @ d[k] + (d[k - 1] @ d[k - 1].T if k else 0.0)
        assert K.count(k) - np.linalg.matrix_rank(lap, hermitian=True) == expected[k]
    assert betti(K) == expected


def corrupted(K, seed):
    """``K`` with each edge's ``e^theta`` scaled at random after validation, so ``delta^2`` no longer vanishes."""
    K._growth = K._growth * np.random.default_rng(seed).uniform(0.5, 2.0, K._growth.shape)
    return K


@pytest.mark.parametrize(
    "K, vanishes",
    [
        pytest.param(product_complex(circle(3, 0.5), circle(3, -0.2)), True, id="twisted-torus"),
        pytest.param(gauge_shift(simplex_boundary(4), np.linspace(-0.8, 0.6, 5)), True, id="shifted-sphere"),
        pytest.param(corrupted(product_complex(circle(3), circle(3)), 5), False, id="corrupted-torus"),
        pytest.param(corrupted(product_complex(circle(3), simplex_boundary(3)), 6), False, id="corrupted-circle-x-sphere"),
    ],
)
def test_coboundary_defects_match_the_dense_product(K, vanishes):
    """The sparse ``coboundary_defects`` equals ``max |delta_{k+1} delta_k|`` of the dense matrices in every degree."""
    dense = [float(np.abs(twisted_coboundary(K, k + 1) @ twisted_coboundary(K, k)).max(initial=0.0)) for k in range(K.top)]
    got = coboundary_defects(K)
    np.testing.assert_allclose(got, dense, rtol=1e-12, atol=1e-15)
    assert (max(got) < 1e-12) == vanishes


@given(
    second=st.sampled_from(["sphere", "circle"]),
    a=st.integers(3, 5),
    b=st.integers(2, 4),
    h=st.one_of(st.just(0.0), st.floats(1e-5, 3.0), st.floats(-3.0, -1e-5)),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_betti_matches_svd_rank_rule(second, a, b, h, data):
    """Sparse elimination and the SVD rule agree on relabelled, gauge-shifted products.

    The domain is holonomy 0 or ``1e-5 <= |h| <= 3`` and potentials of size
    at most 1.  Outside it the two rules can disagree and neither answer
    means anything: on the torus with ``h = 1e-8`` the SVD rule gives
    ``[0, 1, 1]``, and potentials of standard deviation 3 with ``h = 1e-4``
    spread the coboundary's scales past the rank tolerance.
    """
    K = product_complex(circle(a, h), simplex_boundary(b) if second == "sphere" else circle(b + 1))
    perm = data.draw(st.permutations(range(K.n_vertices)))
    pot = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=K.n_vertices, max_size=K.n_vertices))
    K = gauge_shift(relabelled(K, perm), pot)
    assert betti(K) == svd_betti(K)


def assert_clearing_holds(K):
    """``betti``'s ranks from the top degree down, each step checked against the dense coboundaries.

    The pivot columns of ``delta_k`` must be ``rank delta_k`` independent
    columns, and the rows they clear from ``delta_{k-1}`` must be
    combinations of its other rows: leaving them out keeps the SVD rank.
    """
    pivots = ()
    for k in range(K.top, -1, -1):
        dense = twisted_coboundary(K, k)
        kept = np.delete(dense, np.asarray(pivots, dtype=np.intp), axis=0)
        assert np.linalg.matrix_rank(kept, rtol=1e-9) == np.linalg.matrix_rank(dense, rtol=1e-9)
        rank, pivots = _rank(*_coboundary(K, k), K.count(k), pivots)
        assert rank == len(pivots) == len(set(pivots.tolist())) == np.linalg.matrix_rank(dense, rtol=1e-9)
        assert np.linalg.matrix_rank(dense[:, pivots], rtol=1e-9) == rank
    assert betti(K) == svd_betti(K)


@given(
    second=st.sampled_from(["sphere", "circle"]),
    a=st.integers(3, 5),
    b=st.integers(2, 4),
    h=st.one_of(st.just(0.0), st.floats(1e-5, 3.0), st.floats(-3.0, -1e-5)),
    data=st.data(),
)
@settings(max_examples=15, deadline=None)
def test_cleared_rows_are_combinations_of_the_others(second, a, b, h, data):
    """The products of ``test_betti_matches_svd_rank_rule`` meet the clearing precondition at every degree."""
    K = product_complex(circle(a, h), simplex_boundary(b) if second == "sphere" else circle(b + 1))
    perm = data.draw(st.permutations(range(K.n_vertices)))
    pot = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=K.n_vertices, max_size=K.n_vertices))
    assert_clearing_holds(gauge_shift(relabelled(K, perm), pot))


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_rank_of_small_sparse_matrices_matches_svd(data):
    """``_rank`` as a rank routine: small integer matrices full of singleton rows and columns, some rows cleared.

    Two rows may hold the same lone column, and a row may hold two lone
    columns: peeling must still take one pivot per row and per column.
    """
    n_rows, n_cols = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    width = data.draw(st.integers(1, min(3, n_cols)))
    row = st.lists(st.integers(0, n_cols - 1), min_size=width, max_size=width, unique=True)
    cols = np.array([data.draw(row) for _ in range(n_rows)], dtype=np.intp)
    vals = np.array(data.draw(st.lists(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 3.0]), min_size=cols.size, max_size=cols.size)))
    vals = vals.reshape(cols.shape)
    cleared = data.draw(st.lists(st.integers(0, n_rows - 1), unique=True, max_size=2))
    dense = np.zeros((n_rows, n_cols))
    np.put_along_axis(dense, cols, vals, axis=1)
    rank, pivots = _rank(cols, vals, n_cols, cleared)
    assert rank == len(set(pivots.tolist())) == np.linalg.matrix_rank(np.delete(dense, cleared, axis=0))
    assert np.linalg.matrix_rank(dense[:, pivots]) == rank


@pytest.mark.parametrize("holonomy", [0.0, 0.6])
def test_clearing_with_free_faces(holonomy):
    """A filled triangle with a whisker edge: free faces give singleton rows and columns to peel."""
    K = TwistedComplex(4, closure([(0, 1, 2), (2, 3)]), {(0, 1): holonomy, (0, 2): holonomy})
    assert_clearing_holds(K)
    assert betti(K) == [1, 0, 0]


@pytest.mark.parametrize("h", [360.0, 400.0, 700.0, -700.0])
def test_large_holonomy_follows_the_svd_rule(h):
    """Weights beyond ``e^354`` keep the rank scale finite (no overflow warning) and agree with the SVD rule."""
    K = circle(3, holonomy=h)
    assert betti(K) == svd_betti(K)


@pytest.mark.parametrize("k, m", [(3, 4), (3, 5), (4, 4), (4, 5), (6, 4), (8, 5)])
def test_betti_at_workload_size_matches_kunneth(k, m):
    """``circle(k) x boundary(simplex m)``, relabelled, at the sizes of the benchmark's documents.

    Untwisted, Kunneth gives Betti 1 in degrees 0, 1, m-1 and m; any
    holonomy on the circle factor kills every degree.
    """
    perm = list(np.random.default_rng([k, m]).permutation(k * (m + 1)))
    for h, expected in ((0.0, [1 if d in (0, 1, m - 1, m) else 0 for d in range(m + 1)]), (0.75, [0] * (m + 1))):
        K = relabelled(product_complex(circle(k, h), simplex_boundary(m)), perm)
        assert sum(K.count(d) for d in range(K.top + 1)) <= 2976
        assert betti(K) == expected


@pytest.mark.parametrize(
    "K",
    [
        relabelled(product_complex(circle(4, 0.3), simplex_boundary(3)), [7, 2, 15, 0, 9, 4, 12, 1, 14, 5, 11, 3, 8, 13, 6, 10]),
        gauge_shift(product_complex(circle(3), circle(3, -0.4)), np.linspace(-1.0, 1.0, 9)),
    ],
)
def test_coboundary_entries_match_the_per_simplex_loop(K):
    """The array-built columns and values equal, bit for bit, a lookup of every face of every row in a dict."""
    for k in range(K.top + 1):
        index = {s: i for i, s in enumerate(K.simplices(k))}
        rows = K.simplices(k + 1)
        cols = [[index[s[:i] + s[i + 1 :]] for i in range(k + 2)] for s in rows]
        vals = [[math.exp(K.theta[s[:2]])] + [(-1.0) ** i for i in range(1, k + 2)] for s in rows]
        got = _coboundary(K, k)
        assert got[0].tolist() == cols and got[1].tolist() == vals


# -- H^0 and parallel sections ---------------------------------------------


def test_h0_report_trivial_holonomy():
    K = circle(4)
    assert betti(K)[0] == 1
    assert loop_defect(K) < 1e-12


def test_h0_report_nontrivial_holonomy():
    K = circle(4, holonomy=0.8)
    assert betti(K)[0] == 0
    assert loop_defect(K) == pytest.approx(0.8)

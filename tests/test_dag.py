"""The coefficient DAG against its interpretation by the tests' ``Dual`` oracle (:mod:`tests.dualnum`)."""

import functools
import gc
import itertools
import math
import operator
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from lcslab import charts, dual, forms
from lcslab.charts import Chart
from lcslab.coupling import EndomorphismField
from lcslab.errors import DomainError, UsageError
from lcslab.forms import (
    DifferentialForm,
    ScalarField,
    SmoothMap,
    VectorField,
    contract,
    coordinate,
    exterior_derivative,
    interior_product,
    lie_derivative,
    pullback,
    wedge,
)
from lcslab.gallery import coupling_example_s2, hopf, run_manifest
from lcslab.lcs import twisted_derivative
from lcslab.parser import parse_field
from lcslab.report import form_values
from tests import dualnum
from tests.pointwise import base_times

# points on both sides of zero, so sqrt, log and division leave their domains
POINTS = np.array([[0.3, -0.7], [1.2, 0.4], [-0.5, -1.1], [2.0, 0.0], [-1.4, 0.9], [0.0, 1.3]])

atoms = st.sampled_from(["x", "y", "0.5", "2", "1.5", "0"])


def _compound(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(children, st.integers(-3, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(st.sampled_from(["sqrt", "exp", "log", "sin", "cos"]), children).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(children, children).map(lambda t: f"atan2({t[0]}, {t[1]})"),
        children.map(lambda c: f"-{c}"),
    )


expressions = st.recursive(atoms, _compound, max_leaves=8)


def _reference(fn, cols):
    """``fn`` on the columns, broadcast to one column."""
    with np.errstate(all="ignore"):
        return np.broadcast_to(np.asarray(fn(cols), dtype=float), (len(cols[0]),))


def _references(node, number) -> list:
    """Value, then each first partial followed by its second partials, from nested dual lifts of the interpretation."""
    cols = list(POINTS.T)
    fn = lambda p: dualnum.interpret(node, p, number)
    want = [_reference(fn, cols)]
    for i in range(2):
        first = lambda p: dualnum.partial(fn, p, i)
        want += [_reference(first, cols), *(_reference(lambda p: dualnum.partial(first, p, j), cols) for j in range(2))]
    return want


def _same(got, want):
    np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(expressions)
def test_replay_and_partials_match_dual_lifts(plane, expr):
    """Value, first and second partials of a parsed expression against nested dual lifts of its interpretation.

    Where ``math`` refuses a constant subexpression outside its domain, the
    reference computes its constants as numpy does and expects its nan or inf.
    """
    f = parse_field(expr, plane).node
    try:
        want = _references(f, float)
    except (ArithmeticError, ValueError):
        want = _references(f, lambda c: np.array([c]))
    got = [f] + [g for i in range(2) for g in (f.partial(i), f.partial(i).partial(0), f.partial(i).partial(1))]
    for g, w in zip(got, want, strict=True):
        _same(dual.evaluate(g, POINTS), w)


def test_d_log_is_not_finite_left_of_zero(plane):
    dlog = form_values(exterior_derivative(DifferentialForm.from_scalar(parse_field("log(x)", plane))), POINTS)
    assert not dlog[(1,)].any()
    np.testing.assert_array_equal(np.isfinite(dlog[(0,)]), POINTS[:, 0] > 0)
    np.testing.assert_allclose(dlog[(0,)][POINTS[:, 0] > 0], 1.0 / POINTS[POINTS[:, 0] > 0, 0])


def test_signed_zero_constants_stay_distinct(plane):
    assert dual.const(0.0) is not dual.const(-0.0)
    assert dual.const(0.0) is dual.const(0)
    over = [ScalarField(plane, dual.var(0) / dual.const(z)).batch([[1.0, 0.0]])[0] for z in (0.0, -0.0)]
    assert over == [np.inf, -np.inf]


def test_a_sum_starts_from_its_first_nonzero_term():
    x, y = dual.var(0), dual.var(1)
    empty = dual.total([])
    assert empty == 0.0 and math.copysign(1.0, empty) == 1.0
    # -x + y, with no zero before the unary minus, folds to y - x
    assert dual.total([(-1, x), (1, y)]) is y - x
    assert dual.total([(-1, x)]).op == "neg"
    # the zero constant, a structurally zero partial and numeric zeros are dropped
    assert dual.total([(1, dual.const(0.0)), (1, x), (-1, 0.0), (1, y.partial(0)), (-1, 0)]) is x
    assert dual.total([(1, 2.0), (-1, 0.5)]) == 1.5
    # a product with a zero factor stays: its other factor may be non-finite
    kept = dual.total([(1, 0.0 * dual.log(x))])
    assert kept.op == "*"
    assert np.isnan(dual.evaluate(kept, [[-1.0, 0.0]])[0])


@pytest.mark.parametrize(
    "closure, cause",
    [
        pytest.param(lambda p: p[0] * p[1] if p[0] > 0 else p[1], TypeError, id="branches-on-a-value"),
        pytest.param(lambda p: math.exp(p[0]) * p[1], TypeError, id="calls-math"),
        pytest.param(lambda p: None, type(None), id="returns-none"),
    ],
)
@pytest.mark.parametrize(
    "build",
    [
        pytest.param(ScalarField, id="scalar"),
        pytest.param(lambda chart, fn: Chart("c", chart.coords, domain=(fn,)), id="domain"),
        pytest.param(lambda chart, fn: EndomorphismField(chart, lambda p: [[fn(p), 0.0], [0.0, fn(p)]]), id="endo"),
    ],
)
def test_untraceable_closure_is_refused(plane, build, closure, cause):
    """A closure that cannot run on coordinate nodes, or returns no number or node, is refused with the fix."""
    with pytest.raises(UsageError, match="lcslab.dual's exp/log/sqrt/sin/cos/atan2") as info:
        build(plane, closure)
    assert "do not branch on values" in str(info.value)
    assert type(info.value.__cause__) is cause  # a closure's own error stays its cause


def test_interning_is_weak(plane):
    """Nodes live as long as something refers to them: dropping a form empties the table again."""
    gc.collect()
    before = len(dual._NODES)
    w = DifferentialForm(plane, 1, {(0,): parse_field("3.25 * y * exp(x) / (1.75 + x^2)", plane)})
    rotation = VectorField(plane, [-coordinate(plane, 1), coordinate(plane, 0)])
    form_values(lie_derivative(rotation, w), POINTS)
    assert len(dual._NODES) > before
    del w, rotation
    gc.collect()
    assert len(dual._NODES) == before


def test_hopf4_lie_derivatives_share_their_nodes():
    """One replay of the four ``L_rho omega`` of hopf(4) evaluates each shared node once: 4,521 steps (7,557 by Cartan's formula)."""
    objects = hopf(4, (1.0, 1.0, 1.0, 1.0)).objects
    omega = objects["structure"].omega
    roots = [f for rho in objects["action"].fields for f in lie_derivative(rho, omega).coeffs.values()]
    assert len(roots) == len(set(map(id, roots))) > 100
    assert len(dual.Tape(roots).program) <= 5_000


def test_partial_is_the_memoized_derivative():
    """``partial`` returns the derivative node itself, never a stand-in for it, across two built and run manifests."""
    manifests = [coupling_example_s2(), hopf(4, (1.0, 1.0, 1.0, 1.0))]
    for man in manifests:
        run_manifest(man, points=8, seed=0, tol=1e-8)
    nodes = [ref() for ref in list(dual._NODES.values())]
    assert {n.op for n in nodes if n is not None} <= {"c", "x", "pow", *dual._UNARY, *dual._BINARY}
    omega = manifests[1].objects["structure"].omega
    for f in omega.coeffs.values():
        for j in range(8):
            d = dual._partial(f, j)
            assert f.partial(j) is (dual._ZERO if d is None else d)


def test_equal_expressions_are_one_node(plane):
    x, y = dual.var(0), dual.var(1)
    assert (x * y + dual.sin(x)) is (dual.sin(x) + y * x)
    assert parse_field("x * y + sin(x)", plane).node is parse_field("sin(x) + y*x", plane).node
    assert x * 1.0 is x and x / 1.0 is x and x - 0.0 is x
    # not bit-exact identities, so never folded
    assert x + 0.0 is not x and x - (-0.0) is not x
    assert (0.0 * x).op == "*"


def test_pullback_substitutes_every_coefficient_through_one_tape(built_tapes):
    """coupling-s2's ``Omega`` by a fiber element: one shared tape, kept under all the roots, the same nodes."""
    man = coupling_example_s2()
    c = man.objects["coupling"]
    g = next(iter(man.objects["action"].elements.values()))
    G = base_times(man.objects["base"], g, c.total, c.total)
    roots = list(c.Omega.coeffs.values())
    image = G.components
    alone = [dual.Tape([r]).run(image)[0] for r in roots]
    assert len(dual.Tape(roots).program) < sum(len(dual.Tape([r]).program) for r in roots)
    built_tapes.clear()
    assert all(a is b for a, b in zip(forms._substitute(roots, G), alone))
    pullback(G, c.Omega)
    assert not [rs for rs in built_tapes if len(rs) == 1 and any(rs[0] is r for r in roots)]
    assert tuple(map(id, roots)) in dual._TAPES


def test_a_kept_tape_leaves_with_the_first_of_its_roots_to_die():
    x, y = dual.var(0), dual.var(1)
    a, b = dual.exp(x * y + 0.8125), dual.sin(x) - 0.8125  # nodes no other test holds
    key = (id(a), id(b))
    kept = dual.tape([a, b])
    assert dual.tape([a, b]) is kept and key in dual._TAPES
    assert (id(b), id(a)) not in dual._TAPES  # roots in another order are another tape
    del a
    gc.collect()
    assert key not in dual._TAPES
    assert dual.evaluate(b, [[0.5, 0.0]]).tolist() == dualnum.interpret(b, [np.array([0.5]), np.array([0.0])]).tolist()


def test_a_node_that_reuses_a_dead_roots_id_replays_its_own_values():
    """A root's entry leaves before its id can be reused, so a new node there never replays the old tape."""
    old = dual.const(0.6180339887)
    # nodes allocated next fill the allocator's pool of ``old``, which then
    # hands its block out first when ``old`` dies, whatever else the heap holds
    fill = [dual.const(0.25 + i) for i in range(1000)]
    assert dual.evaluate(old, [[0.0]]).tolist() == [0.6180339887] and (id(old),) in dual._TAPES
    dead = id(old)
    del old
    gc.collect()
    made = []
    while len(made) < 100_000 and (not made or id(made[-1]) != dead):
        made.append(dual.const(len(made) + 0.5))
    assert id(made[-1]) == dead  # the allocator handed the id out again
    assert dual.evaluate(made[-1], [[0.0]]).tolist() == [len(made) - 0.5]


def test_a_dag_ten_thousand_deep_evaluates_and_differentiates():
    """Tape construction and derivatives walk explicit stacks, so depth is not bounded by recursion."""

    def chain(p):
        v = p[0]
        for i in range(10_000):
            v = 0.5 * v + dualnum.sin(p[0]) * p[1] if i % 2 else v - 0.25 * p[1]
        return v

    node = chain([dual.var(0), dual.var(1)])
    values, derivatives = dual.jet(node, POINTS)
    np.testing.assert_array_equal(dual.evaluate(node, POINTS), values)
    for k, p in enumerate(POINTS):
        assert values[k] == chain(list(p))
        for j in range(2):
            np.testing.assert_allclose(derivatives[k, j], dualnum.partial(chain, list(p), j), rtol=1e-13, atol=1e-15)
    mixed = node.partial(1).partial(0)  # asked out of order: taken as d_1 (d_0 chain), on the same explicit stack
    assert mixed is node.partial(0).partial(1)
    p = list(POINTS[0])
    want = dualnum.partial(lambda q: dualnum.partial(chain, q, 1), p, 0)
    np.testing.assert_allclose(dual.evaluate(mixed, POINTS[:1])[0], want, rtol=1e-12)


# -- one node per mixed partial -------------------------------------------------

_MIXED = [
    "sqrt(1.25 + x^2 * y) * log(2.5 + z^2)",
    "atan2(x * y - 0.375, 1.5 + z) * (x + z)^-2",
    "sin(x * z) * cos(y - 0.625 * x) + exp(y * z)^3",
    "log(sqrt(3.5 + x^2 + y^2 + z^2)) / (x^2 + 1.125) - sin(y)^2 * z",
]


@pytest.mark.parametrize("expr", _MIXED)
def test_a_mixed_partial_is_one_node_whatever_the_order(r3, expr):
    """``d_i d_j f is d_j d_i f``, to third order, each asked first out of order; values against nested duals."""
    f = parse_field(expr, r3).node
    pts = r3.sample(8, seed=2)
    cols = [float(c) for c in pts[0]]

    def nested(order):  # dual lifts taken in the order given, the first innermost
        fn = lambda p: dualnum.interpret(f, p)
        for i in order:
            fn = lambda p, fn=fn, i=i: dualnum.partial(fn, p, i)
        return fn(cols)

    for order in itertools.product(range(3), repeat=3):
        for k in (2, 3):
            node = f
            for i in order[:k]:
                node = node.partial(i)
            assert node is functools.reduce(lambda n, i: n.partial(i), sorted(order[:k]), f)
            np.testing.assert_allclose(dual.evaluate(node, pts[:1])[0], nested(order[:k]), rtol=1e-11, atol=1e-12)


def test_derivative_chains_that_return_to_their_start_terminate():
    """``d_1^4 sin(x_1)`` is ``sin(x_1)`` again, then ``d_0``; ``exp`` is its own derivative.

    A node that has derivatives records no origin, so ``sin`` does not
    become the derivative of ``-cos`` and no chain of origins loops.
    """
    x, y = dual.var(0), dual.var(1)
    for s in (dual.sin(y), dual.sin(y + 0.3125)):
        d = s
        for _ in range(4):
            d = d.partial(1)
        assert d is s and d.partial(0) is dual._ZERO
    assert s._origin is None
    e = dual.exp(y)
    assert e.partial(1) is e and e.partial(1).partial(1).partial(0) is dual._ZERO
    ex = dual.exp(x * y + 0.3125)
    assert ex.partial(1).partial(0) is ex.partial(0).partial(1)


def test_an_origin_that_needs_its_own_node_takes_the_rule():
    """A cycle through an origin: ``g = d_1 (g * y)``, recorded as ``g``'s origin before ``g`` has derivatives.

    ``d_0 g`` through that origin needs ``d_0 (g * y)`` and so ``d_0 g``; the
    pair in progress is met again, and the call takes every rule as it is.
    Derivatives are taken arguments first, so no derivative records an
    origin it is part of; the origin is set by hand to reach the guard.
    """
    x, y = dual.var(0), dual.var(1)
    g = dual.sin(0.8125 * x + 0.4375)
    f = g * y
    g._origin = (weakref.ref(f), 1)
    assert g.partial(0) is 0.8125 * dual.cos(0.8125 * x + 0.4375)
    assert f.partial(1) is g and f.partial(0).partial(1) is g.partial(0)


# -- sign folds -------------------------------------------------------------------

_SIGN_VALUES = [0.0, -0.0, 1.5, -2.25, 5e-324, -1e-310, 2.2e-308, np.inf, -np.inf, np.nan]
_SIGN_FOLDS = [
    (lambda a, b: -(-a), lambda a, b: np.negative(np.negative(a))),
    (lambda a, b: a + (-b), lambda a, b: np.add(a, np.negative(b))),
    (lambda a, b: (-b) + a, lambda a, b: np.add(np.negative(b), a)),
    (lambda a, b: a - (-b), lambda a, b: np.subtract(a, np.negative(b))),
]


@pytest.mark.parametrize("build, unfolded", _SIGN_FOLDS, ids=["neg-neg", "add-neg", "neg-add", "sub-neg"])
def test_a_sign_fold_replays_its_unfolded_form_bit_for_bit(build, unfolded):
    """The four sign folds on signed zeros, subnormals, infinities and nan; IEEE 754 leaves the sign of a nan open."""
    x, y = dual.var(0), dual.var(1)
    node = build(x, y)
    assert "neg" not in {node.op, *(a.op for a in node.args)}
    pts = np.array(list(itertools.product(_SIGN_VALUES, repeat=2)))
    got = dual.evaluate(node, pts)
    with np.errstate(all="ignore"):
        want = unfolded(pts[:, 0], pts[:, 1])
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    assert got[finite].tobytes() == want[finite].tobytes()


def test_sign_folds_name_one_node():
    x, y = dual.var(0), dual.var(1)
    assert -(-x) is x and x + (-y) is x - y and (-y) + x is x - y and x - (-y) is x + y
    assert (-x) + (-y) is (-x) - y


_PRODUCT_FOLDS = [
    (lambda a, b: (-a) * b, lambda a, b: np.multiply(np.negative(a), b)),
    (lambda a, b: a * (-b), lambda a, b: np.multiply(a, np.negative(b))),
    (lambda a, b: (-a) / b, lambda a, b: np.divide(np.negative(a), b)),
    (lambda a, b: a / (-b), lambda a, b: np.divide(a, np.negative(b))),
    (lambda a, b: (-a) * (-b), lambda a, b: np.multiply(np.negative(a), np.negative(b))),
    (lambda a, b: (-a) / (-b), lambda a, b: np.divide(np.negative(a), np.negative(b))),
]


@pytest.mark.parametrize(
    "build, unfolded", _PRODUCT_FOLDS, ids=["neg-mul", "mul-neg", "neg-div", "div-neg", "neg-mul-neg", "neg-div-neg"]
)
def test_a_negation_leaves_a_product_or_quotient_bit_for_bit(build, unfolded):
    """``(-a)*b``, ``a*(-b)``, ``(-a)/b`` and ``a/(-b)`` are ``-(a o b)``, two negations none.

    On every pair of signed zeros, subnormals, infinities and nan the bits of
    the replay are those of the unfolded form, except the sign of a nan, which
    IEEE 754 leaves open (x86 keeps the first operand's).
    """
    x, y = dual.var(0), dual.var(1)
    node = build(x, y)
    inner = node.args[0] if node.op == "neg" else node
    assert inner.op in "*/" and {a.op for a in inner.args} == {"x"}
    pts = np.array(list(itertools.product(_SIGN_VALUES, repeat=2)))
    got = dual.evaluate(node, pts)
    with np.errstate(all="ignore"):
        want = unfolded(pts[:, 0], pts[:, 1])
    assert np.array_equal(np.isnan(got), np.isnan(want))
    number = ~np.isnan(want)
    assert np.array_equal(got[number].view(np.uint64), want[number].view(np.uint64))


def test_a_negated_factor_is_absorbed_by_a_sum():
    x, y, z = dual.var(0), dual.var(1), dual.var(2)
    assert (-x) * y is -(x * y) and x / (-y) is -(x / y) and (-x) * (-y) is x * y and (-x) / (-y) is x / y
    assert z + (-x) * y is z - x * y and z - x * (-y) is z + x * y


def test_a_substituted_zero_adds_no_step():
    """After a coupling-s2 run no live sum or difference has a 0.0 constant argument (three did, from ``Tape.run``)."""

    def zero_sums():
        nodes = (ref() for ref in list(dual._NODES.values()))
        return [n for n in nodes if n is not None and n.op in ("+", "-") and any(a is dual._ZERO for a in n.args)]

    gc.collect()
    before = zero_sums()  # held, so no new node takes their ids
    seen = set(map(id, before))
    man = coupling_example_s2()
    run_manifest(man, points=64, seed=0, tol=1e-8)
    assert [n for n in zero_sums() if id(n) not in seen] == []
    x, y = dual.var(0), dual.var(1)
    got = dual.Tape([x + y, x - y, y - x]).run([x / y, dual._ZERO])
    assert all(a is b for a, b in zip(got, [x / y, x / y, -(x / y)], strict=True))
    assert dual.Tape([x + y]).run([dual._ZERO, dual._ZERO]) == [0.0]


# -- the register replay -------------------------------------------------------


def _random_dag(rng) -> list:
    """Three roots of a seeded random DAG on two coordinates, with constant subtrees and signed zeros in it."""
    x, y = dual.var(0), dual.var(1)
    consts = [dual.const(c) for c in (0.0, -0.0, 0.5, -1.5, 2.0)]
    # constant-only subtrees, folded when the tape is built
    consts += [dual.exp(consts[2]), dual.log(consts[4]), dual.sin(consts[3]), dual.cos(consts[1]), consts[4] ** -3]
    pool = [x, y, -x, x * consts[1], y - y]  # -0.0 and 0.0 where the coordinates vanish
    unary = [dual.exp, dual.log, dual.sqrt, dual.sin, dual.cos, operator.neg, lambda a: a ** int(rng.integers(-3, 4))]
    binary = [operator.add, operator.sub, operator.mul, operator.truediv, dual.atan2]
    for _ in range(80):
        a = pool[int(rng.integers(max(0, len(pool) - 12), len(pool)))]  # recent nodes, so the DAG gets deep
        if rng.random() < 0.4:
            pool.append(unary[int(rng.integers(len(unary)))](a))
        else:
            b = (pool + consts)[int(rng.integers(len(pool) + len(consts)))]
            pool.append(binary[int(rng.integers(len(binary)))](*((a, b) if rng.random() < 0.5 else (b, a))))
    return [pool[int(i)] for i in rng.integers(len(pool) // 2, len(pool), size=3)]


@pytest.mark.parametrize("n", [1, 211])
def test_register_replay_is_bit_identical_to_the_generic_run(n, monkeypatch):
    """The register replay computes what the generic interpretation of the nodes computes on float columns, bit for bit.

    The interpretation computes its constants on one-point columns too, as
    the tape folds them.  The scratch budget is cut to 64 register rows, so
    at 211 points (a prime) a tape replays in several slices, the last one
    shorter.
    """
    monkeypatch.setattr(dual, "_SCRATCH_BYTES", 64 * 8)
    rng = np.random.default_rng(n)
    pts = rng.uniform(-2.0, 2.0, size=(n, 2))
    pts[rng.random(pts.shape) < 0.1] = 0.0  # signed zeros, and points outside log and sqrt domains
    pts[rng.random(pts.shape) < 0.05] = -0.0
    x, y, folded = dual.var(0), dual.var(1), dual.sin(dual.const(0.5)) ** -2
    spilled = sliced = 0
    for _ in range(20):
        roots = _random_dag(rng)
        scratch = dual.Tape(roots).registers - len(roots)  # values beyond the roots' own registers
        spilled += scratch > 0
        sliced += 1 < 64 // max(1, scratch) < n  # slices of that many points, as replay sizes them
        # roots that are coordinates, constants, folded or repeated
        for rs in (roots, roots + [x, dual.const(-0.0), folded, roots[0], y, dual.const(0.0), roots[1]]):
            got = dual.evaluate(rs, pts)
            with np.errstate(all="ignore"):
                vals = dualnum.interpret(rs, list(pts.T), number=lambda c: np.array([c]))
                want = np.stack([np.broadcast_to(v, (n,)) for v in vals], axis=-1)
            assert np.array_equal(got, want, equal_nan=True)
            # zeros keep their sign; IEEE 754 leaves the sign of an arithmetic NaN open
            assert np.array_equal(np.signbit(got) | np.isnan(got), np.signbit(want) | np.isnan(want))
    assert spilled >= 10 and sliced == (20 if n > 1 else 0)


def test_the_scratch_registers_of_a_replay_stay_within_the_budget():
    """300 values live at once at 8192 points need 19.7 MB of registers unsliced; a replay allocates at most the budget."""
    x = dual.var(0)
    vs = [dual.exp(x * (1.0 + i / 1000)) for i in range(300)]
    total = sum(vs)
    t = dual.Tape([sum(v * total for v in vs)])  # every v stays live until total is known
    assert t.registers - t.roots >= 300
    pts = np.linspace(-1.0, 1.0, 8192)[:, None]
    rows = [np.empty(len(pts))]
    tracemalloc.start()
    try:
        t.replay(pts, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= dual._SCRATCH_BYTES + 256 * 1024  # the data, plus a few hundred array objects and views
    assert rows[0][0] == dual.evaluate(t.run([x])[0], pts[:1])[0]


def test_a_constant_subtree_is_folded_into_the_tape():
    """Only the steps that need a coordinate are replayed; the folded value is the one numpy gives on one point."""
    x = dual.var(0)
    c = dual.exp(dual.const(0.5)) * dual.sin(dual.const(-1.5)) + dual.log(dual.const(2.0)) ** -3
    (folded,) = dualnum.interpret(c, [], number=lambda v: np.array([v]))
    assert len(dual.Tape([x * c]).program) == 1
    assert dual.evaluate([x * c, c], [[2.0]]).tolist() == [[2.0 * folded, folded]]
    assert dual.Tape([c]).run([]) == [folded]  # a constant root substitutes to its folded value


def test_an_elementary_function_of_a_number_is_a_node():
    """``exp(2.0)`` is the node ``exp(const(2.0))``, folded when a tape is built; an array is no coefficient."""
    assert isinstance(dual.exp(2.0), dual.Node)
    for f in (dual.exp, dual.log, dual.sqrt, dual.sin, dual.cos):
        assert f(2.0) is f(dual.const(2.0))
    assert dual.atan2(2.0, dual.var(0)) is dual.atan2(dual.const(2.0), dual.var(0))
    with pytest.raises(TypeError, match="exp takes nodes or numbers, not ndarray"):
        dual.exp(np.ones(3))


_SEEDED = np.random.default_rng(18).uniform(-12.0, 12.0, size=(2, 600)) * np.logspace(-3, 2, 600)
# every pair of signed zeros, ones, the ends of the float range, infinities and a nan: 0/0, 1/-0, inf-inf, 0*inf
_EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, 1e-310, 1e300, -1e300, np.inf, -np.inf, np.nan, 1000.0, -745.5]
_EDGES = np.array(list(itertools.product(_EDGE_VALUES, repeat=2))).T
_BINARY_FOLDS = (dual.atan2, operator.add, operator.sub, operator.mul, operator.truediv)


@pytest.mark.parametrize(
    "f",
    [
        dual.exp, dual.log, dual.sqrt, dual.sin, dual.cos, *_BINARY_FOLDS, operator.neg,
        *(lambda a, n=n: a**n for n in (-3, -1, 2, 3, 7)),
    ],
    ids=[
        "exp", "log", "sqrt", "sin", "cos", "atan2", "add", "sub", "mul", "div", "neg",
        "pow-3", "pow-1", "pow2", "pow3", "pow7",
    ],
)
def test_a_folded_constant_is_its_replay_bit_for_bit(f):
    """``f(c)`` folded as its tape is built equals ``f(x)`` replayed at ``x = c`` bit for bit, nan and inf included."""
    arity = 2 if f in _BINARY_FOLDS else 1
    x = [dual.var(i) for i in range(arity)]
    for c in np.concatenate([_SEEDED, _EDGES], axis=1).T:
        folded = f(*map(dual.const, c[:arity]))
        assert dual.evaluate(folded, [[0.0]]).tobytes() == dual.evaluate(f(*x), [c[:arity]]).tobytes()


def test_a_chart_without_domain_tests_points_without_a_tape(plane, monkeypatch):
    """Values that hold no node are broadcast without a tape: the mask of an empty domain needs none."""
    pts = np.array([[0.5, -1.0], [np.inf, 0.0], [0.0, np.nan], [2.0, 3.0]])
    want = plane.contains(pts)
    with monkeypatch.context() as m:
        m.setattr(dual, "tape", None)
        m.setattr(dual, "Tape", None)
        np.testing.assert_array_equal(plane.contains(pts), want)
        assert plane.contains(pts[0]) is True
    assert want.tolist() == [True, False, False, True]


# -- sample draws live as long as their charts --------------------------------------


def _disk() -> Chart:
    return Chart("disk", ("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)), (lambda p: 1.0 - p[0] * p[0] - p[1] * p[1],))


def test_a_draw_is_kept_with_its_chart_and_read_only(drawn_samples):
    """A chart draws each (count, seed) once; the draw is read-only and is, bit for bit, what a fresh chart with the same fields draws."""
    disk = _disk()
    pts = disk.sample(100, 3)
    assert disk.sample(100, 3) is pts and drawn_samples == [("disk", 100, 3)]
    assert not pts.flags.writeable and pts.shape == (100, 2)
    with pytest.raises(ValueError, match="read-only"):
        pts[0, 0] = 0.0
    assert _disk().sample(100, 3).tobytes() == pts.tobytes()
    assert disk.sample(100, 4).tobytes() != pts.tobytes()
    assert len(drawn_samples) == 3


def test_a_draw_leaves_with_its_chart():
    gc.collect()
    before = len(charts._SAMPLES)
    disk = _disk()
    disk.sample(16, 0)
    disk.sample(16, 1)
    assert len(charts._SAMPLES) == before + 2
    del disk
    gc.collect()
    assert len(charts._SAMPLES) == before


def test_a_chart_too_thin_to_sample_raises_on_every_call(drawn_samples):
    """A draw that raises is not kept: the next call draws again and raises again."""
    thin = Chart("thin", ("x",), ((-1.0, 1.0),), (lambda p: -p[0] * p[0],))
    for _ in range(2):
        with pytest.raises(DomainError, match="too thin"):
            thin.sample(8, 0)
    assert drawn_samples == [("thin", 8, 0)] * 2
    assert (id(thin), 8, 0) not in charts._SAMPLES


# -- derived forms live as long as their operands -----------------------------------


def test_derived_forms_are_kept_while_their_operands_live(plane):
    """A derived form is built once per set of operands, and leaves, with its nodes and tape, when one of them dies."""
    gc.collect()
    before = len(forms._DERIVED), len(dual._NODES), len(dual._TAPES)
    w = DifferentialForm(plane, 1, {(0,): parse_field("3.25 * y * exp(x) / (1.75 + x^2)", plane)})
    theta = DifferentialForm(plane, 1, {(1,): parse_field("0.625 + x", plane)})
    X = VectorField(plane, [-coordinate(plane, 1), coordinate(plane, 0)])
    f = parse_field("x * sin(y) - 0.375", plane)
    m = SmoothMap(plane, plane, [coordinate(plane, 1), f])

    def derive():
        return [
            lie_derivative(X, w),
            twisted_derivative(theta, w),
            wedge(theta, w),
            interior_product(X, w),
            exterior_derivative(w),
            pullback(m, w),
            DifferentialForm.from_scalar(f),
            DifferentialForm.from_scalar(contract(w, X)),
        ]

    derived = derive()
    assert all(a is b for a, b in zip(derive(), derived))
    assert derived[6].coefficient(()) is not f  # a kept value holds no operand
    form_values(derived[0], POINTS)
    assert len(forms._DERIVED) > before[0] and len(dual._TAPES) > before[2]
    del w, theta, X, f, m, derive, derived
    gc.collect()
    assert (len(forms._DERIVED), len(dual._NODES), len(dual._TAPES)) == before

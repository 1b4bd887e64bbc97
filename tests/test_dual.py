"""The tests' dual-number oracle: arithmetic and the tagged-nesting discipline."""

import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from tests import dualnum
from tests.dualnum import Dual, derivative, eps, fresh_tag, lift, partial, value

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
away_from_zero = st.floats(min_value=0.25, max_value=10.0).flatmap(
    lambda m: st.sampled_from([m, -m])
)


@given(finite, finite)
def test_addition_matches_hand_rule(a, b):
    t = fresh_tag()
    z = lift(a, t) + lift(b, t)
    assert value(z) == a + b
    assert eps(z, t) == 2.0


@given(finite, finite)
def test_product_rule(a, b):
    t = fresh_tag()
    z = lift(a, t) * Dual(t, b, 3.0)
    # (a + e)(b + 3e) = ab + (3a + b)e
    assert value(z) == a * b
    assert eps(z, t) == pytest.approx(3.0 * a + b, abs=1e-12)


@given(finite, away_from_zero)
def test_quotient_rule(a, b):
    t = fresh_tag()
    z = lift(a, t) / b
    assert value(z) == a / b
    assert eps(z, t) == pytest.approx(1.0 / b)
    w = a / lift(b, t)
    assert eps(w, t) == pytest.approx(-a / (b * b), rel=1e-12, abs=1e-12)


@given(away_from_zero, st.integers(min_value=0, max_value=6))
def test_integer_powers(x, n):
    got = derivative(lambda v: v**n, x)
    assert got == pytest.approx(n * x ** (n - 1) if n else 0.0, rel=1e-10, abs=1e-10)


def test_chain_rule_through_library_functions():
    f = lambda x: dualnum.exp(dualnum.sin(x) * x)
    x0 = 0.7
    expect = math.exp(math.sin(x0) * x0) * (math.sin(x0) + x0 * math.cos(x0))
    assert derivative(f, x0) == pytest.approx(expect, rel=1e-14)


def test_sqrt_log_atan2():
    assert derivative(dualnum.sqrt, 4.0) == pytest.approx(0.25)
    assert derivative(dualnum.log, 2.0) == pytest.approx(0.5)
    # d/dy atan2(y, 1) at y=0 is 1
    t = fresh_tag()
    assert eps(dualnum.atan2(lift(0.0, t), 1.0), t) == pytest.approx(1.0)
    t = fresh_tag()
    assert eps(dualnum.atan2(1.0, lift(0.0, t)), t) == pytest.approx(-1.0)


def test_second_derivative_no_perturbation_confusion():
    """Nested lifts with distinct tags give a clean second derivative.

    The classic failure mode is d/dx (x * d/dy (x + y)) evaluated with a
    single perturbation symbol: the inner derivative leaks into the outer
    one and the result comes out as 2 instead of 1.
    """

    def inner(x):
        return derivative(lambda y: x + y, 3.0)  # == 1, independent of x

    assert derivative(lambda x: x * inner(x), 5.0) == pytest.approx(1.0)


def test_second_derivative_value():
    d2 = derivative(lambda x: derivative(lambda y: y * y * y, x), 2.0)
    assert d2 == pytest.approx(12.0)


@given(finite)
def test_mixed_partial_through_nested_tags(a):
    t1 = fresh_tag()
    t2 = fresh_tag()
    z = lift(a, t1) * lift(a, t2)  # f(x, y) = x*y along the diagonal
    slot = eps(z, t2)
    assert value(slot) == pytest.approx(a)
    assert eps(slot, t1) == pytest.approx(1.0)  # d2f/dxdy = 1


def test_partial_picks_one_coordinate():
    f = lambda c: c[0] * c[1] + c[2] ** 2
    at = [2.0, 3.0, 4.0]
    assert partial(f, at, 0) == pytest.approx(3.0)
    assert partial(f, at, 1) == pytest.approx(2.0)
    assert partial(f, at, 2) == pytest.approx(8.0)


def test_ndarray_payload_batches():
    xs = np.linspace(0.1, 2.0, 17)
    t = fresh_tag()
    z = dualnum.exp(Dual(t, xs, np.ones_like(xs)))
    np.testing.assert_allclose(value(z), np.exp(xs))
    np.testing.assert_allclose(eps(z, t), np.exp(xs))


def test_ndarray_division_and_neg():
    xs = np.array([1.0, 2.0, 4.0])
    t = fresh_tag()
    z = -(1.0 / Dual(t, xs, np.ones_like(xs)))
    np.testing.assert_allclose(value(z), -1.0 / xs)
    np.testing.assert_allclose(eps(z, t), 1.0 / xs**2)


@given(finite, finite, finite)
def test_rsub_rtruediv_consistency(a, b, c):
    t = fresh_tag()
    x = lift(a, t)
    left = (b - x) + (x - b)
    assert value(left) == pytest.approx(0.0, abs=1e-12)
    assert eps(left, t) == pytest.approx(0.0, abs=1e-12)


def test_value_strips_all_layers():
    t1, t2 = fresh_tag(), fresh_tag()
    x = Dual(t2, Dual(t1, 3.0, 1.0), 0.5)
    assert value(x) == 3.0
    assert eps(x, t2) == 0.5

"""Expression parsing into scalar fields."""

import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from lcslab.errors import ParseError
from lcslab.parser import parse_field, parse_fields
from tests import dualnum
from tests.pointwise import at


def ev(expr, chart, point):
    return at(parse_field(expr, chart), point)


def test_arithmetic_and_precedence(plane):
    p = (2.0, 3.0)
    assert ev("x + y * 2", plane, p) == 8.0
    assert ev("(x + y) * 2", plane, p) == 10.0
    assert ev("x - y - 1", plane, p) == -2.0
    assert ev("x / y / 2", plane, p) == pytest.approx(1.0 / 3.0)
    assert ev("-x^2", plane, p) == -4.0  # unary minus binds looser than ^
    assert ev("(-x)^2", plane, p) == 4.0
    assert ev("2*x^3", plane, p) == 16.0


def test_power_left_associates(plane):
    assert ev("x^2^3", plane, (2.0, 0.0)) == 64.0  # (x^2)^3


def test_negative_integer_exponent(plane):
    assert ev("x^-2", plane, (2.0, 0.0)) == 0.25


def test_functions(plane):
    p = (0.5, 2.0)
    assert ev("sin(x)", plane, p) == pytest.approx(math.sin(0.5))
    assert ev("cos(x)^2 + sin(x)^2", plane, p) == pytest.approx(1.0)
    assert ev("exp(log(y))", plane, p) == pytest.approx(2.0)
    assert ev("sqrt(y^2)", plane, p) == pytest.approx(2.0)
    assert ev("atan2(y, x)", plane, p) == pytest.approx(math.atan2(2.0, 0.5))


def test_parse_fields_batch(plane):
    fs = parse_fields(["x", "y", "x*y"], plane)
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(fs[2].batch(pts), [2.0, 12.0])


def test_batched_evaluation_matches_pointwise(plane):
    f = parse_field("exp(x) * sin(y) - x^3 / (2 + y^2)", plane)
    pts = np.random.default_rng(7).uniform(-1.4, 1.4, size=(40, 2))
    vals = f.batch(pts)
    for p, v in zip(pts, vals):
        assert v == pytest.approx(at(f, p), rel=1e-14, abs=1e-14)


def test_derivatives_of_parsed_fields(plane):
    f = parse_field("x^2 * y + sin(x)", plane)
    assert at(f.partial(0), (1.0, 3.0)) == pytest.approx(6.0 + math.cos(1.0))
    assert at(f.partial(1), (1.0, 3.0)) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "bad, fragment",
    [
        ("x +", "expression"),
        ("(x", "expected ')'"),
        ("x ^ y", "integer"),
        ("x ^ 2.5", "integer"),
        ("bogus(x)", "bogus"),
        ("x @ y", "unexpected character"),
        ("", "expected a number"),
        ("sin x", "trailing"),
        ("x y", "trailing"),
        ("atan2(x)", "2 arguments"),
        ("x ^ 101", "at most 100"),
        ("x ^ -101", "at most 100"),
        ("x ^ " + "9" * 5000, "at most 100"),
    ],
)
def test_error_paths_name_the_problem(plane, bad, fragment):
    with pytest.raises(ParseError) as ei:
        parse_field(bad, plane)
    assert fragment.lower() in str(ei.value).lower()


def test_exponents_up_to_the_bound_parse_and_differentiate(plane):
    f = parse_field("x^100 + x^-100 + y^0", plane)
    assert at(f.partial(0), (1.01, 0.0)) == pytest.approx(100 * 1.01**99 - 100 * 1.01**-101, rel=1e-13)


def test_exponent_error_points_at_the_exponent(plane):
    with pytest.raises(ParseError) as ei:
        parse_field("x ^ -101", plane)
    assert ei.value.pos == 4


def test_a_long_sum_compiles_left_to_right(plane):
    """A 3,000-term sum chains 3,000 nodes deep; it builds without recursion, associated from the left."""
    f = parse_field(" + ".join(f"{i} * x" for i in range(3000)), plane)
    total = 0.0
    for i in range(3000):
        total = total + i * 0.7
    assert dualnum.interpret(f.node, (0.7, 0.0)) == total


@pytest.mark.parametrize(
    "deep",
    ["(" * 2000 + "x" + ")" * 2000, "-" * 1200 + "x", "sin(" * 101 + "x" + ")" * 101, "(" * 101 + "x" + ")" * 101],
    ids=["parentheses", "minuses", "calls", "one-past-the-bound"],
)
def test_deep_nesting_is_a_parse_error(plane, deep):
    with pytest.raises(ParseError, match="nests deeper than 100"):
        parse_field(deep, plane)


def test_nesting_up_to_the_bound_parses(plane):
    assert ev("-(" * 50 + "x" + ")" * 50, plane, (0.5, 0.0)) == 0.5


def test_error_carries_position(plane):
    with pytest.raises(ParseError) as ei:
        parse_field("x + $", plane)
    assert ei.value.pos == 4


def test_unknown_name_rejected(plane):
    with pytest.raises(ParseError, match="zz") as ei:
        parse_field("x + zz", plane)
    assert ei.value.pos == 4


def test_first_of_two_unknown_names_is_reported(plane):
    with pytest.raises(ParseError, match="'zz'") as ei:
        parse_field("zz + qq", plane)
    assert ei.value.pos == 0


# property: round-tripping an arbitrary polynomial through the parser agrees
# with direct evaluation

coef = st.integers(min_value=-4, max_value=4)


@given(st.lists(st.tuples(coef, st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=5))
def test_polynomial_agreement(plane, terms):
    expr = " + ".join(f"({c}) * x^{i} * y^{j}" for c, i, j in terms)
    f = parse_field(expr, plane)
    for px, py in [(0.5, -1.25), (1.0, 1.0), (-0.75, 0.3)]:
        direct = sum(c * px**i * py**j for c, i, j in terms)
        assert at(f, (px, py)) == pytest.approx(direct, rel=1e-12, abs=1e-12)


@given(st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5))
def test_number_literals(plane, a, b):
    expr = f"{a!r} + {b!r} * x"
    assert ev(expr, plane, (1.0, 0.0)) == pytest.approx(a + b)

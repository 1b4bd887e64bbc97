"""Shared fixtures: small charts reused across the suite, and records of the nodes and tapes a test builds, substitutes or replays and the samples it draws."""

import numpy as np
import pytest

from lcslab import dual
from lcslab.charts import Chart
from lcslab.dual import Tape  # the class itself: ``built_tapes`` puts a subclass of it in its place
from lcslab.forms import ScalarField


@pytest.fixture(scope="session")
def plane():
    return Chart("plane", ("x", "y"))


@pytest.fixture(scope="session")
def r3():
    return Chart("r3", ("x", "y", "z"))


@pytest.fixture(scope="session")
def r4():
    return Chart("r4", ("a", "b", "c", "d"), tuple((-2.0, 2.0) for _ in range(4)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def built_tapes(monkeypatch) -> list:
    """The root lists of the tapes built during the test, through ``dual.tape`` or directly."""
    built = []

    class Recorded(dual.Tape):
        __slots__ = ()

        def __init__(self, roots):
            built.append(list(roots))
            super().__init__(roots)

    monkeypatch.setattr(dual, "Tape", Recorded)
    return built


@pytest.fixture
def built_nodes(monkeypatch) -> list:
    """The ops of the nodes created during the test, one per interning miss."""
    built, intern = [], dual._intern

    def recorded(key, op, args, data):
        ref = dual._NODES.get(key)
        if ref is None or ref() is None:
            built.append(op)
        return intern(key, op, args, data)

    monkeypatch.setattr(dual, "_intern", recorded)
    return built


@pytest.fixture
def substituted_tapes(monkeypatch) -> list:
    """The tapes run on nodes (``Tape.run``, a substitution for the coordinates) during the test."""
    ran, run = [], Tape.run

    def recorded(tape, nodes):
        ran.append(tape)
        return run(tape, nodes)

    monkeypatch.setattr(Tape, "run", recorded)
    return ran


@pytest.fixture
def replayed_tapes(monkeypatch) -> list:
    """The (tape, points) of every replay on a point batch during the test, in call order."""
    replayed = []
    replay = dual.Tape.replay

    def recorded(tape, points, rows):
        replayed.append((tape, points))
        replay(tape, points, rows)

    monkeypatch.setattr(dual.Tape, "replay", recorded)
    return replayed


@pytest.fixture
def drawn_samples(monkeypatch) -> list:
    """The (chart name, count, seed) of every sample drawn during the test: the calls of ``Chart.sample`` no chart had kept."""
    drawn = []
    draw = Chart._draw

    def recorded(chart, n, seed):
        drawn.append((chart.name, n, seed))
        return draw(chart, n, seed)

    monkeypatch.setattr(Chart, "_draw", recorded)
    return drawn


@pytest.fixture
def built_fields(monkeypatch) -> list:
    """The chart names of the scalar fields constructed during the test, one per ``ScalarField.__init__`` call."""
    built = []
    init = ScalarField.__init__

    def recorded(field, chart, fn):
        built.append(chart.name)
        init(field, chart, fn)

    monkeypatch.setattr(ScalarField, "__init__", recorded)
    return built

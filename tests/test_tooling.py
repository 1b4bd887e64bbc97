"""The repository's own gates and conventions.

The pytest settings report every failure, ``src/`` stays within its line
budget, and every checker takes its sample points from its caller, who draws
them with ``Chart.sample``.
"""

import inspect
import pathlib
import subprocess
import sys

import pytest

from lcslab import actions, coupling, lcs, reduction
from lcslab.charts import Chart
from lcslab.errors import UsageError

ROOT = pathlib.Path(__file__).resolve().parent.parent

# ROADMAP item 1: ``src/`` ends the round below its size at the initial commit
SRC_LINE_BUDGET = 5331

PROBE = '''
from hypothesis import given
import hypothesis.strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
'''


def test_a_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    """Under the repository's warning filters a failing ``@given`` test is a named failure, not an internal error."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "FAILED" in run.stdout and "::test_fails" in run.stdout
    assert "1 failed, 1 passed" in run.stdout


def test_src_stays_within_its_line_budget():
    """The lines of ``src/lcslab/*.py`` as ``wc -l`` counts them: newline characters."""
    total = sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "lcslab").glob("*.py"))
    assert total < SRC_LINE_BUDGET


def test_src_takes_determinants_one_way():
    """Minors and Pfaffians are the determinant paths of ``src/``; LAPACK's ``det`` stays a test oracle."""
    users = [p.name for p in (ROOT / "src" / "lcslab").glob("*.py") if "linalg.det" in p.read_text()]
    assert users == []


@pytest.mark.parametrize("module", [lcs, actions, coupling, reduction], ids=lambda m: m.__name__)
def test_checkers_take_their_sample_points_and_never_sample(module):
    """No public function takes a count ``n``, and none has a default for its sample points."""
    takes_points = []
    for name, fn in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
            continue
        params = inspect.signature(fn).parameters
        assert "n" not in params, name
        for p in {"points", "fiber_points", "base_points"} & set(params):
            assert params[p].default is inspect.Parameter.empty, f"{name}({p}=...)"
            takes_points.append(name)
    assert takes_points  # the convention is checked on some function of every module


@pytest.mark.parametrize("count", [0, -1, -5])
def test_a_chart_refuses_a_sample_count_below_one(count):
    with pytest.raises(UsageError, match="must be at least 1"):
        Chart("r1", ("x",)).sample(count)

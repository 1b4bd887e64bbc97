"""The repository's own gates and conventions.

The pytest settings report every failure, ``src/`` stays within its line
budget and uses every name it imports, and every checker takes its sample
points from its caller, who draws them with ``Chart.sample``, and defaults
its tolerance to ``DEFAULT_TOL``.
"""

import ast
import inspect
import pathlib
import subprocess
import sys

import pytest

from lcslab import actions, coupling, lcs, reduction
from lcslab.charts import Chart
from lcslab.errors import UsageError
from lcslab.report import DEFAULT_TOL

ROOT = pathlib.Path(__file__).resolve().parent.parent

# the lines ``src/`` may hold; new scope pays for its lines by merging what ``src/`` does twice
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


def test_src_uses_every_name_it_imports():
    """Each name a ``from ... import`` binds in ``src/lcslab/*.py`` is read there; ``__init__`` re-exports its names.

    No linter runs in this repository, so this test is the check.
    """
    unused = []
    for path in sorted((ROOT / "src" / "lcslab").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
                unused += [f"{path.name}:{node.lineno} {name}" for name in names if name not in read]
    assert unused == []


def test_src_takes_determinants_one_way():
    """Minors and Pfaffians are the determinant paths of ``src/``; LAPACK's ``det`` stays a test oracle."""
    users = [p.name for p in (ROOT / "src" / "lcslab").glob("*.py") if "linalg.det" in p.read_text()]
    assert users == []


CHECKER_MODULES = [lcs, actions, coupling, reduction]
POINT_PARAMETERS = {"points", "fiber_points", "base_points"}


def public_functions(module):
    """The public functions ``module`` defines, with their parameters."""
    for name, fn in vars(module).items():
        if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield name, inspect.signature(fn).parameters


@pytest.mark.parametrize("module", CHECKER_MODULES, ids=lambda m: m.__name__)
def test_checkers_take_their_sample_points_and_never_sample(module):
    """No public function takes a count ``n``, and none has a default for its sample points."""
    takes_points = []
    for name, params in public_functions(module):
        assert "n" not in params, name
        for p in POINT_PARAMETERS & set(params):
            assert params[p].default is inspect.Parameter.empty, f"{name}({p}=...)"
            takes_points.append(name)
    assert takes_points  # the convention is checked on some function of every module


@pytest.mark.parametrize("module", CHECKER_MODULES, ids=lambda m: m.__name__)
def test_checkers_default_to_the_shared_tolerance(module):
    """A public checker that takes sample points and a ``tol`` defaults it to ``DEFAULT_TOL``, or has no default."""
    checked = []
    for name, params in public_functions(module):
        if POINT_PARAMETERS & set(params) and "tol" in params:
            assert params["tol"].default in (DEFAULT_TOL, inspect.Parameter.empty), f"{name}(tol={params['tol'].default})"
            checked.append(name)
    assert checked


@pytest.mark.parametrize("count", [0, -1, -5])
def test_a_chart_refuses_a_sample_count_below_one(count):
    with pytest.raises(UsageError, match="must be at least 1"):
        Chart("r1", ("x",)).sample(count)

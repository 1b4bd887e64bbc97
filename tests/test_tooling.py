"""The repository's own gates: the pytest settings report every failure, and ``src/`` stays within its line budget."""

import pathlib
import subprocess
import sys

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

"""The scripts under ``scripts/`` run end to end and print what they compute."""

import contextlib
import importlib.util
import io
import os
import pathlib
import re
import subprocess
import sys

import pytest

from lcslab import cli
from lcslab.cohomology import betti, circle

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
SRC = SCRIPTS.parent / "src"


def run_script(name: str, argv: list) -> tuple[int, str]:
    """``main(argv)`` of ``scripts/<name>.py``, with what it printed."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = module.main(argv)
    return code, out.getvalue()


def test_run_all_examples_meets_every_expectation():
    code, out = run_script("run_all_examples", [])
    assert code == 0
    assert "all expectations met" in out
    header, *lines = out.splitlines()
    rows = [line for line in lines if line.endswith(tuple("0123456789"))]
    assert header.split()[-6:] == ["warm", "built", "drawn", "nodes", "tapes", "steps"] and len(rows) == 8
    # a second run's time, the tapes it built and the samples it drew, the interned nodes each example holds,
    # and the tapes kept for them with their steps
    for line in rows:
        warm, built, drawn, nodes, tapes, steps = line.split()[-6:]
        assert warm.endswith("ms") and float(warm[:-2]) > 0
        assert built.isdigit() and nodes.isdigit() and tapes.isdigit() and steps.isdigit()
        assert drawn == "0"  # every chart kept its draws
    assert sum(int(line.split()[-5]) for line in rows) < 30  # a warm run keeps its derived forms and their tapes


# ``scripts/run_all_examples.py`` in a fresh interpreter, on the examples whose labels follow the script's path
# (every example when none does)
SOME_EXAMPLES = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("run_all_examples", sys.argv[1])
script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(script)
every = script.builders
script.builders = lambda: [(label, build) for label, build in every() if label in sys.argv[2:] or len(sys.argv) == 2]
sys.exit(script.main([]))
"""


def test_run_all_examples_counts_each_row_for_its_example_alone():
    """cotangent m=1's row reads the same alone as after every other example: leftovers of earlier ones do not count.

    Only the times may differ: the checks, failures, expectations, tapes built
    and samples drawn, and the nodes, tapes and steps kept.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}

    def row(*labels):
        run = subprocess.run(
            [sys.executable, "-c", SOME_EXAMPLES, str(SCRIPTS / "run_all_examples.py"), *labels],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stdout + run.stderr
        fields = next(line for line in run.stdout.splitlines() if line.startswith("cotangent m=1 ")).split()[2:]
        return fields[:3] + fields[-5:]

    alone, after = row("cotangent m=1"), row()
    assert alone == after
    assert alone[-2:] == ["1", "0"]  # one tape, of roots folded to constants: no step


@pytest.mark.parametrize("argv", [["--points", "0"], ["--points", "9"], ["--seed", "-1"]])
def test_run_all_examples_refuses_a_bad_count_or_seed_as_the_cli_does(argv, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_POINTS", 8)  # the script reads the bound when it loads; a missed one runs cheaply
    code, out = run_script("run_all_examples", argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cohomology_demo_prints_the_betti_numbers_it_sweeps():
    """The loop's Betti numbers collapse once the holonomy leaves zero, as ``betti`` computes them."""
    code, out = run_script("cohomology_demo", ["--segments", "5"])
    assert code == 0
    sweep = re.findall(r"holonomy +(\S+) -> betti (\[.*\])", out)
    assert [b for _, b in sweep] == ["[1, 1]", "[0, 0]", "[0, 0]"]
    assert sweep[1][1] == str(betti(circle(5, holonomy=float(sweep[1][0]))))
    assert "loop x sphere boundary, twisted" in out and "betti [0, 0, 0, 0, 0]" in out


def test_output_digest_quick_mode_is_one_stable_line_per_invocation(monkeypatch):
    """Exit code, two sha256 digests and the argv; the same run twice gives the same lines."""
    monkeypatch.delenv("LCSLAB_SEED", raising=False)
    code, out = run_script("output_digest", ["--quick"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4  # a gallery run, list, a description and a docgen document
    for line in lines:
        assert re.fullmatch(r"[012] [0-9a-f]{64} [0-9a-f]{64} \S.*", line), line
    assert "--run" in lines[0] and lines[1].endswith(" list") and "--run" not in lines[2]
    assert "<sha256:" in lines[3]  # a document's JSON stands as its digest
    assert run_script("output_digest", ["--quick"]) == (code, out)

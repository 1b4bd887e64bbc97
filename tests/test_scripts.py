"""The scripts under ``scripts/`` run end to end and print what they compute."""

import contextlib
import importlib.util
import io
import pathlib
import re

import numpy as np
import pytest

from lcslab import cli
from lcslab.cohomology import Cochain, circle, hodge_decompose, product_complex

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


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
    assert header.split()[-5:] == ["warm", "built", "drawn", "nodes", "tapes"] and len(rows) == 8
    # a second run's time, the tapes it built and the samples it drew, the interned nodes each example holds,
    # and the tapes kept for them
    for line in rows:
        warm, built, drawn, nodes, tapes = line.split()[-5:]
        assert warm.endswith("ms") and float(warm[:-2]) > 0
        assert built.isdigit() and nodes.isdigit() and tapes.isdigit()
        assert drawn == "0"  # every chart kept its draws
    assert sum(int(line.split()[-4]) for line in rows) < 30  # a warm run keeps its derived forms and their tapes


@pytest.mark.parametrize("argv", [["--points", "0"], ["--points", "9"], ["--seed", "-1"]])
def test_run_all_examples_refuses_a_bad_count_or_seed_as_the_cli_does(argv, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_POINTS", 8)  # the script reads the bound when it loads; a missed one runs cheaply
    code, out = run_script("run_all_examples", argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cohomology_demo_labels_the_hodge_split():
    """Each printed norm is that of the part ``hodge_decompose`` returns under that name."""
    code, out = run_script("cohomology_demo", [])
    assert code == 0
    K = product_complex(circle(3), circle(3))
    c = Cochain(1, np.random.default_rng(0).standard_normal(K.count(1)))  # the demo's first draw at seed 0
    harmonic, exact, coexact = hodge_decompose(K, c)
    printed = dict(re.findall(r"\|(\w+)\| (\d+\.\d+)", out))
    assert set(printed) == {"harmonic", "exact", "coexact"}
    for label, part in (("harmonic", harmonic), ("exact", exact), ("coexact", coexact)):
        assert float(printed[label]) == pytest.approx(np.linalg.norm(part.values), abs=5e-5)
    assert abs(np.linalg.norm(harmonic.values) - np.linalg.norm(exact.values)) > 1e-3  # the labels are told apart

"""Tests of the benchmark itself, on the quick inputs of every workload.

Run with ``python3 -m pytest lcsbench`` from the root of the repository.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import docgen
import run
from hostspeed import Stopwatch
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS = [name for name, unit in run.PER_LAYER if unit == "count"]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "lcsbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(workload: str, seed: int, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return last


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_is_correct(workload):
    last = result(workload, 3, 0)
    assert last["correct"] is True
    assert [*last["metrics"]] == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in last["metrics"].values())
    if workload == "documents":
        # Only singular documents may fail; on the quick stream one in nine is singular.
        assert last["failed"] * 9 <= last["attempted"]
    else:
        assert last["failed"] == 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_and_layers_cover_the_pass(workload):
    first, second = result(workload, 5, 1), result(workload, 5, 1)
    assert [*first["metrics"]] == [name for name, _ in run.PER_LAYER]
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["trace.coverage_frac"]["value"] >= 0.9
    assert first["metrics"]["report.rows"]["value"] > 0


def test_stopwatch_takes_its_samples_out_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with Stopwatch() as watch:
        deadline = time.perf_counter() + 0.35
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(watch.refs) >= 4  # before, during and after the call
    assert 0 < watch.wall < 0.35  # the samples taken during the call are not its time
    assert watch.adjusted > 0


def test_documents_follow_the_seed():
    cohomology = run.load_program().cohomology
    same = [d.argv for d in docgen.stream(7, cohomology, quick=True)]
    assert same == [d.argv for d in docgen.stream(7, cohomology, quick=True)]
    assert same != [d.argv for d in docgen.stream(8, cohomology, quick=True)]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "lcsbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "documents", "--seed", "1", "--seconds", "1", "--quick", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

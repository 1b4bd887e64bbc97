"""lcslab benchmark: certificate time end to end, and a traced per-layer run.

Usage, from the root of a checkout:

    python3 lcsbench/run.py --workload coupling-s2 --seed 1 --seconds 12 --trace 0

``--trace 0`` times whole passes with the program untouched and reports the
end-to-end metrics.  Times are adjusted to a nominal host speed (see
``hostspeed.py``), and a pass's time is taken call by call, as the median of
each call's adjusted time over the run's passes.  ``--trace 1`` times one untouched
pass, then instruments every ``lcslab`` layer from outside (see
``tracer.py``) and reports per-layer self times and counts for one traced
pass.  ``--quick`` shrinks every workload for the benchmark's own tests.  The program is imported from
``src/`` of the checkout; nothing is installed or built.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
record the environment and list every metric by name with its unit.
"""

from __future__ import annotations

import os

# The launcher pins the environment before numpy is imported: one BLAS/OpenMP
# thread keeps the numbers about the program rather than the scheduler, and
# the program must not pick up a sampling seed from outside.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("LCSLAB_SEED", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from hostspeed import Stopwatch  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 30  # set-ups per run; setup_s is the median of their adjusted times

# (name, unit): every metric the two modes print, in order.
END_TO_END = (
    ("setup_s", "s"),
    ("adj_wall_s", "s"),
    ("point_checks_per_s", "1/s"),
    ("correct_frac", "frac"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("dual.allocs", "count"),
    ("dual.partial_calls", "count"),
    ("forms.field_calls", "count"),
    ("forms.pointwise_calls", "count"),
    ("forms.pointwise_s", "s"),
    ("forms.batched_points", "count"),
    ("forms.batched_s", "s"),
    ("forms.construct_s", "s"),
    ("forms.self_s", "s"),
    ("charts.sample_calls", "count"),
    ("charts.sample_s", "s"),
    ("charts.self_s", "s"),
    ("report.residual_s", "s"),
    ("report.render_s", "s"),
    ("report.self_s", "s"),
    ("report.rows", "count"),
    ("report.skipped_points", "count"),
    ("report.inconclusive_rows", "count"),
    ("lcs.self_s", "s"),
    ("actions.self_s", "s"),
    ("reduction.self_s", "s"),
    ("coupling.verify_s", "s"),
    ("coupling.lift_bracket_s", "s"),
    ("coupling.nijenhuis_s", "s"),
    ("coupling.fatness_s", "s"),
    ("coupling.build_s", "s"),
    ("coupling.self_s", "s"),
    ("cohomology.betti_s", "s"),
    ("cohomology.coboundary_s", "s"),
    ("cohomology.build_s", "s"),
    ("cohomology.self_s", "s"),
    ("cohomology.simplices", "count"),
    ("parser.parse_s", "s"),
    ("parser.exprs", "count"),
    ("parser.self_s", "s"),
    ("jsonio.load_s", "s"),
    ("cli.self_s", "s"),
    ("gallery.build_s", "s"),
    ("gallery.evaluate_s", "s"),
    ("gallery.run_s", "s"),
    ("gallery.self_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage_frac", "frac"),
)


class SetupError(Exception):
    """The checkout holds no importable program."""


def load_program() -> SimpleNamespace:
    """Import ``lcslab`` afresh from ``src/`` (dropping any earlier import)."""
    if not (SRC / "lcslab" / "__init__.py").is_file():
        raise SetupError(f"no lcslab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "lcslab" or n.startswith("lcslab.")]:
        del sys.modules[name]
    package = importlib.import_module("lcslab")
    importlib.import_module("lcslab.cli")
    if Path(package.__file__).resolve().parent != SRC / "lcslab":
        raise SetupError(f"imported lcslab from {package.__file__}, not from {SRC}")
    mods = {name.split(".", 1)[1]: m for name, m in sys.modules.items() if name.startswith("lcslab.")}
    return SimpleNamespace(package=package, **mods)


def environment(args) -> dict:
    blas = {}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "LCSLAB_SEED": os.environ.get("LCSLAB_SEED"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "load": "closed loop, one client, one process",
    }


def setup(workload, seed: int, quick: bool, repeats: int = 1):
    """Import ``lcslab`` afresh and build the workload's inputs, ``repeats`` times.

    Returns the last state and every set-up's time adjusted to the nominal
    host speed.
    """
    times = []
    for _ in range(repeats):
        gc.collect()  # garbage of an earlier import is not set-up work
        with Stopwatch() as watch:
            state = workload.setup(load_program(), seed, quick)
        times.append(watch.adjusted)
    return state, times


def timed_passes(workload, state, seconds: float) -> list:
    """Whole passes until the next one would end after ``seconds``; at least one."""
    passes, t0 = [], time.perf_counter()
    while True:
        gc.collect()
        passes.append(workload.run_pass(state))
        typical = statistics.median(p.wall for p in passes)
        if time.perf_counter() - t0 + typical > seconds:
            return passes


def per_call(passes, field: str, statistic=statistics.median) -> list:
    """Each call's ``statistic`` of ``field`` over the passes of a run."""
    return [statistic(getattr(p.calls[i], field) for p in passes) for i in range(len(passes[0].calls))]


def end_to_end(passes, setup_time: float, attempted: int, failed: int) -> dict:
    wall = sum(per_call(passes, "adjusted"))
    return {
        "setup_s": setup_time,
        "adj_wall_s": wall,
        "point_checks_per_s": passes[0].points / wall,
        "correct_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(workload, state, args) -> tuple[list, dict, dict]:
    """One untouched pass, then set-up and one pass under the span recorder."""
    import tracer

    gc.collect()
    baseline = workload.run_pass(state)
    rec = tracer.SpanRecorder()
    tracer.install(rec, state["lab"].package)
    with rec.span("bench.setup") as setup_root:
        state = workload.setup(state["lab"], args.seed, args.quick)
    before = {k: v[0] for k, v in rec.counts.items()}
    gc.collect()
    with rec.span("bench.pass") as root:
        result = workload.run_pass(state, rec)
    counts = {k: v[0] - before.get(k, 0) for k, v in rec.counts.items()}

    table = rec.self_times(root)
    groups = tracer.group_times(table)
    setup_groups = tracer.group_times(rec.self_times(setup_root))

    def secs(key, source=groups):
        return source.get(key, (0, 0.0))[1]

    def calls(key, source=groups):
        return source.get(key, (0, 0.0))[0]

    # The benchmark's own ``gallery.run:*`` wrappers and the body of
    # ``cli.main`` take whatever time no named span takes, so their self time
    # is not counted as covered.
    uncovered = secs("gallery.run") + table.get("cli.main", (0, 0.0))[1]
    covered = sum(secs(f"{layer}.self") for layer in tracer.LAYERS) - uncovered
    metrics = {
        "dual.allocs": counts.get("dual.allocs", 0),
        "dual.partial_calls": counts.get("dual.partial_calls", 0),
        "forms.field_calls": counts.get("forms.field_calls", 0),
        "forms.pointwise_calls": calls("forms.pointwise"),
        "forms.batched_points": counts.get("forms.batched_points", 0),
        "charts.sample_calls": calls("charts.sample"),
        "report.rows": result.rows,
        "report.skipped_points": result.skipped,
        "report.inconclusive_rows": result.inconclusive,
        "cohomology.simplices": counts.get("cohomology.simplices", 0),
        "parser.exprs": table.get("parser.parse_field", (0, 0.0))[0],
        "gallery.build_s": secs("gallery.build", setup_groups),
        "trace.overhead_frac": root.seconds / sum(c.seconds for c in baseline.calls) - 1.0,
        "trace.coverage_frac": covered / root.seconds,
    }
    for name, unit in PER_LAYER:
        if name not in metrics and unit == "s":
            metrics[name] = secs(name[: -len("_s")])
    info = {
        "trace_pass_s": root.seconds,
        "trace_span_count": root.stop - root.index - 1,
        "trace_spans": sorted(
            ([name, c, round(s, 6)] for name, (c, s) in table.items()), key=lambda row: -row[2]
        ),
    }
    return [baseline, result], metrics, info


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        state, setup_times = setup(workload, args.seed, args.quick, 1 if args.trace else SETUP_REPEATS)
    except (SetupError, ImportError) as err:
        print(f"error: cannot load the program: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"env": environment(args)}, sort_keys=True))

    if args.trace:
        passes, metrics, info = traced(workload, state, args)
        table = PER_LAYER
        print(json.dumps(info))
    else:
        passes = timed_passes(workload, state, args.seconds)
        table = END_TO_END

    calls = [c for p in passes for c in p.calls]
    attempted, failed = len(calls), sum(c.failed for c in calls)
    if not args.trace:
        metrics = end_to_end(passes, statistics.median(setup_times), attempted, failed)
    latencies = [s * 1e3 for s in per_call(passes, "seconds", min)]
    print(json.dumps({"call_ms": {c.name: round(ms, 3) for c, ms in zip(passes[0].calls, latencies)}}))
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, {attempted} calls, "
          f"failed_frac {failed / attempted:.6f}; unadjusted wall_s {sum(latencies) / 1e3:.4f}, "
          f"cpu_s {sum(per_call(passes, 'cpu', min)):.4f} (each call's fastest of {len(passes)} passes); "
          f"call latency percentiles over {len(latencies)} calls: "
          f"call_p50_ms {np.percentile(latencies, 50):.3f}, call_p90_ms {np.percentile(latencies, 90):.3f}")
    for name, unit in table:
        print(f"  {name:<26} {metrics[name]:>16.6f} {unit}")
    result = {
        "correct": not any(c.wrong for c in calls),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run every gallery example end to end and print a verdict table.

Builds each manifest (sweeping a few weight choices for the weighted
products), executes its full check suite, and compares the outcomes against
the manifest's expected rows.  The build and run columns are each
example's cost in milliseconds in this fresh process, the total on the last
line: the cold cost (first construction, first evaluation) that repeated
runs do not show.  The warm column is the cost of running the suite a
second time, the built column the replay tapes that second run built, and
the drawn column the sample draws it made that no chart had kept.
The nodes column counts the interned expression nodes alive after both
runs, while the example is still held, the tapes column the replay tapes
kept for their root sets, and the steps column the steps of those tapes:
cost measures that do not depend on the machine.  The tape cache is
emptied before each example, so a row counts that example alone, as if
it ran first.  Exit status is nonzero
when any expectation is missed, so this doubles as a slow smoke test:

    python3 scripts/run_all_examples.py --points 48
"""

import argparse
import gc
import sys
import time

from lcslab import dual
from lcslab.charts import Chart
from lcslab.cli import MAX_POINTS
from lcslab.gallery import (
    cotangent,
    coupling_example_s2,
    evaluate_manifest,
    hopf,
    inoue,
    run_manifest,
)
from lcslab.report import DEFAULT_POINTS, DEFAULT_TOL


class CountedTape(dual.Tape):
    """A tape that counts its constructions, put in place of ``dual.Tape`` while a warm run is timed."""

    __slots__ = ()
    built = 0

    def __init__(self, roots):
        CountedTape.built += 1
        super().__init__(roots)


def warm_run(man, args) -> tuple[float, int, int]:
    """The seconds a second run of every check takes, the tapes it builds and the samples it draws."""
    drawn, draw = [], Chart._draw

    def counted_draw(chart, n, seed):
        drawn.append(n)
        return draw(chart, n, seed)

    tape, dual.Tape, CountedTape.built, Chart._draw = dual.Tape, CountedTape, 0, counted_draw
    try:
        t0 = time.perf_counter()
        run_manifest(man, points=args.points, seed=args.seed, tol=args.tol)
        return time.perf_counter() - t0, CountedTape.built, len(drawn)
    finally:
        dual.Tape, Chart._draw = tape, draw


def builders():
    yield "hopf (1,1)", lambda: hopf(2, (1.0, 1.0))
    yield "hopf (1,2)", lambda: hopf(2, (1.0, 2.0))
    yield "hopf (2,3)", lambda: hopf(2, (2.0, 3.0))
    yield "hopf7", lambda: hopf(4, (1.0, 1.0, 1.0, 1.0))
    yield "inoue", inoue
    yield "cotangent m=1", lambda: cotangent(m=1)
    yield "cotangent m=2", lambda: cotangent(m=2)
    yield "coupling-s2", lambda: coupling_example_s2((1.0, 1.0))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    points = f"sample count per check (default {DEFAULT_POINTS}, at most {MAX_POINTS})"
    ap.add_argument("--points", type=int, default=DEFAULT_POINTS, help=points)
    ap.add_argument("--seed", type=int, default=0, help="RNG seed, a non-negative integer (default 0)")
    ap.add_argument("--tol", type=float, default=DEFAULT_TOL)
    args = ap.parse_args(argv)
    if not 1 <= args.points <= MAX_POINTS:
        print(f"error: --points must be from 1 to {MAX_POINTS}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be a non-negative integer", file=sys.stderr)
        return 2

    print(
        f"{'example':<16} {'checks':>6} {'failed':>6} {'expected':>10} {'build':>9} {'run':>9}"
        f" {'warm':>9} {'built':>5} {'drawn':>5} {'nodes':>7} {'tapes':>6} {'steps':>7}"
    )
    missed_total = 0
    total = 0.0
    for label, build in builders():
        dual._TAPES.clear()  # tapes of constant roots outlive their example; each row counts only its own
        t0 = time.perf_counter()
        man = build()
        t1 = time.perf_counter()
        reports = run_manifest(man, points=args.points, seed=args.seed, tol=args.tol)
        verdicts = evaluate_manifest(man, reports)
        t2 = time.perf_counter()
        total += t2 - t0
        warm, built, drawn = warm_run(man, args)
        gc.collect()

        checks = sum(len(r.checks) for r in reports.values())
        failed = sum(1 for r in reports.values() for c in r.checks if not c.passed)
        met = sum(1 for c in verdicts.checks if c.passed)
        missed = len(verdicts.checks) - met
        missed_total += missed
        steps = sum(len(t.program) for t, _ in dual._TAPES.values())
        print(
            f"{label:<16} {checks:>6} {failed:>6} {met:>5}/{len(verdicts.checks):<4}"
            f" {(t1 - t0) * 1e3:>7.1f}ms {(t2 - t1) * 1e3:>7.1f}ms {warm * 1e3:>7.1f}ms {built:>5} {drawn:>5}"
            f" {len(dual._NODES):>7} {len(dual._TAPES):>6} {steps:>7}"
        )
        for c in verdicts.checks:
            if not c.passed:
                print(f"    missed: {c.id} (wanted {c.details['expected']!r}, got {c.verdict!r})")

    print(f"{'total':<39} {total * 1e3:>19.1f}ms")
    if missed_total:
        print(f"\n{missed_total} expectation(s) missed")
        return 1
    print("\nall expectations met")
    return 0


if __name__ == "__main__":
    sys.exit(main())

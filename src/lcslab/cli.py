"""Batch verification driver.

Subcommands load gallery examples or JSON declarations, execute the relevant
verification suites, and emit deterministic text or JSON reports.  Exit
status: 0 when every executed check passes, 1 when a check fails, 2 for
parse or validation problems.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .actions import momentum_from_potential, verify_twisted_hamiltonian
from .cohomology import betti, coboundary_defects
from .coupling import build_coupling, gauge_curvature
from .errors import LcsError, UsageError
from .gallery import GALLERY, coupling_runs, evaluate_manifest, run_manifest
from .jsonio import (
    complex_from_decl,
    coupling_from_decl,
    load_declaration,
    load_document,
    parse_theta_text,
)
from .lcs import verify_lcs
from .reduction import invariant_hamiltonian_check, reduced_form_check
from .report import DEFAULT_POINTS, DEFAULT_TOL, CheckResult, Report

_GALLERY_BLURBS = {
    "hopf": "product of a circle with an odd sphere, weighted potential, torus action",
    "inoue": "half-space surface chart with Lee form dw2/w2 and four deck maps",
    "cotangent": "cotangent chart with tautological potential and exact Lee form",
    "coupling-s2": "hemisphere base with area curvature and Hopf fiber, fully coupled",
}
MAX_POINTS = 1_000_000  # the largest --points; far larger counts fail inside numpy's allocation


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lcslab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        points = f"sample count (default {DEFAULT_POINTS}, at most {MAX_POINTS})"
        sp.add_argument("--points", type=int, default=DEFAULT_POINTS, help=points)
        sp.add_argument("--seed", type=int, default=None, help="RNG seed (default: LCSLAB_SEED or 0)")
        tol = f"residual tolerance (default {np.format_float_scientific(DEFAULT_TOL, trim='-', exp_digits=1)})"
        sp.add_argument("--tol", type=float, default=DEFAULT_TOL, help=tol)
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("verify", help="run structure checks from a JSON declaration")
    sp.add_argument("file")
    common(sp)

    sp = sub.add_parser("example", help="build a gallery example and run its expected checks")
    sp.add_argument("name", choices=sorted(GALLERY))
    sp.add_argument("--run", action="store_true", help="execute the example's check suite")
    sp.add_argument("--weights", help="comma-separated positive weights")
    sp.add_argument("--n", type=int, default=2, help="number of complex coordinates (hopf)")
    sp.add_argument("--m", type=int, default=2, help="base dimension (cotangent)")
    sp.add_argument("--alpha", type=float, default=2.0, help="expansion factor (inoue)")
    sp.add_argument("--scale", type=float, default=0.3, help="Lee data scale (cotangent)")
    common(sp)

    sp = sub.add_parser("cohomology", help="Betti table and coboundary diagnostics for a complex")
    sp.add_argument("file")
    sp.add_argument("--theta", help="edge weights as 'u,v:value;...' (override the file)")
    common(sp)

    sp = sub.add_parser("coupling", help="assemble and verify a coupling declaration")
    sp.add_argument("file")
    common(sp)

    sp = sub.add_parser("reduce", help="check a level slice from a JSON declaration")
    sp.add_argument("file")
    common(sp)

    sub.add_parser("list", help="list gallery example names")
    return p


def _emit(reports: dict[str, Report], config: dict, fmt: str) -> tuple[str, int]:
    failed = sum(1 for rep in reports.values() for c in rep.checks if not c.passed)
    total = sum(len(rep.checks) for rep in reports.values())
    if fmt == "json":
        doc = {
            "config": config,
            "reports": {key: reports[key].to_dict() for key in sorted(reports)},
            "summary": {
                "total": total,
                "failed": failed,
                "verdict": "pass" if failed == 0 else "fail",
            },
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        blocks = [reports[key].to_text() for key in sorted(reports)]
        blocks.append(f"{total} checks, {failed} failed\n")
        text = "\n".join(blocks)
    return text, (0 if failed == 0 else 1)


def _config(args, **extra) -> dict:
    return {
        "command": args.command,
        "points": args.points,
        "seed": args.seed,
        "tol": args.tol,
        **extra,
    }


def _cmd_verify(args) -> tuple[str, int]:
    decl = load_declaration(load_document(args.file))
    if decl.structure is None:
        raise UsageError("document has no 'lcs' section to verify")
    pts = decl.structure.chart.sample(args.points, args.seed)
    reports = {"lcs": verify_lcs(decl.structure, pts, args.tol)}
    if decl.action is not None:
        if decl.momentum is not None:
            reports["hamiltonian"] = verify_twisted_hamiltonian(decl.structure, decl.action, decl.momentum, pts, args.tol)
        elif decl.structure.potential is not None:
            _, reports["momentum"] = momentum_from_potential(decl.structure, decl.action, pts, args.tol)
    return _emit(reports, _config(args, input=args.file), args.format)


def _manifest_kwargs(args) -> dict:
    weights = None
    if args.weights:
        try:
            weights = tuple(float(w) for w in args.weights.split(","))
        except ValueError:
            raise UsageError(f"bad --weights value {args.weights!r}") from None
    if args.name == "hopf":
        return {"n": args.n, "weights": weights or (1.0,) * args.n}
    if args.name == "inoue":
        return {"alpha": args.alpha}
    if args.name == "cotangent":
        return {"m": args.m, "scale": args.scale}
    if args.name == "coupling-s2":
        return {"weights": weights or (1.0, 1.0)}
    return {}


def _cmd_example(args) -> tuple[str, int]:
    man = GALLERY[args.name](**_manifest_kwargs(args))
    if not args.run:
        lines = [f"example {man.name}"]
        lines.append("  params: " + json.dumps(dict(man.params), sort_keys=True))
        lines.append("  objects: " + ", ".join(sorted(man.objects)))
        lines.append("  runs: " + ", ".join(man.runs))
        lines.append(f"  expected outcomes: {len(man.expected)} (use --run to execute)")
        return "\n".join(lines) + "\n", 0
    reports = dict(run_manifest(man, points=args.points, seed=args.seed, tol=args.tol))
    reports["expected"] = evaluate_manifest(man, reports)
    verdict_rows = reports["expected"]
    text, _ = _emit(reports, _config(args, example=man.name, params=dict(man.params)), args.format)
    met = sum(1 for c in verdict_rows.checks if c.passed)
    if args.format == "text":
        text += f"expected outcomes: {met}/{len(verdict_rows.checks)} matched\n"
    return text, (0 if verdict_rows.passed else 1)


def _cmd_cohomology(args) -> tuple[str, int]:
    doc = load_document(args.file)
    extra = parse_theta_text(args.theta) if args.theta else None
    K = complex_from_decl(doc, extra)
    rep = Report("cohomology")
    numbers = betti(K)
    for k, b in enumerate(numbers):
        rep.add(
            CheckResult.recorded(
                f"betti[{k}]", "dimension of the degree-k twisted cohomology", float(b)
            )
        )
    for k, res in enumerate(coboundary_defects(K)):
        rep.add(
            CheckResult.from_residual(
                f"delta-squared[{k}]", "coboundary composed with itself vanishes", res, 1e-12
            )
        )
    config = _config(args, input=args.file, betti=numbers)
    text, code = _emit({"cohomology": rep}, config, args.format)
    if args.format == "text":
        text = "betti: " + " ".join(str(b) for b in numbers) + "\n\n" + text
    return text, code


def _cmd_coupling(args) -> tuple[str, int]:
    gauge, fiber, act, mu = coupling_from_decl(load_document(args.file))
    fiber_pts = fiber.chart.sample(args.points, args.seed)
    if mu is None:
        mu, _ = momentum_from_potential(fiber, act, fiber_pts, args.tol)
    coupling = build_coupling(gauge, fiber, act, mu, fiber_pts, args.tol)
    _, bianchi = gauge_curvature(gauge, gauge.base.sample(args.points, args.seed), args.tol)
    reports = {"curvature": bianchi}
    reports.update((name, run(args.points, args.seed, args.tol)) for name, run in coupling_runs(coupling).items())
    return _emit(reports, _config(args, input=args.file), args.format)


def _cmd_reduce(args) -> tuple[str, int]:
    decl = load_declaration(load_document(args.file))
    if decl.structure is None or decl.action is None or decl.level_slice is None:
        raise UsageError("reduce needs 'lcs', 'action' and 'slice' sections")
    mu = decl.momentum
    if mu is None and decl.structure.potential is None:
        raise UsageError("no momentum given and no potential to derive one from")
    pts = decl.structure.chart.sample(args.points, args.seed)
    if mu is None:
        mu, _ = momentum_from_potential(decl.structure, decl.action, pts, args.tol)
    slice_pts = decl.level_slice.parametrization.source.sample(args.points, args.seed)
    reports = {"reduction": reduced_form_check(decl.structure, decl.action, decl.level_slice, mu, slice_pts, args.tol)}
    if decl.action.elements:
        reports["invariant"] = invariant_hamiltonian_check(decl.action, mu, pts, args.tol)
    return _emit(reports, _config(args, input=args.file), args.format)


def _cmd_list(args) -> tuple[str, int]:
    lines = [f"{name:<12} {_GALLERY_BLURBS.get(name, '')}" for name in sorted(GALLERY)]
    return "\n".join(lines) + "\n", 0


_COMMANDS = {
    "verify": _cmd_verify,
    "example": _cmd_example,
    "cohomology": _cmd_cohomology,
    "coupling": _cmd_coupling,
    "reduce": _cmd_reduce,
    "list": _cmd_list,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    if hasattr(args, "seed") and args.seed is None:  # ``list`` takes no seed
        try:
            args.seed = int(os.environ.get("LCSLAB_SEED", "0"))
        except ValueError:
            print("error: LCSLAB_SEED must be an integer", file=sys.stderr)
            return 2
    if getattr(args, "seed", 0) < 0:
        print("error: the seed (--seed or LCSLAB_SEED) must be a non-negative integer", file=sys.stderr)
        return 2
    if not 1 <= getattr(args, "points", 1) <= MAX_POINTS:
        print(f"error: --points must be from 1 to {MAX_POINTS}", file=sys.stderr)
        return 2
    if not 0 < getattr(args, "tol", 1.0) < math.inf:
        print("error: --tol must be a positive finite number", file=sys.stderr)
        return 2
    try:
        text, code = _COMMANDS[args.command](args)
    except LcsError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


def entry() -> None:
    sys.exit(main())

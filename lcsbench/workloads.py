"""The three workloads: what one pass calls, and how each call is checked.

A *call* is one gallery manifest run or one command-line invocation; a
*pass* is every call of the workload once.  Calls run one after another in
this process (a closed loop with one client): each starts when the previous
one returns.  Every exception a call raises is caught and counted, so a pass
never stops early.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass, field

import docgen
from hostspeed import Stopwatch

TOL = 1e-8


@dataclass
class Call:
    name: str
    seconds: float         # wall time
    cpu: float             # process CPU time
    adjusted: float        # wall time at the nominal host speed (see hostspeed.py)
    failed: bool = False  # raised, or missed its known answer
    wrong: bool = False   # failed in a way the benchmark does not expect at the seed commit

    @classmethod
    def timed(cls, name: str, watch: Stopwatch, **flags) -> Call:
        return cls(name, watch.wall, watch.cpu, watch.adjusted, **flags)


@dataclass
class PassResult:
    wall: float = 0.0
    calls: list = field(default_factory=list)
    points: int = 0        # sample points evaluated, summed over report rows
    rows: int = 0
    skipped: int = 0
    inconclusive: int = 0

    def count_rows(self, rows) -> None:
        """Tally rows given as dicts with ``verdict`` and optional ``details``."""
        for row in rows:
            details = row.get("details", {})
            self.rows += 1
            self.points += int(details.get("points", 0))
            self.skipped += int(details.get("skipped", 0))
            self.inconclusive += row.get("verdict") == "inconclusive"


def _report(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------- gallery


class GalleryWorkload:
    """Manifest runs at a fixed sample count, checked with ``evaluate_manifest``."""

    def __init__(self, points: int, quick_points: int, builders):
        self.full_points = points
        self.quick_points = quick_points
        self.builders = builders  # (gallery function name, keyword arguments)

    def setup(self, lab, seed: int, quick: bool) -> dict:
        return {
            "lab": lab,
            "seed": seed,
            "points": self.quick_points if quick else self.full_points,
            "manifests": [getattr(lab.gallery, name)(**kwargs) for name, kwargs in self.builders],
        }

    def run_pass(self, state: dict, rec=None) -> PassResult:
        lab, seed, points = state["lab"], state["seed"], state["points"]
        out = PassResult()
        whole = time.perf_counter()
        for man in state["manifests"]:
            reports, calls = {}, {}
            for key, fn in man.runs.items():
                if rec is not None:
                    fn = rec.wrap(fn, f"gallery.run:{man.name}.{key}")
                error = None
                with Stopwatch(sampling=rec is None) as watch:
                    try:
                        reports[key] = fn(points, seed, TOL)
                    except Exception:
                        error = traceback.format_exc()
                calls[key] = Call.timed(f"{man.name}.{key}", watch, failed=bool(error), wrong=bool(error))
                if error:
                    _report(f"{man.name}.{key} raised:\n{error}")
            for rep in reports.values():
                out.count_rows({"verdict": c.verdict, "details": c.details} for c in rep.checks)
            try:
                expected = lab.gallery.evaluate_manifest(man, reports)
            except Exception:
                _report(f"{man.name}: evaluate_manifest raised:\n{traceback.format_exc()}")
                for call in calls.values():
                    call.failed = call.wrong = True
            else:
                for row in expected.checks:
                    if not row.passed:
                        key = row.id.split(".", 1)[0]
                        _report(f"{man.name}: expectation {row.id} not met (verdict {row.verdict})")
                        calls[key].failed = calls[key].wrong = True
            out.calls.extend(calls.values())
        out.wall = time.perf_counter() - whole
        return out


# -------------------------------------------------------------- documents


def _has_nan_pass(report_doc: dict) -> bool:
    return any(
        c.get("verdict") == "pass" and c.get("residual") == "nan"
        for rep in report_doc.get("reports", {}).values()
        for c in rep.get("checks", [])
    )


def _matches(doc: docgen.Document, code: int, parsed: dict | None) -> bool:
    if doc.exit_code is None:  # singular: only the exit-code contract is known
        return code in (0, 1, 2) and not (parsed and _has_nan_pass(parsed))
    if code != doc.exit_code or parsed is None:
        return False
    if doc.exit_code == 0 and parsed["summary"]["verdict"] != "pass":
        return False
    for (report, row_id), verdict in doc.verdicts.items():
        rows = {c["id"]: c["verdict"] for c in parsed["reports"][report]["checks"]}
        if rows.get(row_id) != verdict:
            return False
    return doc.betti is None or tuple(parsed["config"]["betti"]) == doc.betti


class DocumentWorkload:
    """A seeded stream of declaration documents through ``lcslab.cli.main``."""

    def setup(self, lab, seed: int, quick: bool) -> dict:
        docs = docgen.stream(seed, lab.cohomology, quick)
        for doc in docs:  # loading, with the program's own loader
            lab.jsonio.load_document(doc.argv[1])
        return {"lab": lab, "seed": seed, "docs": docs}

    @staticmethod
    def _invoke(lab, doc: docgen.Document) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lab.cli.main([*doc.argv, "--format", "json"])
        return code, out.getvalue()

    def run_pass(self, state: dict, rec=None) -> PassResult:
        lab, docs = state["lab"], state["docs"]
        out = PassResult()
        rerun = None  # (index, JSON text) of the first document that answered
        whole = time.perf_counter()
        for i, doc in enumerate(docs):
            error = None
            with Stopwatch(sampling=rec is None) as watch:
                try:
                    code, text = self._invoke(lab, doc)
                except Exception as err:
                    error = err, traceback.format_exc()
            if error:
                call = Call.timed(f"{i}:{doc.family}", watch, failed=True, wrong=doc.family != "singular")
                if call.wrong:
                    _report(f"{doc.family} document {i} raised:\n{error[1]}")
                elif not state.get("reported_singular"):
                    state["reported_singular"] = True
                    _report(f"singular document {i} raised {error[0]!r} (known defect, counted as failed)")
                out.calls.append(call)
                continue
            call = Call.timed(f"{i}:{doc.family}", watch)
            try:
                parsed = json.loads(text) if text else None
            except json.JSONDecodeError:
                parsed = None
            if parsed is not None:
                out.count_rows(c for rep in parsed.get("reports", {}).values() for c in rep.get("checks", []))
            try:
                ok = _matches(doc, code, parsed)
            except (KeyError, TypeError):  # a report without the expected shape
                ok = False
            if not ok:
                call.failed = call.wrong = True
                _report(f"{doc.family} document {i}: exit {code}, answer does not match its construction")
            elif doc.family != "singular" and rerun is None:
                rerun = (i, text)
            out.calls.append(call)
        if rerun is not None:  # same configuration, same bytes
            i, text = rerun
            try:
                _, again = self._invoke(lab, docs[i])
            except Exception:
                again = None
            if again != text:
                _report(f"document {i}: repeated JSON report differs")
                out.calls[i].failed = out.calls[i].wrong = True
        out.wall = time.perf_counter() - whole
        return out


WORKLOADS = {
    # All seven runs of the coupled hemisphere bundle at the default 64 points.
    "coupling-s2": GalleryWorkload(64, 4, (("coupling_example_s2", {}),)),
    # The large-N certificate: every run of four manifests at 4096 points.
    "gallery-4096": GalleryWorkload(
        4096,
        64,
        (
            ("hopf", {"n": 2, "weights": (1.0, 2.0)}),
            ("hopf", {"n": 4, "weights": (1.0, 1.0, 1.0, 1.0)}),
            ("inoue", {}),
            ("cotangent", {"m": 2}),
        ),
    ),
    # Parser, loader, CLI, report rendering and cohomology at 64 points.
    "documents": DocumentWorkload(),
}

"""Digest of the command-line output on a fixed set of invocations.

Runs ``lcslab.cli.main`` in this process on every gallery configuration at
64 and 1024 points, seeds 3 and 4, in JSON and text; on ``list`` and each
``example <name>`` description; on four documents that reach command paths
the others do not (``cohomology --theta``, a ``momentum`` section,
``structure_constants``, ``atan2``) and on the seeded documents of
``lcsbench/docgen.py`` for seeds 5-7, in JSON and text.  Prints one line per
invocation: the exit code, the sha256 of stdout and of stderr, and the argv
(an argument longer than 60 characters, such as a whole JSON document,
stands as the first 16 hex digits of its sha256).  Two checkouts give the
same output when their digests are identical:

    python3 scripts/output_digest.py > digest.txt    # in each checkout
    diff parent/digest.txt change/digest.txt

``--quick`` runs a gallery run, ``list``, a description and a docgen
document.  ``LCSLAB_SEED`` is ignored, so an invocation without ``--seed``
uses seed 0 in every environment.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import shlex
import sys

from lcslab import cli, cohomology

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Every gallery configuration: the example's name and its options.
GALLERY_CONFIGS = (
    ("hopf", "--n", "2", "--weights", "1,1"),
    ("hopf", "--n", "2", "--weights", "1,2"),
    ("hopf", "--n", "3"),
    ("hopf", "--n", "4"),
    ("hopf", "--n", "5"),  # 10 rows: Pfaffians above 8 rows go through report._eliminate
    ("inoue",),
    ("cotangent", "--m", "1"),
    ("cotangent", "--m", "2"),
    ("cotangent", "--m", "5"),
    ("coupling-s2", "--weights", "1,1"),
    ("coupling-s2", "--weights", "1,2"),
)
# A phase plane with its translation, declared momentum and (zero) structure constants.
PHASE = {
    "chart": {"name": "phase", "coords": ["q", "p"], "box": [[-2, 2], [-2, 2]]},
    "forms": {
        "omega": {"degree": 2, "coeffs": {"0,1": "-1"}},
        "eta": {"degree": 1, "coeffs": {"0": "p"}},
        "zero": {"degree": 1, "coeffs": {}},
    },
    "fields": {"push": ["1", "0"]},
    "lcs": {"omega": "omega", "lee": "zero", "potential": "eta"},
    "action": {"dim": 1, "rho": ["push"], "structure_constants": [[0, 0, 0, 0]]},
    "momentum": ["-p"],
}
# A sector where omega's coefficient takes atan2 and the Lee form is d(angle).
SECTOR = {
    "chart": {"name": "sector", "coords": ["x", "y"], "box": [[0.5, 2], [-1.5, 1.5]]},
    "forms": {
        "omega": {"degree": 2, "coeffs": {"0,1": "2 + atan2(y, x)"}},
        "lee": {"degree": 1, "coeffs": {"0": "-y/(x^2 + y^2)", "1": "x/(x^2 + y^2)"}},
    },
    "lcs": {"omega": "omega", "lee": "lee"},
}
COUPLING = {
    "base": {"name": "disk", "coords": ["u", "v"]},
    "gauge": {"A": [{"0": "v"}], "structure_constants": [[0, 0, 0, 0]]},
    "fiber": PHASE,
    "momentum": ["-p"],
}
CIRCLE = {"vertices": 3, "simplices": [[0], [1], [2], [0, 1], [1, 2], [0, 2]]}
COMMANDS = (
    ["cohomology", json.dumps(CIRCLE), "--theta", "0,1:0.693;1,2:0"],
    ["verify", json.dumps(PHASE)],
    ["coupling", json.dumps(COUPLING)],
    ["verify", json.dumps(SECTOR)],
)
POINTS = (64, 1024)
SEEDS = (3, 4)
FORMATS = ("json", "text")
DOCUMENT_SEEDS = (5, 6, 7)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def shown(argv) -> str:
    return shlex.join(a if len(a) <= 60 else f"<sha256:{sha256(a)[:16]}>" for a in argv)


def documents(seed: int) -> list:
    """The argv of each docgen document of ``seed``, in stream order."""
    spec = importlib.util.spec_from_file_location("docgen", ROOT / "lcsbench" / "docgen.py")
    docgen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclass looks itself up there
    spec.loader.exec_module(docgen)
    return [list(doc.argv) for doc in docgen.stream(seed, cohomology)]


def invocations(quick: bool) -> list:
    runs = [
        ["example", *config[:1], "--run", *config[1:], "--points", str(points), "--seed", str(seed), "--format", fmt]
        for config in GALLERY_CONFIGS
        for points in POINTS
        for seed in SEEDS
        for fmt in FORMATS
    ]
    descriptions = [["example", name] for name in sorted(cli.GALLERY)]
    commands = [argv + ["--format", fmt] for argv in COMMANDS for fmt in FORMATS]
    docs = [argv + ["--format", fmt] for seed in DOCUMENT_SEEDS for argv in documents(seed) for fmt in FORMATS]
    if quick:
        return [runs[0], ["list"], descriptions[0], docs[0]]
    return [*runs, ["list"], *descriptions, *commands, *docs]


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"{code} {sha256(out.getvalue())} {sha256(err.getvalue())} {shown(argv)}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--quick", action="store_true", help="one invocation of each kind")
    args = ap.parse_args(argv)
    os.environ.pop("LCSLAB_SEED", None)
    for call in invocations(args.quick):
        print(digest(call), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

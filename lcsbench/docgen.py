"""Seeded declaration documents with answers known by construction.

Every document is a JSON text for one ``lcslab`` subcommand, paired with the
answer the program must give: the exit code, the verdict of named rows and,
for complexes, the Betti vector.  The answers follow from how each document
is built, never from running the program:

* ``verify-pass``: omega is written out as ``d eta - theta ^ eta`` for a
  seeded polynomial eta and a constant Lee form theta, so the structure
  identity, the potential identity and the closedness of theta hold exactly.
  eta is a small perturbation of ``p1 dq1 + p2 dq2`` on the unit box, which
  keeps the Pfaffian of omega above 0.4 there, so omega is nondegenerate.
* ``verify-fail``: omega is closed but theta ^ omega is a nonzero constant
  multiple of ``da ^ dc ^ dd``, so ``lcs-identity`` fails and nothing else.
* ``reduce`` and ``coupling``: the shapes of the command-line tests with
  seeded coefficients.  The fiber potential is shifted so that its momentum
  map has no zero on the box, and the gauge curvature is a nonzero constant,
  which keeps the coupling form nondegenerate everywhere.
* ``cohomology``: ``circle(k) x boundary(simplex m)`` with its vertices
  relabelled by a seeded permutation.  Untwisted, Kuenneth gives Betti 1 in
  degrees 0, 1, m-1 and m; with nonzero holonomy every Betti number is 0.
* ``singular``: a coupling document whose gauge coefficient is ``sqrt`` or
  ``log`` of an argument that changes sign on the sampling box.  The only
  answer known here is the exit-code contract: 0, 1 or 2, no exception, and
  no row that passes with a non-finite residual.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class Document:
    family: str
    argv: tuple[str, ...]
    exit_code: int | None  # None: any of 0, 1, 2
    verdicts: dict = field(default_factory=dict)  # (report, row id) -> verdict
    betti: tuple[int, ...] | None = None


# ----------------------------------------------------------------- polynomials
# A polynomial is a dict from exponent tuples to exact Fractions.  Seeded
# coefficients are dyadic, so every coefficient written out is an exact float.


def _poly_add(a: dict, b: dict, scale: Fraction = Fraction(1)) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + scale * c
    return {e: c for e, c in out.items() if c != 0}


def _poly_diff(a: dict, i: int) -> dict:
    out = {}
    for e, c in a.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = out.get(tuple(d), Fraction(0)) + c * e[i]
    return {e: c for e, c in out.items() if c != 0}


def _poly_text(a: dict, names) -> str:
    if not a:
        return "0"
    parts = []
    for e, c in sorted(a.items()):
        factors = [repr(float(abs(c)))]
        for name, k in zip(names, e):
            if k:
                factors.append(name if k == 1 else f"{name}^{k}")
        term = " * ".join(factors)
        if not parts:
            parts.append(("-" if c < 0 else "") + term)
        else:
            parts.append(("- " if c < 0 else "+ ") + term)
    return " ".join(parts)


def _monomial(i: int, dim: int) -> tuple:
    e = [0] * dim
    e[i] = 1
    return tuple(e)


def _dyadic(rng: np.random.Generator, lo: int, hi: int, denom: int, nonzero: bool = False) -> Fraction:
    choices = [k for k in range(lo, hi + 1) if k or not nonzero]
    return Fraction(int(rng.choice(choices)), denom)


def _num(x: Fraction) -> str:
    return repr(float(x))


# -------------------------------------------------------------------- families


def verify_pass(rng: np.random.Generator, seed: int) -> Document:
    names = ("q1", "p1", "q2", "p2")
    dim = 4
    eta = [{} for _ in range(dim)]
    eta[0] = {_monomial(1, dim): Fraction(1)}
    eta[2] = {_monomial(3, dim): Fraction(1)}
    for j in range(dim):
        for _ in range(2):
            e = [0] * dim
            for _ in range(int(rng.integers(1, 3))):
                e[int(rng.integers(dim))] += 1
            eta[j] = _poly_add(eta[j], {tuple(e): _dyadic(rng, -2, 2, 128, nonzero=True)})
    theta = [_dyadic(rng, -2, 2, 32) for _ in range(dim)]
    omega = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            c = _poly_add(_poly_diff(eta[b], a), _poly_diff(eta[a], b), Fraction(-1))
            c = _poly_add(c, eta[b], -theta[a])
            c = _poly_add(c, eta[a], theta[b])
            if c:
                omega[f"{a},{b}"] = _poly_text(c, names)
    doc = {
        "chart": {"name": "phase4", "coords": list(names), "box": [[-1, 1]] * dim},
        "forms": {
            "omega": {"degree": 2, "coeffs": omega},
            "theta": {"degree": 1, "coeffs": {str(i): _num(t) for i, t in enumerate(theta) if t}},
            "eta": {
                "degree": 1,
                "coeffs": {str(i): _poly_text(p, names) for i, p in enumerate(eta) if p},
            },
        },
        "lcs": {"omega": "omega", "lee": "theta", "potential": "eta"},
    }
    rows = {("lcs", r): "pass" for r in ("lee-closed", "lcs-identity", "nondegenerate", "potential")}
    return Document("verify-pass", ("verify", json.dumps(doc), "--seed", str(seed)), 0, rows)


def verify_fail(rng: np.random.Generator, seed: int) -> Document:
    k = _dyadic(rng, 1, 8, 8)
    m = _dyadic(rng, 4, 16, 8)
    lee = _dyadic(rng, 2, 16, 8) * (1 if rng.random() < 0.5 else -1)
    doc = {
        "chart": {"name": "r4", "coords": ["a", "b", "c", "d"]},
        "forms": {
            "omega": {"degree": 2, "coeffs": {"0,1": f"1 + {_num(k)} * a^2", "2,3": _num(m)}},
            "lee": {"degree": 1, "coeffs": {"0": _num(lee)}},
        },
        "lcs": {"omega": "omega", "lee": "lee"},
    }
    rows = {("lcs", "lcs-identity"): "fail", ("lcs", "lee-closed"): "pass", ("lcs", "nondegenerate"): "pass"}
    return Document("verify-fail", ("verify", json.dumps(doc), "--seed", str(seed)), 1, rows)


def reduce_doc(rng: np.random.Generator, seed: int) -> Document:
    k = _dyadic(rng, 4, 16, 8)
    slide = _dyadic(rng, 4, 16, 8)
    shift = _dyadic(rng, -4, 4, 8)  # moves the zero level of mu_1 = -(p1 + shift)
    doc = {
        "chart": {"name": "phase4", "coords": ["q1", "p1", "q2", "p2"]},
        "forms": {
            "omega": {"degree": 2, "coeffs": {"0,1": "-1", "2,3": f"-{_num(k)}"}},
            "eta": {"degree": 1, "coeffs": {"0": f"p1 + {_num(shift)}", "2": f"{_num(k)} * p2"}},
            "zero": {"degree": 1, "coeffs": {}},
        },
        "fields": {"push": ["1", "0", "0", "0"]},
        "lcs": {"omega": "omega", "lee": "zero", "potential": "eta"},
        "action": {
            "dim": 1,
            "rho": ["push"],
            "elements": {"slide": {"map": [f"q1 + {_num(slide)}", "p1", "q2", "p2"]}},
        },
        "momentum": "auto",
        "slice": {"coords": ["s1", "s2"], "map": ["0", _num(-shift), "s1", "s2"], "level_of": ["mu_1"]},
    }
    return Document("reduce", ("reduce", json.dumps(doc), "--seed", str(seed)), 0)


def _fiber(rng: np.random.Generator) -> dict:
    shift = _dyadic(rng, 20, 32, 8)
    return {
        "chart": {"name": "phase", "coords": ["q", "p"], "box": [[-2, 2], [-2, 2]]},
        "forms": {
            "omega": {"degree": 2, "coeffs": {"0,1": "-1"}},
            "eta": {"degree": 1, "coeffs": {"0": f"p + {_num(shift)}"}},
            "zero": {"degree": 1, "coeffs": {}},
        },
        "fields": {"push": ["1", "0"]},
        "lcs": {"omega": "omega", "lee": "zero", "potential": "eta"},
        "action": {"dim": 1, "rho": ["push"]},
        "momentum": "auto",
    }


def coupling_doc(rng: np.random.Generator, seed: int) -> Document:
    c = _dyadic(rng, 2, 8, 8)
    d = -_dyadic(rng, 2, 8, 8)
    e = _dyadic(rng, -4, 4, 8)
    gauge = {"0": f"{_num(c)} * v + {_num(e)} * u^2", "1": f"{_num(d)} * u"}
    doc = {"base": {"name": "disk", "coords": ["u", "v"]}, "gauge": {"A": [gauge]},
           "fiber": _fiber(rng), "momentum": "auto"}
    return Document("coupling", ("coupling", json.dumps(doc), "--seed", str(seed)), 0)


def singular_doc(rng: np.random.Generator, seed: int, kind: str) -> Document:
    c = _dyadic(rng, 2, 8, 8)
    s = _dyadic(rng, 0, 7, 8)
    coeff = f"{_num(c)} * sqrt(u + {_num(s)})" if kind == "sqrt" else f"{_num(c)} * log(u + {_num(s)} + 0.25)"
    doc = {"base": {"name": "disk", "coords": ["u", "v"]}, "gauge": {"A": [{"0": "v", "1": coeff}]},
           "fiber": _fiber(rng), "momentum": "auto"}
    return Document("singular", ("coupling", json.dumps(doc), "--seed", str(seed)), None)


def cohomology_doc(rng: np.random.Generator, cohomology, k: int, m: int, twisted: bool) -> Document:
    """``cohomology`` is the ``lcslab.cohomology`` module, used only to triangulate."""
    holonomy = float(_dyadic(rng, 8, 24, 16)) if twisted else 0.0
    K = cohomology.product_complex(cohomology.circle(k, holonomy), cohomology.simplex_boundary(m))
    perm = rng.permutation(K.n_vertices)
    simplices = sorted(
        sorted(int(perm[v]) for v in s) for dim in range(K.top + 1) for s in K.simplices(dim)
    )
    theta = {}
    for (u, v), w in K.theta.items():
        a, b = int(perm[u]), int(perm[v])
        if w:
            theta[f"{min(a, b)},{max(a, b)}"] = w if a < b else -w
    doc = {"vertices": K.n_vertices, "simplices": simplices}
    if theta:
        doc["theta"] = theta
    if twisted:
        betti = (0,) * (m + 1)
    else:
        betti = tuple(1 if d in (0, 1, m - 1, m) else 0 for d in range(m + 1))
    return Document("cohomology", ("cohomology", json.dumps(doc)), 0, betti=betti)


# ------------------------------------------------------------------ the stream

# One pass: 40 documents, 4 of them singular (a fixed 10% share).
FAMILY_COUNTS = {"verify-pass": 12, "verify-fail": 8, "reduce": 4, "coupling": 8, "singular": 4}
COMPLEXES = ((8, 5, False), (8, 5, True), (6, 4, False), (6, 4, True))
QUICK_COUNTS = {"verify-pass": 2, "verify-fail": 2, "reduce": 1, "coupling": 1, "singular": 1}
QUICK_COMPLEXES = ((4, 4, False), (4, 4, True))


def stream(seed: int, cohomology, quick: bool = False) -> list[Document]:
    """The seeded document list of one pass, interleaved by family."""
    rng = np.random.default_rng([seed, 0x1C5])
    counts = QUICK_COUNTS if quick else FAMILY_COUNTS
    docs = []
    for family, count in counts.items():
        for i in range(count):
            point_seed = int(rng.integers(1 << 16))
            if family == "verify-pass":
                docs.append(verify_pass(rng, point_seed))
            elif family == "verify-fail":
                docs.append(verify_fail(rng, point_seed))
            elif family == "reduce":
                docs.append(reduce_doc(rng, point_seed))
            elif family == "coupling":
                docs.append(coupling_doc(rng, point_seed))
            else:
                docs.append(singular_doc(rng, point_seed, "sqrt" if i % 2 == 0 else "log"))
    for k, m, twisted in QUICK_COMPLEXES if quick else COMPLEXES:
        docs.append(cohomology_doc(rng, cohomology, k, m, twisted))
    order = rng.permutation(len(docs))
    return [docs[i] for i in order]

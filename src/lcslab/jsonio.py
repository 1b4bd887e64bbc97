"""JSON declaration documents: charts, forms, actions, slices, complexes.

One document can declare several sections; each loader validates its own and
raises :class:`UsageError` with the offending key, or a positioned
:class:`ParseError` for malformed JSON and expressions.  Expressions use the
ASCII grammar of :mod:`lcslab.parser` and may reference chart coordinates.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .actions import ActionSpec, MomentumMap
from .charts import Chart
from .cohomology import TwistedComplex
from .coupling import GaugeChart
from .errors import ParseError, UsageError
from .forms import DifferentialForm, SmoothMap, VectorField
from .lcs import LCSStructure
from .parser import parse_field, parse_fields
from .reduction import LevelSlice


def load_document(source: str | Path) -> dict:
    """Read a JSON file (or literal text starting with '{') into a dict."""
    text = str(source)
    if not text.lstrip().startswith("{"):
        try:
            text = Path(source).read_text()
        except OSError as err:
            raise UsageError(f"cannot read {source}: {err}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(err.msg, err.pos, text) from None
    except RecursionError:  # the text is not echoed: it is at least a few kilobytes of brackets
        raise UsageError("JSON document nests too deeply to load") from None
    if not isinstance(doc, dict):
        raise UsageError("top-level JSON value must be an object")
    return doc


def _require(d: dict, key: str, kind, where: str):
    if not isinstance(d, dict):
        raise UsageError(f"{where} must be an object")
    if key not in d:
        raise UsageError(f"{where} is missing required key {key!r}")
    v = d[key]
    if kind is not None and (not isinstance(v, kind) or isinstance(v, bool) and kind is int):
        raise UsageError(f"{where}[{key!r}] has the wrong type")
    return v


def _optional(d: dict, key: str, kind, where: str, default=None):
    """``d[key]`` checked as :func:`_require` does, or ``default`` when the key is absent."""
    return _require(d, key, kind, where) if key in d else default


def _coords(d: dict, where: str) -> tuple[str, ...]:
    coords = tuple(_require(d, "coords", list, where))
    if not coords or not all(isinstance(c, str) for c in coords):
        raise UsageError(f"{where} coords must be a nonempty list of names")
    return coords


def chart_from_decl(d: dict) -> Chart:
    name = _require(d, "name", str, "chart")
    coords = _coords(d, "chart")
    bare = Chart(name, coords, d.get("box", ()))
    domain = d.get("domain")
    if domain is None:
        return bare
    return Chart(name, coords, bare.box, (parse_field(domain, bare).node,))


_KEY_RE = re.compile(r"^\s*(\d+\s*(,\s*\d+\s*)*)?$")


def _index_key(key: str, where: str) -> tuple[int, ...]:
    if not _KEY_RE.match(key):
        raise UsageError(f"{where}: bad index key {key!r} (want comma-separated indices)")
    if not key.strip():
        return ()
    return tuple(int(tok) for tok in key.split(","))


def forms_from_decl(chart: Chart, d: dict) -> dict[str, DifferentialForm]:
    out = {}
    for name, spec in d.items():
        degree = int(_require(spec, "degree", int, f"form {name!r}"))
        coeffs = {}
        for key, expr in _require(spec, "coeffs", dict, f"form {name!r}").items():
            idx = _index_key(key, f"form {name!r}")
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise UsageError(
                    f"form {name!r}: key {key!r} is not a strictly increasing {degree}-index"
                )
            if idx and idx[-1] >= chart.dim:
                raise UsageError(f"form {name!r}: key {key!r} is outside the chart")
            coeffs[idx] = parse_field(expr, chart)
        out[name] = DifferentialForm(chart, degree, coeffs)
    return out


def fields_from_decl(chart: Chart, d: dict) -> dict[str, VectorField]:
    out = {}
    for name, exprs in d.items():
        if not isinstance(exprs, list) or len(exprs) != chart.dim:
            raise UsageError(f"field {name!r} needs {chart.dim} component expressions")
        out[name] = VectorField(chart, parse_fields(exprs, chart))
    return out


def lcs_from_decl(chart: Chart, forms: dict, d: dict) -> LCSStructure:
    def pick(key: str, degree: int, required: bool):
        name = d.get(key)
        if name is None:
            if required:
                raise UsageError(f"lcs section is missing {key!r}")
            return None
        if not isinstance(name, str) or name not in forms:
            raise UsageError(f"lcs[{key!r}] names unknown form {name!r}")
        f = forms[name]
        if f.degree != degree:
            raise UsageError(f"lcs[{key!r}] must be a {degree}-form")
        return f

    return LCSStructure(
        chart,
        pick("omega", 2, True),
        pick("lee", 1, True),
        potential=pick("potential", 1, False),
    )


def _constants_from_rows(rows, dim: int) -> np.ndarray:
    C = np.zeros((dim, dim, dim))
    if not isinstance(rows, list):
        raise UsageError("structure constants must be a list of [a, b, c, value] rows")
    for row in rows:
        if not (isinstance(row, list) and len(row) == 4 and all(type(x) is int for x in row[:3])):
            raise UsageError("structure constant rows are [a, b, c, value] with integer a, b, c")
        if type(row[3]) not in (int, float):
            raise UsageError(f"structure constant value {row[3]!r} is not a number")
        a, b, c = map(int, row[:3])
        if not all(0 <= i < dim for i in (a, b, c)):
            raise UsageError(f"structure constant indices out of range in {row}")
        C[a, b, c] = float(row[3])
    return C


def action_from_decl(chart: Chart, fields: dict, d: dict) -> ActionSpec:
    dim = int(_require(d, "dim", int, "action"))
    names = _require(d, "rho", list, "action")
    if len(names) != dim:
        raise UsageError(f"action declares dim {dim} but {len(names)} generator names")
    gens = []
    for name in names:
        if not isinstance(name, str) or name not in fields:
            raise UsageError(f"action generator {name!r} is not a declared field")
        gens.append(fields[name])
    constants = None
    if "structure_constants" in d:
        constants = _constants_from_rows(d["structure_constants"], dim)
    elements = {}
    for gname, spec in _optional(d, "elements", dict, "action", {}).items():
        exprs = _require(spec, "map", list, f"element {gname!r}")
        if len(exprs) != chart.dim:
            raise UsageError(f"element {gname!r} needs {chart.dim} component expressions")
        elements[gname] = SmoothMap(chart, chart, parse_fields(exprs, chart))
    return ActionSpec(chart, tuple(gens), constants, elements)


def momentum_from_decl(chart: Chart, exprs) -> MomentumMap:
    if not isinstance(exprs, list) or not exprs:
        raise UsageError("momentum must be a nonempty list of component expressions")
    return MomentumMap(chart, tuple(parse_fields(exprs, chart)))


_TERM_RE = re.compile(r"^\s*(?:(\d+(?:\.\d+)?)\s*\*\s*)?mu_(\d+)\s*$")


def _level_direction(text: str, dim: int) -> tuple[float, ...]:
    """Parse 'mu_1', '2*mu_1', or signed sums like 'mu_1-mu_2'."""
    out = [0.0] * dim
    pieces = re.split(r"(?=[+-])", text.replace(" ", ""))
    for piece in pieces:
        if not piece:
            continue
        sign = 1.0
        if piece[0] in "+-":
            sign = -1.0 if piece[0] == "-" else 1.0
            piece = piece[1:]
        m = _TERM_RE.match(piece)
        if not m:
            raise UsageError(
                f"cannot parse momentum-level term {piece!r} (want forms like 'mu_1' or '2*mu_1')"
            )
        coef = float(m.group(1)) if m.group(1) else 1.0
        k = int(m.group(2))
        if not 1 <= k <= dim:
            raise UsageError(f"momentum index mu_{k} is outside 1..{dim}")
        out[k - 1] += sign * coef
    return tuple(out)


def slice_from_decl(ambient: Chart, d: dict, momentum_dim: int) -> LevelSlice:
    src = Chart(d.get("name", "slice"), _coords(d, "slice"), d.get("box", ()))
    exprs = _require(d, "map", list, "slice")
    if len(exprs) != ambient.dim:
        raise UsageError(f"slice map needs {ambient.dim} component expressions")
    param = SmoothMap(src, ambient, parse_fields(exprs, src))
    levels = _require(d, "level_of", list, "slice")
    if not all(isinstance(t, str) for t in levels):
        raise UsageError("slice level_of entries must be strings like 'mu_1'")
    directions = tuple(_level_direction(t, momentum_dim) for t in levels)
    return LevelSlice(param, directions)


@dataclass(frozen=True)
class Declaration:
    """Everything a single document declares, wired together."""

    chart: Chart
    forms: dict[str, DifferentialForm]
    fields: dict[str, VectorField]
    structure: LCSStructure | None
    action: ActionSpec | None
    momentum: MomentumMap | None
    level_slice: LevelSlice | None


def load_declaration(doc: dict) -> Declaration:
    chart = chart_from_decl(_require(doc, "chart", dict, "document"))
    forms = forms_from_decl(chart, _optional(doc, "forms", dict, "document", {}))
    fields = fields_from_decl(chart, _optional(doc, "fields", dict, "document", {}))
    lcs, act = _optional(doc, "lcs", dict, "document"), _optional(doc, "action", dict, "document")
    structure = lcs_from_decl(chart, forms, lcs) if lcs is not None else None
    action = action_from_decl(chart, fields, act) if act is not None else None
    momentum = None
    if "momentum" in doc and doc["momentum"] != "auto":
        momentum = momentum_from_decl(chart, doc["momentum"])
    level_slice = None
    if "slice" in doc:
        mdim = momentum.dim if momentum is not None else (action.dim if action else 1)
        level_slice = slice_from_decl(chart, doc["slice"], mdim)
    return Declaration(chart, forms, fields, structure, action, momentum, level_slice)


def parse_theta_text(text: str) -> dict[tuple[int, int], float]:
    """Edge weights from '0,1:0.693;1,2:0' command-line syntax."""
    out = {}
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise UsageError(f"bad edge weight {item!r} (want 'u,v:value')")
        key, val = item.rsplit(":", 1)
        idx = _index_key(key, "edge weight")
        if len(idx) != 2:
            raise UsageError(f"bad edge key {key!r} (want two vertex indices)")
        try:
            out[(idx[0], idx[1])] = float(val)
        except ValueError:
            raise UsageError(f"bad edge weight value {val!r}") from None
    return out


def complex_from_decl(doc: dict, theta_extra: dict | None = None) -> TwistedComplex:
    n = int(_require(doc, "vertices", int, "complex"))
    simplices = _require(doc, "simplices", list, "complex")
    if set(map(type, simplices)) - {list} or set(map(type, chain.from_iterable(simplices))) - {int}:
        raise UsageError("complex simplices must be lists of vertex indices")
    theta = {}
    for key, val in _optional(doc, "theta", dict, "complex", {}).items():
        idx = _index_key(key, "theta")
        if len(idx) != 2:
            raise UsageError(f"theta key {key!r} is not an edge")
        theta[(idx[0], idx[1])] = val
    if theta_extra:
        theta.update(theta_extra)
    return TwistedComplex(n, simplices, theta)


def coupling_from_decl(doc: dict):
    """Base gauge data plus a nested fiber declaration.

    Returns (gauge, fiber structure, action, momentum-or-None); the momentum
    entry "auto" defers to derivation from the fiber potential.
    """
    base = chart_from_decl(_require(doc, "base", dict, "coupling"))
    gauge_spec = _require(doc, "gauge", dict, "coupling")
    pot_list = _require(gauge_spec, "A", list, "gauge")
    potentials = []
    for i, entry in enumerate(pot_list):
        if not isinstance(entry, dict):
            raise UsageError(f"gauge A[{i}] must map coordinate index to expression")
        coeffs = {}
        for key, expr in entry.items():
            idx = _index_key(key, f"gauge A[{i}]")
            if len(idx) != 1 or idx[0] >= base.dim:
                raise UsageError(f"gauge A[{i}]: bad coordinate key {key!r}")
            coeffs[idx] = parse_field(expr, base)
        potentials.append(DifferentialForm(base, 1, coeffs))
    constants = None
    if "structure_constants" in gauge_spec:
        constants = _constants_from_rows(gauge_spec["structure_constants"], len(potentials))
    gauge = GaugeChart(base, tuple(potentials), constants)

    fiber_doc = _require(doc, "fiber", dict, "coupling")
    decl = load_declaration(fiber_doc)
    if decl.structure is None or decl.action is None:
        raise UsageError("coupling fiber document needs 'lcs' and 'action' sections")
    momentum = decl.momentum
    if "momentum" in doc and doc["momentum"] != "auto":
        momentum = momentum_from_decl(decl.chart, doc["momentum"])
    return gauge, decl.structure, decl.action, momentum

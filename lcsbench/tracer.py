"""Span recorder that instruments ``lcslab`` from outside.

The program carries no tracing code.  :func:`install` rebinds each public
function of a layer module in *every* ``lcslab`` namespace that holds it (so
``coupling`` calling its own imported ``exterior_derivative`` is seen too),
and wraps public methods through their class attribute.  Spans stay in flat
arrays in memory; self times (duration minus the time covered by child
spans) are computed once, after the traced pass.

Three hot entry points are counted without a span, because a span there
would cost more than the work it measures: ``Dual.__init__`` (one per dual
number), ``dual.partial`` and ``ScalarField.__call__``.  ``det_generic`` and
the other ``dual`` functions get neither; their time lands in the span that
called them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "dual", "charts", "forms", "parser", "report", "lcs", "actions",
    "coupling", "cohomology", "reduction", "jsonio", "cli", "gallery",
)

# Entry points that are counted only, by counter name.
COUNTED = {
    ("dual", "Dual", "__init__"): "dual.allocs",
    ("dual", None, "partial"): "dual.partial_calls",
    ("forms", "ScalarField", "__call__"): "forms.field_calls",
}
# Modules or functions that get no span at all.
UNTRACED_MODULES = {"dual"}
UNTRACED = {("forms", None, "det_generic")}
# Private or special methods that do get a span.
EXTRA_SPANS = {("cohomology", "TwistedComplex", "__init__")}

# Metric groups: summed self time of the named spans.  Span names are
# "<module>.<function>" or "<module>.<Class>.<method>".
GROUPS = {
    "forms.pointwise": (
        "forms.DifferentialForm.coeff_matrix", "forms.eval_form", "forms.ScalarField.at",
        "forms.VectorField.at", "forms.SmoothMap.at", "coupling.EndomorphismField.at",
        "forms.pushforward_vector",
    ),
    "forms.batched": ("forms.ScalarField.batch", "report.form_values"),
    "charts.sample": ("charts.Chart.sample", "charts.Chart.sample_vectors"),
    "report.residual": ("report.form_residual", "report.form_max", "report.scalar_residual", "report.spread"),
    "report.render": (
        "report.Report.to_json", "report.Report.to_dict", "report.Report.to_text", "report.CheckResult.to_dict",
    ),
    "coupling.verify": ("coupling.verify_coupling",),
    "coupling.lift_bracket": ("coupling.lift_bracket_diagnostic",),
    "coupling.nijenhuis": (
        "coupling.nijenhuis", "coupling.nijenhuis_tensoriality", "coupling.horizontal_nijenhuis_identity",
        "coupling.coupled_complex_structure", "coupling.conjugate_structure", "coupling.rotation_structure",
        "coupling.EndomorphismField.apply", "coupling.EndomorphismField.from_matrix",
    ),
    "coupling.fatness": ("coupling.fatness_check", "coupling.circle_fat_from_symplectic"),
    "cohomology.betti": ("cohomology.betti",),
    "cohomology.coboundary": ("cohomology.twisted_coboundary", "cohomology.apply_coboundary"),
    "parser.parse": ("parser.parse_field", "parser.parse_fields"),
    "gallery.evaluate": ("gallery.evaluate_manifest",),
    "gallery.build": ("gallery.hopf", "gallery.inoue", "gallery.cotangent", "gallery.coupling_example_s2"),
}
# The rest of a module's spans, after the groups above have taken theirs.
REMAINDER_GROUPS = {
    "forms": "forms.construct", "coupling": "coupling.build", "cohomology": "cohomology.build", "jsonio": "jsonio.load",
}

# Extra counts read from a call's arguments (positional index of the input).
MEASURES = {
    "forms.ScalarField.batch": ("forms.batched_points", lambda args: len(args[1])),
    "report.form_values": ("forms.batched_points", lambda args: len(args[1])),
    "cohomology.betti": ("cohomology.simplices", lambda args: sum(args[0].count(k) for k in range(args[0].top + 1))),
}


class SpanRecorder:
    """Spans as parallel arrays: name id, parent index, start, end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, list[int]] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def counter(self, name: str) -> list[int]:
        return self.counts.setdefault(name, [0])

    def wrap(self, fn, name: str):
        """``fn`` recording one span per call under ``name``."""
        nid = self._id(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter
        measure = MEASURES.get(name)
        cell, size = (self.counter(measure[0]), measure[1]) if measure else (None, None)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            i = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            if cell is not None:
                cell[0] += size(args)
            start[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return spanned

    def span(self, name: str):
        """Context manager form, for the benchmark's own root spans."""
        return _Span(self, self._id(name))

    def count_calls(self, fn, counter: str):
        cell = self.counter(counter)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    # -- results ----------------------------------------------------------

    def self_times(self, root: "_Span") -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name, over the spans below ``root``."""
        n = len(self.name_of)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        dur = np.frombuffer(self.end, count=n) - np.frombuffer(self.start, count=n)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        # Spans opened while the root was open are exactly its descendants.
        inside = slice(root.index + 1, root.stop)
        names = np.frombuffer(self.name_of, dtype=np.int32, count=n)[inside]
        own = (dur - child)[inside]
        calls = np.bincount(names, minlength=len(self.names))
        secs = np.bincount(names, weights=own, minlength=len(self.names))
        return {self.names[k]: (int(calls[k]), float(secs[k])) for k in range(len(self.names)) if calls[k]}


class _Span:
    def __init__(self, rec: SpanRecorder, nid: int):
        self.rec, self.nid, self.index, self.stop = rec, nid, -1, -1

    def __enter__(self):
        rec = self.rec
        self.index = len(rec.name_of)
        rec.name_of.append(self.nid)
        rec.parent.append(rec.stack[-1])
        rec.start.append(time.perf_counter())
        rec.end.append(0.0)
        rec.stack.append(self.index)
        return self

    @property
    def seconds(self) -> float:
        return self.rec.end[self.index] - self.rec.start[self.index]

    def __exit__(self, *exc):
        self.rec.end[self.index] = time.perf_counter()
        self.rec.stack.pop()
        self.stop = len(self.rec.name_of)
        return False


def install(rec: SpanRecorder, package) -> None:
    """Instrument every layer module of ``package`` (the imported ``lcslab``)."""
    prefix = package.__name__
    modules = [m for name, m in list(sys.modules.items()) if name == prefix or name.startswith(prefix + ".")]
    rebind: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        mod = sys.modules[f"{prefix}.{layer}"]
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped = _wrap_entry(rec, layer, None, name, obj)
                if wrapped is not None:
                    rebind[id(obj)] = (obj, wrapped)
            elif inspect.isclass(obj) and not name.startswith("_"):
                for attr, raw in list(vars(obj).items()):
                    if isinstance(raw, staticmethod):
                        wrapped = _wrap_entry(rec, layer, obj.__name__, attr, raw.__func__)
                        if wrapped is not None:
                            setattr(obj, attr, staticmethod(wrapped))
                    elif inspect.isfunction(raw):
                        wrapped = _wrap_entry(rec, layer, obj.__name__, attr, raw)
                        if wrapped is not None:
                            setattr(obj, attr, wrapped)
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            hit = rebind.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])


def _wrap_entry(rec: SpanRecorder, layer: str, cls: str | None, attr: str, fn):
    key = (layer, cls, attr)
    if key in COUNTED:
        return rec.count_calls(fn, COUNTED[key])
    if layer in UNTRACED_MODULES or key in UNTRACED:
        return None
    if attr.startswith("_") and key not in EXTRA_SPANS:
        return None
    name = f"{layer}.{cls}.{attr}" if cls else f"{layer}.{attr}"
    return rec.wrap(fn, name)


def group_times(table: dict[str, tuple[int, float]]) -> dict[str, tuple[int, float]]:
    """(calls, self seconds) per metric group and per layer (``<layer>.self``)."""
    out: dict[str, list] = {}
    member = {name: group for group, names in GROUPS.items() for name in names}
    for name, (calls, secs) in table.items():
        layer = name.split(".", 1)[0]
        if layer not in LAYERS:
            continue
        group = member.get(name) or REMAINDER_GROUPS.get(layer)
        keys = [f"{layer}.self"] + ([group] if group else [])
        if name.startswith("gallery.run:"):
            keys.append("gallery.run")
        for key in keys:
            acc = out.setdefault(key, [0, 0.0])
            acc[0] += calls
            acc[1] += secs
    return {k: (v[0], v[1]) for k, v in out.items()}

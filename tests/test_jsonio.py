"""Declaration documents: loading, section wiring, and the error surface."""

import json

import numpy as np
import pytest

from lcslab.charts import Chart
from lcslab.errors import ParseError, UsageError
from lcslab.jsonio import (
    action_from_decl,
    chart_from_decl,
    complex_from_decl,
    coupling_from_decl,
    fields_from_decl,
    forms_from_decl,
    lcs_from_decl,
    load_declaration,
    load_document,
    momentum_from_decl,
    parse_theta_text,
    slice_from_decl,
)
from tests.pointwise import at

# A complete document exercising every section: harmonic-oscillator phase
# plane with the translation generator, automatic momentum, and a slice of
# the p = 0 level.
FULL_DOC = """
{
  "chart": {"name": "phase", "coords": ["q", "p"], "box": [[-2, 2], [-2, 2]]},
  "forms": {
    "omega": {"degree": 2, "coeffs": {"0,1": "-1"}},
    "eta":   {"degree": 1, "coeffs": {"0": "p"}},
    "zero":  {"degree": 1, "coeffs": {}}
  },
  "fields": {"push": ["1", "0"]},
  "lcs": {"omega": "omega", "lee": "zero", "potential": "eta"},
  "action": {
    "dim": 1,
    "rho": ["push"],
    "elements": {"shift": {"map": ["q + 1", "p"]}}
  },
  "momentum": "auto",
  "slice": {"coords": ["s"], "map": ["s", "0"], "level_of": ["mu_1"]}
}
"""


# ---------------------------------------------------------------- documents


def test_load_document_accepts_literal_text():
    assert load_document('{"a": 1, "b": [2, 3]}') == {"a": 1, "b": [2, 3]}


def test_load_document_reads_files(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"chart": {"name": "c", "coords": ["x"]}}')
    doc = load_document(path)
    assert doc["chart"]["coords"] == ["x"]


def test_malformed_json_is_a_positioned_parse_error():
    with pytest.raises(ParseError) as err:
        load_document('{"chart": }')
    assert err.value.pos == 10


def test_top_level_array_is_rejected(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(UsageError, match="must be an object"):
        load_document(path)


def test_missing_file_names_the_path(tmp_path):
    with pytest.raises(UsageError, match="cannot read"):
        load_document(tmp_path / "absent.json")


# ------------------------------------------------------------------- charts


def test_chart_domain_expression_becomes_a_predicate():
    """A 'domain' entry f restricts the chart to the region f > 0."""
    chart = chart_from_decl(
        {"name": "disc", "coords": ["x", "y"], "domain": "1 - x^2 - y^2"}
    )
    assert chart.contains((0.2, 0.1))
    assert not chart.contains((1.4, 0.0))
    pts = chart.sample(32, seed=3)
    assert all(chart.contains(p) for p in pts)
    # a batch answers row by row, as the one-point form does
    batch = np.vstack([pts[:4], [[1.4, 0.0], [0.0, -0.99], [np.nan, 0.0], [0.1, np.inf]]])
    assert chart.contains(batch).tolist() == [chart.contains(p) for p in batch]
    assert chart.contains(batch).tolist() == [True] * 4 + [False, True, False, False]


def test_chart_domain_must_be_positive_and_finite():
    """A domain node that is +inf at a point puts it outside, as NaN does; a comparing closure is refused."""
    chart = chart_from_decl({"name": "c", "coords": ["x"], "domain": "1 / x"})
    assert chart.contains([[0.5], [0.0], [-0.5], [np.nan]]).tolist() == [True, False, False, False]
    assert chart == Chart("c", ("x",)) and hash(chart) == hash(Chart("c", ("x",)))  # the domain is not compared
    with pytest.raises(UsageError, match="do not branch on values"):
        Chart("disc", ("x", "y"), domain=(lambda c: c[0] ** 2 + c[1] ** 2 < 1.0,))
    with pytest.raises(UsageError, match="domain must be a tuple"):
        Chart("disc", ("x", "y"), (), lambda c: 1.0 - c[0] ** 2 - c[1] ** 2)


def test_chart_without_domain_accepts_everything():
    chart = chart_from_decl({"name": "c", "coords": ["x"], "box": [[0, 1]]})
    assert chart.contains((100.0,))
    assert chart.box == ((0.0, 1.0),)
    # every finite point is inside; a non-finite one is inside no chart
    batch = np.array([[100.0], [-3.0], [np.nan]])
    assert chart.contains(batch).tolist() == [chart.contains(p) for p in batch] == [True, True, False]


@pytest.mark.parametrize(
    "decl",
    [
        {"coords": ["x"]},
        {"name": "c"},
        {"name": "c", "coords": []},
        {"name": "c", "coords": [1, 2]},
    ],
)
def test_bad_chart_sections(decl):
    with pytest.raises(UsageError):
        chart_from_decl(decl)


# -------------------------------------------------------------------- forms


def test_forms_round_trip(plane):
    out = forms_from_decl(
        plane,
        {"w": {"degree": 2, "coeffs": {"0,1": "x * y"}}},
    )
    w = out["w"]
    assert w.degree == 2
    assert at(w.coeffs[(0, 1)], (0.5, 2.0)) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "key, degree, fragment",
    [
        ("0,0", 2, "strictly increasing"),
        ("1,0", 2, "strictly increasing"),
        ("0", 2, "strictly increasing"),
        ("0,5", 2, "outside the chart"),
        ("0;1", 2, "bad index key"),
    ],
)
def test_form_key_validation(plane, key, degree, fragment):
    with pytest.raises(UsageError, match=fragment):
        forms_from_decl(plane, {"w": {"degree": degree, "coeffs": {key: "1"}}})


def test_fields_check_component_count(plane):
    with pytest.raises(UsageError, match="component expressions"):
        fields_from_decl(plane, {"v": ["x"]})
    out = fields_from_decl(plane, {"v": ["-y", "x"]})
    assert at(out["v"].components[0], (0.3, 0.7)) == pytest.approx(-0.7)


# ---------------------------------------------------------------------- lcs


@pytest.fixture()
def named_forms(plane):
    return forms_from_decl(
        plane,
        {
            "area": {"degree": 2, "coeffs": {"0,1": "1"}},
            "dx": {"degree": 1, "coeffs": {"0": "1"}},
        },
    )


def test_lcs_picks_forms_by_name(plane, named_forms):
    s = lcs_from_decl(plane, named_forms, {"omega": "area", "lee": "dx"})
    assert s.omega is named_forms["area"]
    assert s.lee is named_forms["dx"]
    assert s.potential is None


@pytest.mark.parametrize(
    "decl, fragment",
    [
        ({"lee": "dx"}, "missing 'omega'"),
        ({"omega": "area", "lee": "nope"}, "unknown form"),
        ({"omega": "dx", "lee": "dx"}, "must be a 2-form"),
        ({"omega": "area", "lee": "area"}, "must be a 1-form"),
    ],
)
def test_lcs_section_errors(plane, named_forms, decl, fragment):
    with pytest.raises(UsageError, match=fragment):
        lcs_from_decl(plane, named_forms, decl)


# ------------------------------------------------------------------ actions


def test_action_assembly(plane):
    fields = fields_from_decl(plane, {"a": ["1", "0"], "b": ["0", "1"]})
    act = action_from_decl(
        plane,
        fields,
        {
            "dim": 2,
            "rho": ["a", "b"],
            "structure_constants": [],
            "elements": {"swap": {"map": ["y", "x"]}},
        },
    )
    assert act.dim == 2
    assert act.fields[0] is fields["a"]
    assert act.constants[0, 1, 0] == 0.0
    moved = at(act.elements["swap"], (0.25, -0.5))
    assert moved == pytest.approx([-0.5, 0.25])
    assert act.elements["swap"].source is plane


def test_action_unknown_generator(plane):
    with pytest.raises(UsageError, match="not a declared field"):
        action_from_decl(plane, {}, {"dim": 1, "rho": ["ghost"]})


@pytest.mark.parametrize(
    "rows, fragment",
    [
        ([[0, 1]], r"\[a, b, c, value\]"),
        ([[0, 1, 9, 2.0]], "out of range"),
        ([[0.5, 1, 0, 2.0]], "integer a, b, c"),
        ([[0, 1, 0, "2"]], "not a number"),
    ],
)
def test_structure_constant_rows(plane, rows, fragment):
    fields = fields_from_decl(plane, {"a": ["1", "0"], "b": ["0", "1"]})
    decl = {"dim": 2, "rho": ["a", "b"], "structure_constants": rows}
    with pytest.raises(UsageError, match=fragment):
        action_from_decl(plane, fields, decl)


def test_momentum_requires_a_list(plane):
    with pytest.raises(UsageError, match="nonempty list"):
        momentum_from_decl(plane, "x")
    with pytest.raises(UsageError, match="nonempty list"):
        momentum_from_decl(plane, [])


# ------------------------------------------------------------------- slices


def test_level_direction_parsing(r4):
    sl = slice_from_decl(
        r4,
        {
            "coords": ["s"],
            "map": ["s", "0", "0", "0"],
            "level_of": ["mu_1", "mu_1-mu_2", "2*mu_1+0.5*mu_3"],
        },
        momentum_dim=3,
    )
    assert sl.directions == (
        (1.0, 0.0, 0.0),
        (1.0, -1.0, 0.0),
        (2.0, 0.0, 0.5),
    )
    assert sl.parametrization.target is r4


@pytest.mark.parametrize(
    "term, fragment",
    [
        ("mu_0", "outside 1..2"),
        ("mu_3", "outside 1..2"),
        ("nu_1", "cannot parse"),
        ("mu_1*2", "cannot parse"),
    ],
)
def test_level_direction_errors(plane, term, fragment):
    decl = {"coords": ["s"], "map": ["s", "0"], "level_of": [term]}
    with pytest.raises(UsageError, match=fragment):
        slice_from_decl(plane, decl, momentum_dim=2)


def test_slice_map_arity(plane):
    decl = {"coords": ["s"], "map": ["s"], "level_of": ["mu_1"]}
    with pytest.raises(UsageError, match="slice map needs 2"):
        slice_from_decl(plane, decl, momentum_dim=1)


# -------------------------------------------------------- whole declarations


def test_full_declaration_wires_every_section():
    decl = load_declaration(load_document(FULL_DOC))
    assert decl.chart.coords == ("q", "p")
    assert set(decl.forms) == {"omega", "eta", "zero"}
    assert decl.structure is not None and decl.structure.potential is decl.forms["eta"]
    assert decl.action is not None and decl.action.dim == 1
    # "auto" defers momentum derivation to the caller
    assert decl.momentum is None
    assert decl.level_slice is not None
    assert decl.level_slice.directions == ((1.0,),)


def test_explicit_momentum_overrides_auto():
    doc = json.loads(FULL_DOC)
    doc["momentum"] = ["-p"]
    decl = load_declaration(doc)
    assert decl.momentum is not None
    assert decl.momentum.dim == 1
    assert at(decl.momentum.components[0], (0.3, 0.8)) == pytest.approx(-0.8)


def test_minimal_declaration_is_just_a_chart():
    decl = load_declaration({"chart": {"name": "line", "coords": ["t"]}})
    assert decl.chart.dim == 1
    assert decl.forms == {} and decl.fields == {}
    assert decl.structure is None and decl.action is None
    assert decl.momentum is None and decl.level_slice is None


# --------------------------------------------------------------- complexes


def test_parse_theta_text():
    weights = parse_theta_text("0,1:0.5; 1,2:-0.25;")
    assert weights == {(0, 1): 0.5, (1, 2): -0.25}
    assert parse_theta_text("") == {}


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("0,1", "bad edge weight"),
        ("0:1.0", "two vertex indices"),
        ("0,1:x", "bad edge weight value"),
        ("a,b:1", "bad index key"),
    ],
)
def test_parse_theta_errors(text, fragment):
    with pytest.raises(UsageError, match=fragment):
        parse_theta_text(text)


CIRCLE_DOC = {
    "vertices": 3,
    "simplices": [[0], [1], [2], [0, 1], [1, 2], [0, 2]],
    "theta": {"0,1": 0.4},
}


def test_complex_from_decl():
    K = complex_from_decl(CIRCLE_DOC)
    assert K.theta_of(0, 1) == pytest.approx(0.4)
    assert K.theta_of(1, 0) == pytest.approx(-0.4)
    assert K.theta_of(1, 2) == 0.0


def test_complex_theta_extra_merges_over_document_weights():
    K = complex_from_decl(CIRCLE_DOC, theta_extra={(0, 1): -0.1, (1, 2): 0.6})
    assert K.theta_of(0, 1) == pytest.approx(-0.1)
    assert K.theta_of(1, 2) == pytest.approx(0.6)


def test_complex_rejects_non_edge_theta_key():
    doc = dict(CIRCLE_DOC, theta={"0,1,2": 1.0})
    with pytest.raises(UsageError, match="not an edge"):
        complex_from_decl(doc)


# ---------------------------------------------------------------- couplings


COUPLING_DOC = {
    "base": {"name": "disk", "coords": ["u", "v"]},
    "gauge": {"A": [{"0": "v"}]},
    "fiber": json.loads(FULL_DOC),
    "momentum": "auto",
}


def test_coupling_from_decl():
    gauge, fiber, act, momentum = coupling_from_decl(COUPLING_DOC)
    assert gauge.base.coords == ("u", "v")
    assert len(gauge.potentials) == 1
    assert at(gauge.potentials[0].coeffs[(0,)], (0.2, 0.9)) == pytest.approx(0.9)
    assert fiber.chart.name == "phase"
    assert act.dim == 1
    assert momentum is None  # "auto" everywhere


def test_coupling_momentum_override():
    doc = dict(COUPLING_DOC, momentum=["-p"])
    *_, momentum = coupling_from_decl(doc)
    assert momentum is not None
    assert at(momentum.components[0], (0.0, 1.5)) == pytest.approx(-1.5)


@pytest.mark.parametrize(
    "entry, fragment",
    [
        ("v * du", "must map coordinate index"),
        ({"7": "v"}, "bad coordinate key"),
        ({"0,1": "v"}, "bad coordinate key"),
    ],
)
def test_coupling_gauge_errors(entry, fragment):
    doc = dict(COUPLING_DOC, gauge={"A": [entry]})
    with pytest.raises(UsageError, match=fragment):
        coupling_from_decl(doc)


def test_coupling_fiber_needs_structure_and_action():
    doc = dict(COUPLING_DOC, fiber={"chart": {"name": "f", "coords": ["x"]}})
    with pytest.raises(UsageError, match="'lcs' and 'action'"):
        coupling_from_decl(doc)

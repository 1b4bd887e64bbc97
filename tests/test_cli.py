"""Command-line driver: exit codes, output formats, determinism."""

import contextlib
import io
import itertools
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from lcslab.cli import MAX_POINTS, main

# Inline documents double as file contents; the loader accepts literal JSON.

GOOD_DOC = """
{
  "chart": {"name": "phase", "coords": ["q", "p"], "box": [[-2, 2], [-2, 2]]},
  "forms": {
    "omega": {"degree": 2, "coeffs": {"0,1": "-1"}},
    "eta":   {"degree": 1, "coeffs": {"0": "p"}},
    "zero":  {"degree": 1, "coeffs": {}}
  },
  "fields": {"push": ["1", "0"]},
  "lcs": {"omega": "omega", "lee": "zero", "potential": "eta"},
  "action": {"dim": 1, "rho": ["push"]},
  "momentum": "auto"
}
"""

# d omega = 0 but theta ^ omega = da^dc^dd, so the structure identity fails.
BROKEN_DOC = """
{
  "chart": {"name": "r4", "coords": ["a", "b", "c", "d"]},
  "forms": {
    "omega": {"degree": 2, "coeffs": {"0,1": "1 + a^2", "2,3": "1"}},
    "lee":   {"degree": 1, "coeffs": {"0": "1"}}
  },
  "lcs": {"omega": "omega", "lee": "lee"}
}
"""

CIRCLE_DOC = json.dumps(
    {
        "vertices": 3,
        "simplices": [[0], [1], [2], [0, 1], [1, 2], [0, 2]],
    }
)

REDUCE_DOC = """
{
  "chart": {"name": "phase4", "coords": ["q1", "p1", "q2", "p2"]},
  "forms": {
    "omega": {"degree": 2, "coeffs": {"0,1": "-1", "2,3": "-1"}},
    "eta":   {"degree": 1, "coeffs": {"0": "p1", "2": "p2"}},
    "zero":  {"degree": 1, "coeffs": {}}
  },
  "fields": {"push": ["1", "0", "0", "0"]},
  "lcs": {"omega": "omega", "lee": "zero", "potential": "eta"},
  "action": {
    "dim": 1,
    "rho": ["push"],
    "elements": {"slide": {"map": ["q1 + 1", "p1", "q2", "p2"]}}
  },
  "momentum": "auto",
  "slice": {"coords": ["s1", "s2"], "map": ["0", "0", "s1", "s2"], "level_of": ["mu_1"]}
}
"""

COUPLING_DOC = json.dumps(
    {
        "base": {"name": "disk", "coords": ["u", "v"]},
        "gauge": {"A": [{"0": "v"}]},
        "fiber": json.loads(GOOD_DOC),
        "momentum": "auto",
    }
)


# sqrt(u) is undefined on half of the default sampling box
SINGULAR_COUPLING_DOC = json.dumps(
    {
        "base": {"name": "disk", "coords": ["u", "v"]},
        "gauge": {"A": [{"0": "v", "1": "sqrt(u)"}]},
        "fiber": json.loads(GOOD_DOC),
        "momentum": "auto",
    }
)


@pytest.fixture(autouse=True)
def _no_seed_env(monkeypatch):
    monkeypatch.delenv("LCSLAB_SEED", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------- verify


def test_verify_passes(capsys):
    code, out, err = run(capsys, "verify", GOOD_DOC, "--points", "24")
    assert code == 0
    assert err == ""
    assert "momentum[0]" in out
    assert ", 0 failed" in out


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "verify", GOOD_DOC, "--points", "24", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"config", "reports", "summary"}
    assert doc["summary"]["verdict"] == "pass"
    assert doc["config"]["command"] == "verify"
    assert set(doc["reports"]) == {"lcs", "momentum"}
    ids = [c["id"] for c in doc["reports"]["lcs"]["checks"]]
    assert "lcs-identity" in ids and "nondegenerate" in ids


def test_verify_reports_failures_with_exit_1(capsys):
    code, out, _ = run(capsys, "verify", BROKEN_DOC, "--points", "24")
    assert code == 1
    assert "lcs-identity" in out
    assert "fail" in out


def test_verify_needs_an_lcs_section(capsys):
    code, _, err = run(capsys, "verify", '{"chart": {"name": "c", "coords": ["x"]}}')
    assert code == 2
    assert "error:" in err and "lcs" in err


def test_a_long_coefficient_keeps_the_verdicts_of_its_short_form(capsys):
    """A 3,000-term coefficient (a DAG 3,000 deep) is verified like its sum written short."""
    long_doc = json.loads(GOOD_DOC)
    long_doc["forms"]["eta"]["coeffs"]["0"] = " + ".join(["p"] + ["0 * q"] * 2999)
    code, out, err = run(capsys, "verify", json.dumps(long_doc), "--points", "24", "--format", "json")
    want_code, want, _ = run(capsys, "verify", GOOD_DOC, "--points", "24", "--format", "json")
    assert code == want_code == 0 and err == ""

    def verdicts(text):
        return {(name, c["id"]): c["verdict"] for name, r in json.loads(text)["reports"].items() for c in r["checks"]}

    assert verdicts(out) == verdicts(want)


def test_deeply_nested_coefficient_exits_2(capsys):
    doc = json.loads(GOOD_DOC)
    doc["forms"]["eta"]["coeffs"]["0"] = "(" * 2000 + "p" + ")" * 2000
    code, out, err = run(capsys, "verify", json.dumps(doc))
    assert code == 2 and out == ""
    assert "nests deeper" in err and "Traceback" not in err


def test_malformed_document_exits_2(capsys):
    code, out, err = run(capsys, "verify", '{"chart": }')
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def with_entry(doc: str, path: tuple, value) -> str:
    """``doc`` with the entry at ``path`` (keys into nested objects) set to ``value``."""
    root = node = json.loads(doc)
    *head, last = path
    for key in head:
        node = node[key]
    node[last] = value
    return json.dumps(root)


ELEMENT_DOC = with_entry(GOOD_DOC, ("action", "elements"), {"g": {"map": ["q + 1", "p"]}})

MALFORMED_DOCS = {
    "nested-arrays": '{"chart": ' + "[" * 100_000 + "]" * 100_000 + "}",
    "box-one-pair": with_entry(GOOD_DOC, ("chart", "box"), [[0, 1]]),
    "box-not-a-number": with_entry(GOOD_DOC, ("chart", "box"), [["a", 1], [0, 1]]),
    "box-a-number": with_entry(GOOD_DOC, ("chart", "box"), 3),
    "box-reversed": with_entry(GOOD_DOC, ("chart", "box"), [[1, 0], [0, 1]]),
    "box-nan": with_entry(GOOD_DOC, ("chart", "box"), [["nan", 1], [0, 1]]),
    "box-infinite": with_entry(GOOD_DOC, ("chart", "box"), [[0, 1], [0, math.inf]]),
    "coefficient-a-number": with_entry(GOOD_DOC, ("forms", "omega", "coeffs"), {"0,1": 1}),
    "field-numbers": with_entry(GOOD_DOC, ("fields", "push"), [1, 2]),
    "momentum-numbers": with_entry(GOOD_DOC, ("momentum",), [1]),
    "element-numbers": with_entry(ELEMENT_DOC, ("action", "elements", "g", "map"), [1, 2]),
    "forms-a-list": with_entry(GOOD_DOC, ("forms",), []),
    "lcs-a-list": with_entry(GOOD_DOC, ("lcs",), [1]),
    "elements-a-list": with_entry(GOOD_DOC, ("action", "elements"), [1]),
    "constants-row-not-a-number": with_entry(GOOD_DOC, ("action", "structure_constants"), [["a", 0, 0, 1]]),
    "constants-a-number": with_entry(GOOD_DOC, ("action", "structure_constants"), 5),
    "constants-not-finite": with_entry(GOOD_DOC, ("action", "structure_constants"), [[0, 0, 0, math.nan]]),
    # a structure that verifies, but its second coordinate can never be named
    "coordinate-twice": with_entry(
        with_entry(BROKEN_DOC, ("chart", "coords"), ["q", "q", "c", "d"]), ("forms", "lee", "coeffs"), {}
    ).replace("1 + a^2", "1 + q^2"),
}


MALFORMED = {
    "verify": MALFORMED_DOCS,
    "cohomology": {
        "simplex-a-number": with_entry(CIRCLE_DOC, ("simplices",), [[0], [1], 2]),
        "simplex-not-a-vertex": with_entry(CIRCLE_DOC, ("simplices",), [[0], ["a", 1]]),
    },
    "reduce": {"slice-coordinate-not-a-name": with_entry(REDUCE_DOC, ("slice", "coords"), [[1], "s2"])},
}


@pytest.mark.parametrize("command, name", [(c, name) for c, docs in MALFORMED.items() for name in sorted(docs)])
def test_malformed_declaration_exits_2(capsys, command, name):
    """Each document is malformed in one place and ends in exit 2 with one short error line."""
    code, out, err = run(capsys, command, MALFORMED[command][name], "--points", "8")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and len(err) < 200


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "none.json"))
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize(
    "flags",
    [
        ("--points", "0"),
        ("--tol", "0"),
        ("--tol", "-1e-8"),
        ("--tol", "nan"),
        ("--tol", "inf"),
        ("--seed", "-1"),
        ("--points", str(MAX_POINTS + 1)),  # refused before anything is sampled or allocated
        ("--points", "99999999999999999999"),
    ],
)
def test_flag_validation(capsys, flags):
    code, _, err = run(capsys, "verify", GOOD_DOC, *flags)
    assert code == 2
    assert err.count("error:") == 1


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    capsys.readouterr()  # argparse noise


# ----------------------------------------------------------- seeds and bytes


def test_seed_defaults_to_environment(capsys, monkeypatch):
    monkeypatch.setenv("LCSLAB_SEED", "7")
    _, out, _ = run(capsys, "verify", GOOD_DOC, "--points", "8", "--format", "json")
    assert json.loads(out)["config"]["seed"] == 7


def test_seed_flag_beats_environment(capsys, monkeypatch):
    monkeypatch.setenv("LCSLAB_SEED", "7")
    _, out, _ = run(capsys, "verify", GOOD_DOC, "--points", "8", "--seed", "3", "--format", "json")
    assert json.loads(out)["config"]["seed"] == 3


def test_bad_seed_environment(capsys, monkeypatch):
    for value in ("pickle", "-1"):
        monkeypatch.setenv("LCSLAB_SEED", value)
        code, out, err = run(capsys, "verify", GOOD_DOC)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "LCSLAB_SEED" in err


def test_json_output_is_byte_identical_across_runs(capsys):
    argv = ("verify", GOOD_DOC, "--points", "32", "--seed", "5", "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


# ----------------------------------------------------------------- cohomology


def test_cohomology_text_leads_with_betti(capsys):
    code, out, _ = run(capsys, "cohomology", CIRCLE_DOC)
    assert code == 0
    assert out.startswith("betti: 1 1\n")
    assert "delta-squared[0]" in out


def test_cohomology_theta_override(capsys):
    """Nonzero holonomy on the loop kills both cohomology groups."""
    code, out, _ = run(capsys, "cohomology", CIRCLE_DOC, "--theta", "0,1:0.4")
    assert code == 0
    assert out.startswith("betti: 0 0\n")


def test_cohomology_json_config(capsys):
    _, out, _ = run(capsys, "cohomology", CIRCLE_DOC, "--format", "json")
    doc = json.loads(out)
    assert doc["config"]["betti"] == [1, 1]
    assert doc["summary"]["verdict"] == "pass"


def test_cohomology_builds_each_coboundary_once(capsys, monkeypatch):
    """``betti`` and the ``delta-squared`` rows share one sparse coboundary per degree; nothing is densified."""
    import numpy as np

    from lcslab import cohomology

    built = []
    build = cohomology._coboundary_entries
    monkeypatch.setattr(cohomology, "_coboundary_entries", lambda K, k: built.append(k) or build(K, k))

    def forbidden(*args, **kwargs):
        raise AssertionError("the cohomology command builds no dense matrix and takes no SVD")

    monkeypatch.setattr(cohomology, "twisted_coboundary", forbidden)
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    monkeypatch.setattr(np.linalg, "matrix_rank", forbidden)
    faces = [list(s) for k in (1, 2, 3) for s in itertools.combinations(range(4), k)]
    sphere = json.dumps({"vertices": 4, "simplices": faces})  # the boundary of a tetrahedron
    _, out, _ = run(capsys, "cohomology", sphere, "--format", "json")
    doc = json.loads(out)
    assert sorted(built) == [0, 1, 2]
    assert doc["config"]["betti"] == [1, 0, 1]
    rows = {c["id"]: c for c in doc["reports"]["cohomology"]["checks"]}
    assert [rows[f"delta-squared[{k}]"]["residual"] for k in range(2)] == [0.0, 0.0]


@pytest.mark.parametrize("weight", [1000, -1000, 709.8, "nan", "inf", "-inf", "x", [1], True, False])
def test_cohomology_rejects_unusable_edge_weight(capsys, weight):
    """A weight whose exponential is not a positive finite number is a validation error (exit 2)."""
    doc = json.loads(CIRCLE_DOC)
    doc["theta"] = {"0,1": weight}
    code, out, err = run(capsys, "cohomology", json.dumps(doc))
    assert code == 2 and out == ""
    assert "edge weight" in err and "Traceback" not in err


@pytest.mark.parametrize("weight", ["1000", "-1000", "nan", "inf", "-inf"])
def test_cohomology_rejects_unusable_theta_option(capsys, weight):
    code, out, err = run(capsys, "cohomology", CIRCLE_DOC, "--theta", f"0,1:{weight}")
    assert code == 2 and out == ""
    assert "edge weight" in err


# -------------------------------------------------------------------- gallery


def test_list_names_every_example(capsys):
    code, out, _ = run(capsys, "list")
    for name in ("cotangent", "coupling-s2", "hopf", "inoue"):
        assert name in out
    assert code == 0


def test_example_summary_without_run(capsys):
    code, out, _ = run(capsys, "example", "hopf")
    assert code == 0
    assert "use --run to execute" in out
    assert "runs:" in out


def test_example_run_matches_expectations(capsys):
    code, out, _ = run(capsys, "example", "hopf", "--run", "--points", "16")
    assert code == 0
    matched = [line for line in out.splitlines() if line.startswith("expected outcomes:")]
    assert len(matched) == 1
    n = matched[0].split()[-2]  # "expected outcomes: K/K matched"
    met, total = n.split("/")
    assert met == total


def test_example_run_json_keeps_obstruction_green(capsys):
    code, out, _ = run(capsys, "example", "inoue", "--run", "--points", "16", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    descent = {c["id"]: c for c in doc["reports"]["descent"]["checks"]}
    assert descent["a[g2]"]["verdict"] == "obstructed"
    expected = doc["reports"]["expected"]
    assert expected["summary"]["failed"] == 0


def test_example_rejects_bad_weights(capsys):
    code, _, err = run(capsys, "example", "hopf", "--weights", "1,x", "--run")
    assert code == 2
    assert "--weights" in err


@pytest.mark.parametrize(
    "example, flag, value, name",
    [
        ("hopf", "--weights", "1,inf", "weights"),
        ("hopf", "--weights", "1,nan", "weights"),
        ("coupling-s2", "--weights", "1,inf", "weights"),
        ("inoue", "--alpha", "nan", "alpha"),
        ("inoue", "--alpha", "inf", "alpha"),
        ("cotangent", "--scale", "nan", "scale"),
        ("cotangent", "--scale", "inf", "scale"),
    ],
)
def test_example_rejects_non_finite_parameters(capsys, example, flag, value, name):
    code, out, err = run(capsys, "example", example, f"{flag}={value}", "--run", "--format", "json")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {name} must be finite")


# --------------------------------------------------------- coupling / reduce


def test_coupling_document_passes(capsys):
    code, out, _ = run(capsys, "coupling", COUPLING_DOC, "--points", "16")
    assert code == 0
    assert "closed[vvv]" in out
    assert "bianchi" in out.lower()


def test_singular_coupling_document_keeps_the_exit_code_contract(capsys):
    """Non-finite sample points are skipped and counted; they never make a row pass."""
    code, out, err = run(capsys, "coupling", SINGULAR_COUPLING_DOC, "--format", "json")
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "Warning" not in err
    rows = [c for rep in json.loads(out)["reports"].values() for c in rep["checks"]]
    for row in rows:
        if row["verdict"] != "pass":
            continue
        assert row["residual"] != "nan", row["id"]
        details = row.get("details", {})
        assert details.get("skipped", 0) <= 0.2 * details.get("points", 64), row["id"]
    by_id = {row["id"]: row for row in rows}
    for row_id in [f"closed[{p}]" for p in ("vvv", "vvh", "vhv", "hvv", "vhh", "hvh", "hhv", "hhh")] + [
        "hor-vert",
        "lift-bracket",
    ]:
        assert by_id[row_id]["verdict"] == "inconclusive", row_id
        assert by_id[row_id]["details"]["skipped"] > 0.2 * by_id[row_id]["details"]["points"], row_id


def test_reduce_document_passes(capsys):
    code, out, _ = run(capsys, "reduce", REDUCE_DOC, "--points", "24", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["reports"]) == {"reduction", "invariant"}
    ids = [c["id"] for c in doc["reports"]["reduction"]["checks"]]
    assert "reduced-closed" in ids and "level[0]" in ids


def test_reduce_needs_all_sections(capsys):
    code, _, err = run(capsys, "reduce", GOOD_DOC)
    assert code == 2
    assert "slice" in err


# ---------------------------------------------- singular documents, any command


def singular_document(command: str, site: str, fn: str) -> str:
    """``REDUCE_DOC`` (as the fiber of a coupling) with ``fn`` of a sign-changing argument at ``site``."""
    doc = json.loads(REDUCE_DOC)
    if site == "omega":
        doc["forms"]["omega"]["coeffs"]["2,3"] = f"-1 - 0.1 * {fn}(q2)"
    elif site == "eta":
        doc["forms"]["eta"]["coeffs"]["2"] = f"p2 + 0.1 * {fn}(q2)"
    elif site == "slice":
        doc["slice"]["map"][3] = f"{fn}(s2)"
    elif site == "element":
        doc["action"]["elements"]["slide"]["map"][3] = f"{fn}(p2)"
    elif site == "domain":
        doc["chart"]["domain"] = f"{fn}(q2) + 1"
    if command == "coupling":
        gauge = {"0": "v", "1": f"{fn}(u)" if site == "gauge" else "0"}
        base = {"name": "disk", "coords": ["u", "v"]}
        doc = {"base": base, "gauge": {"A": [gauge]}, "fiber": doc, "momentum": "auto"}
    return json.dumps(doc)


@settings(
    derandomize=True, max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    command=st.sampled_from(("verify", "reduce", "coupling")),
    site=st.sampled_from(("omega", "eta", "slice", "element", "gauge", "domain")),
    fn=st.sampled_from(("sqrt", "log")),
)
def test_singular_documents_keep_the_exit_code_contract(command, site, fn):
    """Expressions undefined on part of the box never crash, warn or pass on non-finite points."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")  # a warning escaping the evaluation boundary fails the test
        code = main([command, singular_document(command, site, fn), "--points", "32", "--format", "json"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    if code == 2:
        return
    for rep in json.loads(out.getvalue())["reports"].values():
        for row in rep["checks"]:
            if row["verdict"] != "pass":
                continue
            assert row["residual"] != "nan", row["id"]
            details = row.get("details", {})
            assert details.get("skipped", 0) <= 0.2 * details.get("points", 32), row["id"]


def test_log_potential_fails_the_precondition_like_sqrt(capsys):
    """The derivative of log is non-finite wherever log is, as that of sqrt is.

    So a potential with ``log(q2)`` is skipped where ``q2 < 0`` and fails the
    momentum precondition exactly as the ``sqrt(q2)`` document does.
    """
    outcomes = {}
    for fn in ("sqrt", "log"):
        code, _, err = run(capsys, "verify", singular_document("verify", "eta", fn), "--points", "32")
        outcomes[fn] = (code, err)
    assert outcomes["log"] == outcomes["sqrt"]
    assert outcomes["log"][0] == 2 and "potential is not invariant enough" in outcomes["log"][1]

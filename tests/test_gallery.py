"""The worked examples: construction guards, frozen values, expectations."""

import dataclasses
import gc
import importlib.util
import pathlib
import weakref

import numpy as np
import pytest

from lcslab import cli, dual, gallery, reduction
from lcslab.errors import NotHomothetyError, UsageError
from lcslab.forms import contract, pullback
from lcslab.gallery import (
    GALLERY,
    Expectation,
    cotangent,
    coupling_example_s2,
    evaluate_manifest,
    hopf,
    inoue,
    run_manifest,
    _hopf_torus_slice,
)
from tests.pointwise import at

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_gallery_names():
    assert set(GALLERY) == {"hopf", "inoue", "cotangent", "coupling-s2"}
    for fn in GALLERY.values():
        assert callable(fn)


# -- construction guards ----------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 1},
        {"n": 2, "weights": (1.0,)},
        {"n": 2, "weights": (2.0, 1.0)},
        {"n": 2, "weights": (-1.0, 1.0)},
    ],
)
def test_hopf_rejects_bad_parameters(kwargs):
    with pytest.raises(UsageError):
        hopf(**kwargs)


def test_inoue_rejects_weak_expansion():
    with pytest.raises(UsageError, match="exceed 1"):
        inoue(alpha=1.0)


# -- frozen values ----------------------------------------------------------


def test_hopf_pole_momentum():
    man = hopf(2, (1.0, 2.0))
    mu, pole = man.objects["momentum"], man.objects["pole"]
    assert at(mu.components[0], pole) == pytest.approx(1.0, abs=1e-14)
    assert at(mu.components[1], pole) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize(
    "weights, coefficient",
    [((1.0, 1.0), 1.0), ((1.0, 2.0), 2.0 / 3.0), ((2.0, 3.0), 0.4)],
)
def test_reduced_coefficient_value(weights, coefficient):
    """Pulling the 2-form back to the diagonal-difference slice.

    On the slice the reduced form is (2 / (a1 + a2)) dtau^dsigma; the value
    was derived by hand from the chart potential and cross-checked at three
    weight choices.
    """
    man = hopf(2, weights)
    slc = _hopf_torus_slice(man.objects["chart"])
    omega_s = pullback(slc.parametrization, man.objects["structure"].omega)
    vals = [
        at(omega_s.coefficient((0, 1)), p)
        for p in slc.parametrization.source.sample(16, seed=2)
    ]
    np.testing.assert_allclose(vals, coefficient, atol=1e-10)


def test_hopf_momentum_sum_bounded_below():
    man = hopf(2, (1.0, 2.0))
    mu, chart = man.objects["momentum"], man.objects["chart"]
    total = mu.components[0] + mu.components[1]
    vals = [at(total, p) for p in chart.sample(128, seed=1)]
    assert min(vals) >= 1.0 / 2.0  # 1/max weight


# -- manifest runs ----------------------------------------------------------


def test_hopf_manifest_meets_expectations():
    man = hopf(2, (1.0, 2.0))
    verdicts = evaluate_manifest(man, run_manifest(man, points=24, seed=0))
    assert verdicts.passed
    assert len(verdicts.checks) == len(man.expected)


def test_hopf_scan_expects_empty_level():
    man = hopf(2, (1.0, 1.0))
    rep = man.runs["scan"](64, 0, 1e-8)
    assert rep["zero-level"].verdict == "no zero level in chart"
    assert rep["zero-level"].residual >= 1.0 - 1e-9  # min of mu1+mu2 is 1/max weight


def test_inoue_manifest_meets_expectations():
    man = inoue()
    verdicts = evaluate_manifest(man, run_manifest(man, points=24, seed=0))
    assert verdicts.passed
    # the descent candidate is genuinely obstructed, and that is *expected*
    row = verdicts["descent.a[g2]"]
    assert row.verdict == "obstructed"
    assert row.passed


def test_inoue_descent_obstruction_magnitude():
    man = inoue()
    rep = man.runs["descent"](32, 0, 1e-8)
    assert rep["a[g2]"].verdict == "obstructed"
    assert rep["a[g2]"].residual > 0.1


@pytest.fixture
def deck_fits(monkeypatch) -> list:
    """The names of the deck maps fitted during the test, one per ``deck_homothety`` call of the gallery."""
    fitted = []
    fit = gallery.deck_homothety

    def recorded(gamma, Omega, points, tol, name):
        fitted.append(name)
        return fit(gamma, Omega, points, tol, name)

    monkeypatch.setattr(gallery, "deck_homothety", recorded)
    return fitted


def test_inoue_fits_its_deck_maps_once_per_draw_and_tol(deck_fits):
    """inoue's ``decks``, ``automorphic`` and ``descent`` runs share one fit of each deck map per draw and tol.

    A cold 64-point pass, seed 1, fits the four maps once (12 fits when each
    run fitted its own); a warm pass fits none, and another tol or point
    count fits four more.  The counts do not depend on the machine.
    """
    man = inoue()
    fits = []
    for points, tol in [(64, 1e-8), (64, 1e-8), (64, 1e-9), (128, 1e-8)]:
        deck_fits.clear()
        run_manifest(man, points=points, seed=1, tol=tol)
        fits.append(sorted(deck_fits))
    assert fits == [["g0", "g1", "g2", "g3"], [], ["g0", "g1", "g2", "g3"], ["g0", "g1", "g2", "g3"]]


def test_a_failed_deck_fit_is_not_kept(deck_fits):
    """A fit that raises is made again on the next call, and raises again."""
    run = inoue().runs["decks"]
    made = []
    for _ in range(2):
        deck_fits.clear()
        with pytest.raises(NotHomothetyError):
            run(64, 1, 1e-16)
        made.append(list(deck_fits))
    assert made[0] and made[1] == made[0]


@pytest.mark.parametrize("m, n_expected", [(1, 4), (2, 8)])
def test_cotangent_manifest(m, n_expected):
    man = cotangent(m)
    assert len(man.expected) == n_expected
    verdicts = evaluate_manifest(man, run_manifest(man, points=24, seed=0))
    assert verdicts.passed


def test_cotangent_derived_momentum_matches_closed_form():
    man = cotangent(2)
    rep = man.runs["momentum"](32, 0, 1e-8)
    assert rep["closed-form"].residual < 1e-12


def test_hopf4_restriction():
    man = hopf(4, (1.0, 1.0, 1.5, 2.0))
    assert "restriction" in man.runs
    rep = man.runs["restriction"](16, 0, 1e-8)
    assert rep["restriction"].passed


def test_hopf4_structure_verifies():
    man = hopf(4, (1.0, 1.0, 1.0, 1.0))
    rep = man.runs["lcs"](16, 0, 1e-8)
    assert rep.passed


# -- the bundle example -----------------------------------------------------


@pytest.fixture(scope="module")
def s2_reports():
    man = coupling_example_s2()
    return man, run_manifest(man, points=64, seed=0)


def test_coupling_manifest_meets_expectations(s2_reports):
    man, reports = s2_reports
    verdicts = evaluate_manifest(man, reports)
    assert verdicts.passed
    assert len(verdicts.checks) == len(man.expected)


def test_zero_gauge_fatness_fails_by_design(s2_reports):
    man, reports = s2_reports
    assert not reports["fatness-zero"]["fat"].passed
    assert reports["fatness"]["fat"].passed
    assert evaluate_manifest(man, reports)["fatness-zero.fat"].passed


def test_coupling_reduction_cross_terms_vanish(s2_reports):
    _, reports = s2_reports
    rep = reports["reduction"]
    assert rep["product-cross"].residual == 0.0
    assert rep["product-fiber"].residual == 0.0
    assert rep["product-base"].verdict == "recorded"


# -- evaluation plumbing ----------------------------------------------------


def test_evaluate_rejects_unknown_run():
    man = cotangent(1)
    broken = dataclasses.replace(man, expected=(Expectation("nope", "x"),))
    with pytest.raises(UsageError, match="unknown run"):
        evaluate_manifest(broken, run_manifest(man, points=8))


def test_evaluate_rejects_unknown_check():
    man = cotangent(1)
    broken = dataclasses.replace(man, expected=(Expectation("lcs", "no-such-row"),))
    with pytest.raises(UsageError, match="unknown check"):
        evaluate_manifest(broken, run_manifest(man, points=8))


def test_expectation_defaults_to_pass():
    assert Expectation("r", "c").verdict == "pass"


def test_a_warm_pass_of_the_large_certificate_manifests_builds_few_tapes(built_tapes):
    """Tapes built by a second pass of hopf(2), hopf(4), inoue and cotangent(2) at 64 points: none (33 at first, then 6).

    The certificate's derived forms are kept with its structure, action and
    momentum, hopf(4)'s ``restriction`` builds its charts and maps with the
    manifest, and the slice's combined generators and momenta (hopf(2)'s
    ``reduce`` and ``scan``) and a momentum derived from a potential
    (cotangent(2)'s ``momentum``) are kept with the action or momentum they
    combine, so no run builds one.  The counts do not depend on the machine.
    """
    manifests = [hopf(2, (1.0, 1.0)), hopf(4, (1.0, 1.0, 1.0, 1.0)), inoue(), cotangent(m=2)]
    for man in manifests:  # cold
        run_manifest(man, points=64, seed=1, tol=1e-8)
    built = {}
    for man in manifests:
        for key, run in man.runs.items():
            built_tapes.clear()
            run(64, 1, 1e-8)
            built[f"{man.name}.{key}"] = len(built_tapes)
    assert sum(built.values()) == 0, built


# Replays in a warm 64-point pass, seed 1: once per point set, again only on points a replay computed.
# inoue keeps its deck fits with the deck box's draw, so a warm pass replays none of them (23 when it fitted again).
# With a replay per row they were 37, 23, 24, 58 and 5.
WARM_REPLAYS = {"coupling-s2": 17, "hopf2": 11, "hopf4": 9, "inoue": 11, "cotangent2": 3}


def test_a_warm_pass_replays_once_per_point_set(replayed_tapes):
    """Tape replays in a second pass of coupling-s2, hopf(2, (1, 2)), hopf(4), inoue and cotangent(2) at 64 points.

    A check gathers every form, field and jet it reads on one batch into
    one replay; a second replay runs only on points the first computed, such
    as a map's images (and the chart's domain test on them).  The counts do
    not depend on the machine.
    """
    manifests = [coupling_example_s2(), hopf(2, (1.0, 2.0)), hopf(4, (1.0,) * 4), inoue(), cotangent(m=2)]
    replays = {}
    for man in manifests:
        run_manifest(man, points=64, seed=1, tol=1e-8)  # cold
        replayed_tapes.clear()
        run_manifest(man, points=64, seed=1, tol=1e-8)
        replays[man.name] = len(replayed_tapes)
    assert all(replays[name] <= limit for name, limit in WARM_REPLAYS.items()), replays


def gallery_configs() -> list:
    """The manifests of every gallery configuration that ``scripts/output_digest.py`` runs, by their options."""
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPTS / "output_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    configs = [cli._build_parser().parse_args(["example", *config]) for config in digest.GALLERY_CONFIGS]
    return [(" ".join(c), GALLERY[a.name](**cli._manifest_kwargs(a))) for c, a in zip(digest.GALLERY_CONFIGS, configs)]


def test_a_warm_pass_of_every_gallery_configuration_builds_nothing(built_nodes, built_tapes, substituted_tapes):
    """A second pass of every configuration at 64 points, seed 1, creates no node, builds no tape and substitutes none.

    What a check derives from fixed inputs is kept with what it derives from:
    the exterior operations with their operands, the coupling's embedded
    fiber data with the coupling chart, a slice's combined generators and
    momenta with the action or momentum, and a momentum derived from a
    potential with the potential and the generator.  The counts do not
    depend on the machine.
    """
    warm = {}
    for name, man in gallery_configs():
        run_manifest(man, points=64, seed=1, tol=1e-8)  # cold
        for record in (built_nodes, built_tapes, substituted_tapes):
            record.clear()
        run_manifest(man, points=64, seed=1, tol=1e-8)
        warm[name] = len(built_nodes), len(built_tapes), len(substituted_tapes)
    assert len(warm) == 11 and set(warm.values()) == {(0, 0, 0)}, warm


def test_kept_objects_die_with_what_they_derive_from():
    """The coupling's embedded fiber data, a slice's combined fields and a derived momentum go with their owners."""
    man = coupling_example_s2()
    run_manifest(man, points=16, seed=1, tol=1e-8)
    c, slc = man.objects["coupling"], man.objects["zero_slice"]
    kept = [*c.fiber_forms, *c.fiber_generators, *c.fiber_momenta]
    kept += [reduction._combined_generator(c.action, v) for v in slc.directions]
    kept += [reduction._combined_momentum(c.momentum, v) for v in slc.directions]
    cot = cotangent(m=2)
    run_manifest(cot, points=16, seed=1, tol=1e-8)
    kept.append(-contract(cot.objects["structure"].potential, cot.objects["action"].fields[0]))
    refs = [weakref.ref(x) for x in kept]
    assert len(refs) == 7 and all(r() is not None for r in refs)
    del man, c, slc, cot, kept
    gc.collect()
    assert [r() for r in refs if r() is not None] == []


def test_a_warm_pass_of_the_gallery_draws_no_sample(drawn_samples):
    """A second pass of hopf(2), hopf(4), inoue, cotangent(2) and coupling-s2 at 64 points draws nothing: each chart kept its draws."""
    manifests = [hopf(2, (1.0, 1.0)), hopf(4, (1.0, 1.0, 1.0, 1.0)), inoue(), cotangent(m=2), coupling_example_s2()]
    for man in manifests:  # cold
        run_manifest(man, points=64, seed=1, tol=1e-8)
    assert len(drawn_samples) >= len(manifests)
    drawn_samples.clear()
    for man in manifests:
        run_manifest(man, points=64, seed=1, tol=1e-8)
    assert drawn_samples == []


def test_a_gallery_pass_constructs_few_scalar_fields(built_fields):
    """Forms and fields hold nodes, so a pass wraps only what it hands out as a field.

    A cold pass of hopf(4) at 64 points constructs the four contractions of
    its ``restriction`` run; a warm pass of coupling-s2 none, since its
    pulled-back and combined momenta are kept with the coupling chart and
    the momentum (it constructed those 2 when they were built per call).
    The counts do not depend on the machine.
    """
    man = hopf(4, (1.0, 1.0, 1.0, 1.0))
    built_fields.clear()
    run_manifest(man, points=64, seed=0, tol=1e-8)
    assert len(built_fields) <= 4, built_fields
    man = coupling_example_s2()
    run_manifest(man, points=64, seed=0, tol=1e-8)
    built_fields.clear()
    run_manifest(man, points=64, seed=0, tol=1e-8)
    assert built_fields == []


def test_no_kept_tape_copies_a_constant(built_tapes):
    """A constant root fills its row as a number does, so no tape a gallery pass keeps spends a step copying one."""
    manifests = [hopf(2, (1.0, 2.0)), hopf(4, (1.0, 1.0, 1.0, 1.0)), inoue(), cotangent(m=2), coupling_example_s2()]
    for man in manifests:
        run_manifest(man, points=64, seed=1, tol=1e-8)
    keys = {tuple(map(id, roots)) for roots in built_tapes}
    tapes = [entry[0] for key, entry in dual._TAPES.items() if key in keys]
    assert len(tapes) > 20
    copies = [(t, s[2]) for t in tapes for s in t.program if s[0] is np.positive]
    assert [k for t, k in copies if k < 0 and t.tail[k] is not None] == []

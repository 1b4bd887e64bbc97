"""Wired example geometries and their expected-outcome manifests.

Each builder returns an :class:`ExampleManifest`: the charts, forms, actions
and slices of one worked example, a dict of runnable verification suites, and
the list of outcomes those suites are expected to produce.  The CLI executes
manifests; the test suite reaches into ``objects`` for sharper assertions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

import numpy as np

from . import dual
from .actions import (
    ActionSpec,
    MomentumMap,
    automorphic_constants,
    deck_homothety,
    momentum_from_potential,
    verify_twisted_hamiltonian,
)
from .charts import Chart
from .coupling import (
    CouplingChart,
    GaugeChart,
    build_coupling,
    circle_fat_from_symplectic,
    conjugate_structure,
    fatness_check,
    horizontal_nijenhuis_identity,
    lift_bracket_diagnostic,
    product_chart,
    rotation_structure,
    verify_coupling,
)
from .errors import UsageError
from .forms import (
    DifferentialForm,
    ScalarField,
    SmoothMap,
    VectorField,
    basis_vector,
    constant,
    coordinate,
    exterior_derivative,
    interior_product,
    pullback,
)
from .lcs import LCSStructure, solve_lee_form, twisted_derivative, verify_lcs
from .reduction import (
    LevelSlice,
    bundle_momentum_check,
    invariant_hamiltonian_check,
    level_scan,
    product_split_check,
    reduced_form_check,
)
from .report import DEFAULT_POINTS, DEFAULT_TOL, CheckResult, Report, batch_values, demote_if_sparse, residual_row
from .report import scaled_residuals

# a string forward reference: typing caches the alias, and with the class in it
# every earlier import of this package would stay alive
RunFn = Callable[[int, int, float], "Report"]


class Expectation(NamedTuple):
    report: str
    check: str
    verdict: str = "pass"


@dataclass(frozen=True)
class ExampleManifest:
    name: str
    params: Mapping
    objects: Mapping
    runs: Mapping[str, RunFn]
    expected: tuple[Expectation, ...]

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        object.__setattr__(self, "objects", MappingProxyType(dict(self.objects)))
        object.__setattr__(self, "runs", MappingProxyType(dict(self.runs)))


def run_manifest(man: ExampleManifest, points: int = DEFAULT_POINTS, seed: int = 0, tol: float = DEFAULT_TOL):
    return {key: fn(points, seed, tol) for key, fn in man.runs.items()}


def evaluate_manifest(man: ExampleManifest, reports: Mapping[str, Report]) -> Report:
    """One row per expected outcome; a row passes when the verdict matches."""
    out = Report(f"{man.name}:expected")
    for exp in man.expected:
        if exp.report not in reports:
            raise UsageError(f"expected entry names unknown run {exp.report!r}")
        rep = reports[exp.report]
        try:
            row = rep[exp.check]
        except KeyError:
            raise UsageError(
                f"expected entry names unknown check {exp.check!r} in run {exp.report!r}"
            ) from None
        out.add(
            CheckResult(
                f"{exp.report}.{exp.check}",
                row.claim,
                row.residual,
                row.threshold,
                row.verdict == exp.verdict,
                row.verdict,
                {"expected": exp.verdict, **row.details},
            )
        )
    return out


def _require_finite(**params) -> None:
    """Refuse a NaN or infinite gallery parameter, by name."""
    for name, value in params.items():
        if not np.isfinite(value).all():
            raise UsageError(f"{name} must be finite, got {value!r}")


# --------------------------------------------------------------------------
# Hopf examples: S^1 x S^{2n-1} with weighted contact potentials


def _sphere_coords(n: int) -> tuple[str, ...]:
    names = []
    for i in range(1, n):
        names += [f"x{i}", f"y{i}"]
    names.append(f"x{n}")
    return tuple(names)


def _hopf_chart(n: int) -> Chart:
    k = 2 * n - 1
    half = 1.5 if n == 2 else min(1.5, 1.1 * math.sqrt(0.9 / k))
    box = ((-1.5, 1.5),) + ((-half, half),) * k
    return Chart(f"hopf{n}", ("t",) + _sphere_coords(n), box, (lambda p: 0.95 - _sq(p[1:]),))


def _sq(cols):
    return dual.total((1, c * c) for c in cols)


def hopf(n: int = 2, weights=(1.0, 1.0)) -> ExampleManifest:
    """S^1 x S^{2n-1} with the weighted potential and its torus action.

    The last sphere coordinate is graphed: ``y_n = sqrt(1 - sum of squares)``,
    so the chart covers the open hemisphere ``y_n > 0``.  Weights must be
    positive and nondecreasing.
    """
    weights = tuple(float(a) for a in weights)
    _require_finite(weights=weights)
    if n < 2:
        raise UsageError("need n >= 2 coordinates")
    if len(weights) != n:
        raise UsageError(f"need {n} weights, got {len(weights)}")
    if weights[0] <= 0 or any(b < a for a, b in zip(weights, weights[1:])):
        raise UsageError("weights must be positive and nondecreasing")

    chart = _hopf_chart(n)
    xi = [chart.index(f"x{i}") for i in range(1, n + 1)]
    yi = [chart.index(f"y{i}") for i in range(1, n)]

    def gfn(p):
        return dual.sqrt(1.0 - _sq(p[1:]))

    g = ScalarField(chart, gfn)

    # |z_i|^2 on the graph chart: the weighted denominator and every momentum share them
    moduli = [ScalarField(chart, lambda p, a=xi[i], b=yi[i]: p[a] * p[a] + p[b] * p[b]) for i in range(n - 1)]
    moduli.append(ScalarField(chart, lambda p: p[xi[-1]] * p[xi[-1]] + 1.0 - _sq(p[1:])))
    den = dual.total((1, w * m) for w, m in zip(weights, moduli))

    # contact potential of the round sphere, written on the graph chart
    eta0_coeffs = {}
    for i in range(n - 1):
        eta0_coeffs[(xi[i],)] = coordinate(chart, yi[i]) + coordinate(chart, xi[-1]) * coordinate(chart, xi[i]) / g
        eta0_coeffs[(yi[i],)] = -coordinate(chart, xi[i]) + coordinate(chart, xi[-1]) * coordinate(chart, yi[i]) / g
    eta0_coeffs[(xi[-1],)] = g + coordinate(chart, xi[-1]) * coordinate(chart, xi[-1]) / g
    eta0 = DifferentialForm(chart, 1, eta0_coeffs)
    eta = (constant(chart, 1.0) / den) * eta0
    theta = DifferentialForm(chart, 1, {(0,): constant(chart, 1.0)})
    omega = twisted_derivative(theta, eta)
    structure = LCSStructure(chart, omega, theta, potential=eta, name=f"hopf{n}")

    fields = []
    for i in range(n - 1):
        fields.append(
            VectorField(
                chart,
                [
                    -coordinate(chart, yi[i]) if j == xi[i]
                    else (coordinate(chart, xi[i]) if j == yi[i] else 0.0)
                    for j in range(chart.dim)
                ],
            )
        )
    fields.append(VectorField(chart, [(-1.0) * g if j == xi[-1] else 0.0 for j in range(chart.dim)]))
    act = ActionSpec(chart, tuple(fields), elements=_hopf_elements(chart, n))

    mu = MomentumMap(chart, tuple(m / den for m in moduli))

    pole = np.zeros(chart.dim)
    pole[xi[0]] = 1.0

    objects = {
        "chart": chart,
        "structure": structure,
        "eta0": eta0,
        "action": act,
        "momentum": mu,
        "pole": pole,
        "weights": weights,
    }
    runs: dict[str, RunFn] = {
        "lcs": lambda pts, seed, tol: verify_lcs(structure, chart.sample(pts, seed), tol),
        "hamiltonian": lambda pts, seed, tol: verify_twisted_hamiltonian(
            structure, act, mu, chart.sample(pts, seed), tol
        ),
        "invariant": lambda pts, seed, tol: invariant_hamiltonian_check(act, mu, chart.sample(pts, seed), tol),
        "pole": lambda pts, seed, tol: _pole_report(mu, pole, weights, tol),
    }
    expected = [
        Expectation("lcs", row) for row in ("lee-closed", "lcs-identity", "nondegenerate", "potential")
    ]
    for a in range(n):
        expected += [
            Expectation("hamiltonian", f"momentum[{a}]"),
            Expectation("hamiltonian", f"invariance[{a}]"),
            Expectation("hamiltonian", f"lee-hom[{a}]"),
        ]
    for gname in act.elements:
        expected += [Expectation("invariant", f"invariant[{a}][{gname}]") for a in range(n)]
    expected.append(Expectation("pole", "mu-pole"))

    if n == 2:
        torus = _hopf_torus_slice(chart)
        zero = _hopf_zero_slice(chart)
        objects["torus_slice"] = torus
        objects["zero_slice"] = zero
        runs["reduce"] = lambda pts, seed, tol: reduced_form_check(
            structure, act, torus, mu, torus.parametrization.source.sample(pts, seed), tol
        )
        runs["scan"] = lambda pts, seed, tol: level_scan(chart, mu, (1.0, 1.0), chart.sample(max(pts, 128), seed))
        expected += [
            Expectation("reduce", "level[0]"),
            Expectation("reduce", "level-isotropy[0]"),
            Expectation("reduce", "reduced-lee-closed"),
            Expectation("reduce", "reduced-lcs"),
            Expectation("reduce", "reduced-nondegenerate"),
            Expectation("scan", "zero-level", "no zero level in chart"),
        ]
    if n == 4:
        runs["restriction"] = _sphere_restriction_run()
        expected.append(Expectation("restriction", "restriction"))

    return ExampleManifest(
        f"hopf{n}", {"n": n, "weights": weights}, objects, runs, tuple(expected)
    )


def _hopf_elements(chart: Chart, n: int) -> dict[str, SmoothMap]:
    """Finite rotations of the first coordinate pair (exact chart self-maps)."""
    ix, iy = chart.index("x1"), chart.index("y1")

    def rot(phi: float) -> SmoothMap:
        c, s = math.cos(phi), math.sin(phi)
        comps = []
        for j in range(chart.dim):
            if j == ix:
                comps.append(c * coordinate(chart, ix) - s * coordinate(chart, iy))
            elif j == iy:
                comps.append(s * coordinate(chart, ix) + c * coordinate(chart, iy))
            else:
                comps.append(coordinate(chart, j))
        return SmoothMap(chart, chart, comps)

    return {"rot1": rot(0.7), "rot1b": rot(-1.2)}


def _pole_report(mu: MomentumMap, pole, weights, tol: float) -> Report:
    rep = Report("pole")
    val = float(mu.components[0].batch(pole)[0])
    rep.add(
        CheckResult.from_residual(
            "mu-pole",
            "first Hamiltonian at the z1 pole equals one over the first weight",
            abs(val - 1.0 / weights[0]),
            tol,
            value=val,
        )
    )
    return rep


def _hopf_torus_slice(chart: Chart) -> LevelSlice:
    src = Chart("hopf-torus-slice", ("tau", "sigma"), ((-1.5, 1.5), (0.45, 2.7)))
    r = 1.0 / math.sqrt(2.0)
    comps = [
        coordinate(src, 0),
        ScalarField(src, lambda p: r * dual.cos(p[1])),
        ScalarField(src, lambda p: r * dual.sin(p[1])),
        ScalarField(src, lambda p: r * dual.cos(p[1])),
    ]
    return LevelSlice.single(SmoothMap(src, chart, comps), (1.0, -1.0), name="equal-moduli torus")


def _hopf_zero_slice(chart: Chart) -> LevelSlice:
    src = Chart("hopf-zero-slice", ("tau", "xi"), ((-1.5, 1.5), (-0.9, 0.9)))
    comps = [coordinate(src, 0), 0.0, 0.0, coordinate(src, 1)]
    return LevelSlice.single(SmoothMap(src, chart, comps), (1.0,), name="first-rotation zero level")


def _graph_sphere_chart(dim_sphere: int, name: str) -> Chart:
    box = ((-1.5, 1.5),) * dim_sphere
    names = tuple(f"u{i}" for i in range(1, dim_sphere + 1))
    return Chart(name, names, box, (lambda p: 0.95 - _sq(p),))


def _ambient_contact_form(chart: Chart) -> DifferentialForm:
    """sum_i y_i dx_i - x_i dy_i on an even-dimensional linear chart."""
    coeffs = {}
    for i in range(0, chart.dim, 2):
        coeffs[(i,)] = coordinate(chart, i + 1)
        coeffs[(i + 1,)] = -1.0 * coordinate(chart, i)
    return DifferentialForm(chart, 1, coeffs)


def _sphere_restriction_run() -> RunFn:
    """Restriction of the 7-sphere contact potential to an equatorial 3-sphere.

    Route one embeds the graph chart of S^3 into R^4 and pads with zeros into
    R^8 before pulling back the ambient potential; route two pulls back the
    R^4 potential directly.  The two 1-forms must agree on the chart.  The
    charts, maps and pullbacks are built once, so a run again only samples
    and replays.
    """
    s3 = _graph_sphere_chart(3, "s3-graph")
    r4 = Chart("r4", ("X1", "Y1", "X2", "Y2"), ((-2.0, 2.0),) * 4)
    r8 = Chart("r8", tuple(f"a{i}" for i in range(8)), ((-2.0, 2.0),) * 8)

    def gfn(p):
        return dual.sqrt(1.0 - _sq(p))

    into_r4 = SmoothMap(s3, r4, [coordinate(s3, 0), coordinate(s3, 1), coordinate(s3, 2), ScalarField(s3, gfn)])
    pad = SmoothMap(r4, r8, [coordinate(r4, i) for i in range(4)] + [0.0] * 4)
    ambient = pullback(into_r4.then(pad), _ambient_contact_form(r8))
    direct = pullback(into_r4, _ambient_contact_form(r4))

    def run(pts: int, seed: int, tol: float) -> Report:
        claim = "ambient-sphere potential restricts to the small-sphere potential"
        residuals = scaled_residuals(*batch_values([ambient, direct], s3.sample(pts, seed)), pts)
        return Report("restriction", [residual_row("restriction", claim, residuals, tol)])

    return run


# --------------------------------------------------------------------------
# Inoue-type surface chart


def inoue(
    alpha: float = 2.0,
    a=(1.0, 0.7),
    b=(0.5, 1.0),
    c=(0.3, -0.2),
    t: float = 0.4,
    s: float = 1.3,
) -> ExampleManifest:
    """Half-space chart (w1, w2 > 0, z1, z2) with Lee form dw2/w2.

    The deck maps are an expansion g0 and three parabolic translations
    g1, g2, g3; g0 scales the cover 2-form by 1/alpha while the others
    preserve it.  The translation Hamiltonian -2 z2/w2 transforms with
    constant shifts, but its w2-rescaled descent candidate picks up a
    non-constant defect under g2 whenever b2 is nonzero.
    """
    a, b, c = tuple(map(float, a)), tuple(map(float, b)), tuple(map(float, c))
    _require_finite(alpha=alpha, a=a, b=b, c=c, t=t, s=s)
    if alpha <= 1.0:
        raise UsageError("the expansion factor must exceed 1")

    chart = Chart(
        "inoue", ("w1", "w2", "z1", "z2"), ((-1.5, 1.5), (0.5, 3.0), (-1.5, 1.5), (-1.5, 1.5))
    )
    w2 = coordinate(chart, 1)
    z2 = coordinate(chart, 3)
    one = constant(chart, 1.0)
    omega = DifferentialForm(
        chart,
        2,
        {
            (0, 1): -2.0 * (one + z2 * z2) / (w2 * w2),
            (0, 3): 2.0 * z2 / w2,
            (1, 2): -2.0 * z2 / w2,
            (2, 3): constant(chart, -2.0),
        },
    )
    theta = DifferentialForm(chart, 1, {(1,): one / w2})
    structure = LCSStructure(chart, omega, theta, name="inoue")
    cover_form = (one / w2) * omega
    ham = -2.0 * z2 / w2
    dz1 = basis_vector(chart, 2)  # built once, so the derived forms of every call are kept with it
    descent = -2.0 * z2

    def affine(coeffs) -> SmoothMap:
        terms = [[(1, const_term), *((1, lam * coordinate(chart, j)) for j, lam in lin)] for const_term, lin in coeffs]
        return SmoothMap(chart, chart, [dual.total(t) for t in terms])

    deck_maps = {
        "g0": affine([(0.0, [(0, alpha)]), (0.0, [(1, alpha)]), (t, [(2, 1.0)]), (0.0, [(3, 1.0)])]),
        "g1": affine([(a[0], [(0, 1.0)]), (0.0, [(1, 1.0)]), (c[0], [(2, 1.0), (0, b[0])]), (0.0, [(3, 1.0), (1, b[0])])]),
        "g2": affine([(a[1], [(0, 1.0)]), (0.0, [(1, 1.0)]), (c[1], [(2, 1.0), (0, b[1])]), (0.0, [(3, 1.0), (1, b[1])])]),
        "g3": affine([(0.0, [(0, 1.0)]), (0.0, [(1, 1.0)]), (s, [(2, 1.0)]), (0.0, [(3, 1.0)])]),
    }
    deck_box = Chart(
        "inoue-deck", chart.coords, ((-0.7, 0.45), (0.55, 1.45), (-1.3, 0.15), (-1.35, 0.0))
    )

    lee_points = np.array(
        [[0.0, 1.0, 0.0, 0.0], [0.3, 0.8, -0.4, 0.9], [-0.6, 2.1, 1.1, -0.5], [0.9, 1.7, -1.2, 0.4]]
    )

    def lee_run(pts, seed, tol) -> Report:
        sample = np.vstack([lee_points, chart.sample(max(4, pts // 8), seed)])
        recovered = solve_lee_form(omega, sample).coefficients
        expected = np.zeros_like(sample)
        expected[:, 1] = 1.0 / sample[:, 1]
        rep = Report("lee")
        rep.add(
            residual_row(
                "lee-recovery",
                "Lee form recovered from the 2-form alone matches dw2/w2",
                recovered - expected,
                max(tol, 1e-7),
            )
        )
        return rep

    def ham_run(pts, seed, tol) -> Report:
        forms = [interior_product(dz1, cover_form), exterior_derivative(DifferentialForm.from_scalar(ham))]
        residuals = scaled_residuals(*batch_values(forms, chart.sample(pts, seed)), pts)
        claim = "the z1 translation field is Hamiltonian for the cover 2-form"
        return Report("hamiltonian", [residual_row("translation-hamiltonian", claim, residuals, max(tol, 1e-9))])

    # The four fits by (draw, tol), kept while the deck box keeps that draw; a fit that raises is not kept.
    fits = dual.Kept()

    def _fit(sample, tol):
        return MappingProxyType({name: deck_homothety(m, cover_form, sample, tol, name) for name, m in deck_maps.items()})

    def _decks(pts, seed, tol):
        sample = deck_box.sample(max(pts, 4), seed)  # a deck map needs at least 4 samples in the chart
        return sample, fits.keep((id(sample), tol), (sample,), _fit, sample, tol)

    def decks_run(pts, seed, tol) -> Report:
        rep = Report("decks")
        _, decks = _decks(pts, seed, tol)
        for name, el in decks.items():
            row = CheckResult.from_residual(
                f"homothety[{name}]",
                "per-point scale factors of the deck map agree",
                el.spread,
                tol,
                factor=el.factor,
                skipped=el.skipped,
                points=el.points,
            )
            rep.add(demote_if_sparse(row, el.skipped, el.points))
        rep.add(
            CheckResult.from_residual(
                "g0-factor",
                "expansion scales the cover form by the reciprocal of alpha",
                abs(decks["g0"].factor - 1.0 / alpha),
                tol,
                factor=decks["g0"].factor,
            )
        )
        return rep

    def automorphic_run(pts, seed, tol) -> Report:
        sample, decks = _decks(pts, seed, tol)
        return automorphic_constants(decks, ham, sample, tol)

    def descent_run(pts, seed, tol) -> Report:
        sample, decks = _decks(pts, seed, tol)
        return automorphic_constants({k: decks[k] for k in ("g2", "g3")}, descent, sample, tol)

    objects = {
        "chart": chart,
        "structure": structure,
        "cover_form": cover_form,
        "hamiltonian": ham,
        "descent_candidate": descent,
        "deck_maps": deck_maps,
        "deck_box": deck_box,
        "lee_points": lee_points,
    }
    runs: dict[str, RunFn] = {
        "lcs": lambda pts, seed, tol: verify_lcs(structure, chart.sample(pts, seed), tol),
        "lee": lee_run,
        "hamiltonian": ham_run,
        "decks": decks_run,
        "automorphic": automorphic_run,
        "descent": descent_run,
    }
    expected = [
        Expectation("lcs", "lee-closed"),
        Expectation("lcs", "lcs-identity"),
        Expectation("lcs", "nondegenerate"),
        Expectation("lee", "lee-recovery"),
        Expectation("hamiltonian", "translation-hamiltonian"),
        *[Expectation("decks", f"homothety[{g}]") for g in deck_maps],
        Expectation("decks", "g0-factor"),
        *[Expectation("automorphic", f"a[{g}]") for g in deck_maps],
        Expectation("descent", "a[g2]", "obstructed"),
        Expectation("descent", "a[g3]"),
    ]
    return ExampleManifest(
        "inoue",
        {"alpha": alpha, "a": a, "b": b, "c": c, "t": t, "s": s},
        objects,
        runs,
        tuple(expected),
    )


# --------------------------------------------------------------------------
# cotangent charts with exact Lee form


def cotangent(m: int = 2, scale: float = 0.3) -> ExampleManifest:
    """Cotangent chart (q, p) with tautological potential and pulled-back Lee form.

    Lee data, closed by construction: ``alpha = scale * dq1`` for m = 1 and
    the rotation-invariant ``alpha = scale * d(q1^2 + q2^2)`` for m >= 2.
    """
    if m < 1:
        raise UsageError("need at least one base coordinate")
    _require_finite(scale=scale)
    base = Chart("cot-base", tuple(f"q{i}" for i in range(1, m + 1)))
    total = Chart(
        "cotangent",
        tuple(f"q{i}" for i in range(1, m + 1)) + tuple(f"p{i}" for i in range(1, m + 1)),
    )
    if m == 1:
        alpha = DifferentialForm(base, 1, {(0,): constant(base, scale)})
    else:
        alpha = DifferentialForm(base, 1, {(i,): 2.0 * scale * coordinate(base, i) for i in range(2)})

    # base coordinates come first, so a base coefficient's node is the same node on the total chart
    theta = DifferentialForm(total, 1, alpha.coeffs)
    liouville = DifferentialForm(
        total, 1, {(i,): coordinate(total, m + i) for i in range(m)}
    )
    omega = twisted_derivative(theta, liouville)
    structure = LCSStructure(total, omega, theta, potential=liouville, name=f"cotangent{m}")

    objects = {"base": base, "chart": total, "structure": structure, "alpha": alpha}
    runs: dict[str, RunFn] = {
        "lcs": lambda pts, seed, tol: verify_lcs(structure, total.sample(pts, seed), tol)
    }
    expected = [
        Expectation("lcs", row) for row in ("lee-closed", "lcs-identity", "nondegenerate", "potential")
    ]

    if m == 2:
        lifted = VectorField(
            total,
            [
                -1.0 * coordinate(total, 1),
                coordinate(total, 0),
                -1.0 * coordinate(total, 3),
                coordinate(total, 2),
            ],
        )
        act = ActionSpec(total, (lifted,))
        closed_mu = coordinate(total, 2) * coordinate(total, 1) - coordinate(total, 3) * coordinate(total, 0)
        objects["action"] = act
        objects["closed_momentum"] = closed_mu

        def momentum_run(pts, seed, tol) -> Report:
            sample = total.sample(pts, seed)
            mu, rep = momentum_from_potential(structure, act, sample, tol)
            derived, closed = dual.evaluate([mu.components[0].node, closed_mu.node], sample).T
            rep.add(residual_row("closed-form", "derived momentum matches p1 q2 - p2 q1", derived - closed, tol))
            return rep

        runs["momentum"] = momentum_run
        expected += [
            Expectation("momentum", "eta-invariant[0]"),
            Expectation("momentum", "lee-zero[0]"),
            Expectation("momentum", "momentum[0]"),
            Expectation("momentum", "closed-form"),
        ]
    return ExampleManifest(
        f"cotangent{m}", {"m": m, "scale": scale}, objects, runs, tuple(expected)
    )


# --------------------------------------------------------------------------
# the flagship bundle: an area form over the open hemisphere, Hopf fiber


def _s2_chart() -> Chart:
    return Chart("s2", ("x", "y"), ((-1.5, 1.5), (-1.5, 1.5)), (lambda p: 0.95 - (p[0] * p[0] + p[1] * p[1]),))


def _s2_area_and_potential(chart: Chart):
    x, y = coordinate(chart, 0), coordinate(chart, 1)

    def gb_fn(p):
        return dual.sqrt(1.0 - p[0] * p[0] - p[1] * p[1])

    gb = ScalarField(chart, gb_fn)
    area = DifferentialForm(chart, 2, {(0, 1): constant(chart, 1.0) / gb})
    one = constant(chart, 1.0)
    pot = DifferentialForm(chart, 1, {(0,): -1.0 * y / (one + gb), (1,): x / (one + gb)})
    return area, pot


def coupling_runs(c: CouplingChart) -> dict[str, RunFn]:
    """The certificate of a coupling: ``verify_coupling`` on the points, the lift bracket on a quarter (at least 8)."""
    sample = c.total.sample
    return {
        "coupling": lambda pts, seed, tol: verify_coupling(c, sample(pts, seed), seed, tol),
        "lift-bracket": lambda pts, seed, tol: lift_bracket_diagnostic(c, sample(max(8, pts // 4), seed), seed, tol),
    }


def coupling_example_s2(weights=(1.0, 1.0)) -> ExampleManifest:
    """Hemisphere base with area-form curvature, Hopf fiber, full bundle wiring.

    The single circle generator rotates the first fiber coordinate pair; its
    Hamiltonian pairs with the curvature to a fat block away from the zero
    level, and the associated coupling form passes the closedness, fatness
    and block-structure checks end to end.
    """
    fib = hopf(2, weights)
    chart_f: Chart = fib.objects["chart"]
    structure_f: LCSStructure = fib.objects["structure"]
    act_full: ActionSpec = fib.objects["action"]
    mu_full: MomentumMap = fib.objects["momentum"]

    act = ActionSpec(chart_f, (act_full.fields[0],), elements=dict(act_full.elements))
    mu = MomentumMap(chart_f, (mu_full.components[0],))

    base = _s2_chart()
    area, pot = _s2_area_and_potential(base)
    gauge = circle_fat_from_symplectic(area, pot, base.sample(32, 0))
    coupling = build_coupling(gauge, structure_f, act, mu, chart_f.sample(32, 0))
    total = coupling.total

    fat_fiber = Chart(
        "hopf-fat", chart_f.coords, chart_f.box, (*chart_f.domain, lambda p: p[1] * p[1] + p[2] * p[2] - 0.05)
    )
    zero_slice: LevelSlice = fib.objects["zero_slice"]

    c2 = Chart("c2", ("v1", "v2", "v3", "v4"), ((-4.0, 4.0),) * 4)

    def scaled(i):
        def fn(p):
            radial = dual.sqrt(1.0 - _sq(p[1:])) if i == 3 else p[i + 1]
            return dual.exp(-p[0]) * radial

        return ScalarField(chart_f, fn)

    psi = SmoothMap(chart_f, c2, [scaled(i) for i in range(4)])
    J_base = rotation_structure(base)
    J_fiber = conjugate_structure(psi, rotation_structure(c2))

    def fat_run(pts, seed, tol) -> Report:
        return fatness_check(gauge, mu, fat_fiber.sample(pts, seed), base.sample(pts, seed))

    def fat_zero_run(pts, seed, tol) -> Report:
        zero_gauge = GaugeChart(base, (DifferentialForm.zero(base, 1),))
        return fatness_check(zero_gauge, mu, fat_fiber.sample(pts, seed), base.sample(pts, seed))

    def nijenhuis_run(pts, seed, tol) -> Report:
        return horizontal_nijenhuis_identity(coupling, J_base, J_fiber, total.sample(min(6, pts), seed), seed, tol)

    source = zero_slice.parametrization.source
    split_chart = product_chart(base, source)

    def reduction_run(pts, seed, tol) -> Report:
        rep = reduced_form_check(structure_f, act, zero_slice, mu, source.sample(min(pts, 32), seed), tol)
        split_points = split_chart.sample(min(pts, 32), seed + 1)
        rep.extend(product_split_check(coupling, zero_slice, split_points, tol))
        return rep

    objects = {
        "base": base,
        "area": area,
        "potential": pot,
        "gauge": gauge,
        "fiber": structure_f,
        "action": act,
        "momentum": mu,
        "coupling": coupling,
        "fat_fiber": fat_fiber,
        "zero_slice": zero_slice,
        "J_base": J_base,
        "J_fiber": J_fiber,
        "psi": psi,
    }
    runs: dict[str, RunFn] = {
        **coupling_runs(coupling),
        "fatness": fat_run,
        "fatness-zero": fat_zero_run,
        "bundle": lambda pts, seed, tol: bundle_momentum_check(coupling, total.sample(min(pts, 48), seed), tol),
        "nijenhuis": nijenhuis_run,
        "reduction": reduction_run,
    }
    expected = [
        *[
            Expectation("coupling", row)
            for row in (
                "theta-closed",
                "closed[coeffs]",
                "closed[vvv]",
                "closed[vvh]",
                "closed[vhv]",
                "closed[hvv]",
                "closed[vhh]",
                "closed[hvh]",
                "closed[hhv]",
                "closed[hhh]",
                "fiber-block",
                "theta-fiber",
                "theta-horizontal",
                "hor-vert",
                "nondegenerate",
            )
        ],
        Expectation("lift-bracket", "lift-bracket"),
        Expectation("fatness", "fat"),
        Expectation("fatness-zero", "fat", "fail"),
        Expectation("bundle", "bundle-momentum[0]"),
        Expectation("bundle", "level-product[0]"),
        *[Expectation("bundle", f"omega-invariant[{g}]") for g in act.elements],
        Expectation("nijenhuis", "horizontal-identity"),
        Expectation("reduction", "level[0]"),
        Expectation("reduction", "level-isotropy[0]"),
        Expectation("reduction", "reduced-lcs"),
        Expectation("reduction", "reduced-nondegenerate"),
        Expectation("reduction", "product-cross"),
        Expectation("reduction", "product-fiber"),
    ]
    return ExampleManifest(
        "coupling-s2", {"weights": tuple(map(float, weights))}, objects, runs, tuple(expected)
    )


GALLERY: dict[str, Callable[..., ExampleManifest]] = {
    "hopf": hopf,
    "inoue": inoue,
    "cotangent": cotangent,
    "coupling-s2": coupling_example_s2,
}

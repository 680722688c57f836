"""Manufactured-solution data, study drivers, and the form audit."""

import dataclasses
import functools

import numpy as np
import pytest
import sympy as sym

from bgs import build_rectangle_mesh, build_spaces
from bgs.coefficients import CoefficientModel, constant_model, tanh_blend_law
from bgs import forms, oracles
from bgs.solver import SolverConfig

from helpers_stencil import nested_forcings


# ---------------------------------------------------------------------------
# manufactured fields


def _edge_points(side, m=100):
    s = np.linspace(0.0, 1.0, m)
    if side == "left":
        return np.stack([np.zeros(m), s], axis=-1)
    if side == "right":
        return np.stack([np.ones(m), s], axis=-1)
    if side == "bottom":
        return np.stack([s, np.zeros(m)], axis=-1)
    return np.stack([s, np.ones(m)], axis=-1)


@pytest.mark.parametrize("t", [0.0, 0.05, 0.1])
def test_mms_velocity_vanishes_on_boundary(t):
    for side in ("left", "right", "bottom", "top"):
        z = oracles.exact_velocity(_edge_points(side), t)
        assert np.max(np.abs(z)) < 1e-12


@pytest.mark.parametrize("t", [0.0, 0.05, 0.1])
def test_mms_temperature_vanishes_on_head_side(t):
    w = oracles.exact_temperature(_edge_points("left"), t)
    assert np.max(np.abs(w)) < 1e-12


def test_mms_head_datum_is_exact_head():
    problem = oracles.make_mms_problem(constant_model(1.0, 1.0))
    pts = _edge_points("left")
    for t in (0.0, 0.1):
        got = problem.v1(pts, t)
        assert np.max(np.abs(got - oracles.exact_head(pts, t))) < 1e-12


def test_mms_velocity_divergence_free():
    rng = np.random.default_rng(42)
    pts = rng.uniform(0.05, 0.95, size=(100, 2))
    for t in (0.0, 0.07):
        div = (oracles._fd_axis(lambda q: oracles.exact_velocity(q, t)[..., 0],
                                pts, 0)
               + oracles._fd_axis(lambda q: oracles.exact_velocity(q, t)[..., 1],
                                  pts, 1))
        assert np.max(np.abs(np.asarray(div, dtype=float))) < 1e-9


def _symbolic_forcings(gamma_expr_of_w, k_expr_of_w, beta, g_vec, sign=1.0):
    x, y, t = sym.symbols("x y t", real=True)
    decay = sym.exp(-t)
    psi = x ** 2 * (1 - x) ** 2 * sym.sin(sym.pi * y) ** 2 * decay
    z1, z2 = sym.diff(psi, y), -sym.diff(psi, x)
    w = x * sym.sin(sym.pi * y) * decay
    p = sym.cos(sym.pi * x) * sym.cos(sym.pi * y) * decay

    gam = gamma_expr_of_w(w)
    kk = k_expr_of_w(w)
    om = sym.diff(z2, x) - sym.diff(z1, y)
    stress = gam * om
    f1_1 = (sym.diff(z1, t) + sym.diff(stress, y) - om * z2
            + sign * beta * g_vec[0] * w - sym.diff(p, x))
    f1_2 = (sym.diff(z2, t) - sym.diff(stress, x) + om * z1
            + sign * beta * g_vec[1] * w - sym.diff(p, y))
    f2 = (sym.diff(w, t)
          - sym.diff(kk * sym.diff(w, x), x) - sym.diff(kk * sym.diff(w, y), y)
          + z1 * sym.diff(w, x) + z2 * sym.diff(w, y))
    return (sym.lambdify((x, y, t), f1_1, "numpy"),
            sym.lambdify((x, y, t), f1_2, "numpy"),
            sym.lambdify((x, y, t), f2, "numpy"))


def test_stencil_forcings_match_symbolic_constant_coefficients():
    problem = oracles.make_mms_problem(constant_model(1.0, 1.0), beta=0.0)
    s1, s2, sf2 = _symbolic_forcings(lambda w: sym.Integer(1),
                                     lambda w: sym.Integer(1),
                                     0.0, (0.0, -1.0))
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.1, 0.9, size=(10, 2))
    t = 0.3
    f1 = problem.f1(pts, t)
    f2 = problem.f2(pts, t)
    ref1 = np.stack([s1(pts[:, 0], pts[:, 1], t),
                     s2(pts[:, 0], pts[:, 1], t)], axis=-1)
    ref2 = sf2(pts[:, 0], pts[:, 1], t)
    assert np.max(np.abs(f1 - ref1)) < 1e-6
    assert np.max(np.abs(f2 - ref2)) < 1e-6


def test_stencil_forcings_match_symbolic_tanh_coefficients():
    model = CoefficientModel(tanh_blend_law(0.5, 2.0), tanh_blend_law(0.7, 1.3))
    problem = oracles.make_mms_problem(model, beta=0.5)
    s1, s2, sf2 = _symbolic_forcings(
        lambda w: sym.Rational(1, 2) + sym.Rational(3, 2) * (1 + sym.tanh(w)) / 2,
        lambda w: sym.Rational(7, 10) + sym.Rational(3, 5) * (1 + sym.tanh(w)) / 2,
        0.5, (0.0, -1.0))
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.1, 0.9, size=(10, 2))
    t = 0.05
    f1 = problem.f1(pts, t)
    f2 = problem.f2(pts, t)
    ref1 = np.stack([s1(pts[:, 0], pts[:, 1], t),
                     s2(pts[:, 0], pts[:, 1], t)], axis=-1)
    ref2 = sf2(pts[:, 0], pts[:, 1], t)
    assert np.max(np.abs(f1 - ref1)) < 1e-6
    assert np.max(np.abs(f2 - ref2)) < 1e-6


# ---------------------------------------------------------------------------
# tabulated forcing against the nested-stencil reference and sympy


def _g_varying(points):
    x, y = points[..., 0], points[..., 1]
    return np.stack([np.sin(np.pi * x) * y, -1.0 - x * y], axis=-1)


def _g_varying_sym():
    x, y = sym.symbols("x y", real=True)
    return (sym.sin(sym.pi * x) * y, -1 - x * y)


def _tanh_model():
    return CoefficientModel(tanh_blend_law(0.5, 2.0), tanh_blend_law(0.7, 1.3))


# model, gravity and sign of each case, numeric and symbolic
_FORCING_CASES = {
    "constant-down-plus": (
        lambda: constant_model(1.5, 0.8),
        lambda w: sym.Rational(3, 2), lambda w: sym.Rational(4, 5),
        (0.0, -1.0), lambda: (0.0, -1.0), 1.0),
    "constant-varying-minus": (
        lambda: constant_model(1.5, 0.8),
        lambda w: sym.Rational(3, 2), lambda w: sym.Rational(4, 5),
        _g_varying, _g_varying_sym, -1.0),
    "tanh-down-minus": (
        _tanh_model,
        lambda w: sym.Rational(1, 2) + sym.Rational(3, 2) * (1 + sym.tanh(w)) / 2,
        lambda w: sym.Rational(7, 10) + sym.Rational(3, 5) * (1 + sym.tanh(w)) / 2,
        (0.0, -1.0), lambda: (0.0, -1.0), -1.0),
    "tanh-varying-plus": (
        _tanh_model,
        lambda w: sym.Rational(1, 2) + sym.Rational(3, 2) * (1 + sym.tanh(w)) / 2,
        lambda w: sym.Rational(7, 10) + sym.Rational(3, 5) * (1 + sym.tanh(w)) / 2,
        _g_varying, _g_varying_sym, 1.0),
}


@functools.lru_cache(maxsize=None)
def _quad_points(n):
    return build_spaces(build_rectangle_mesh(n, n, ("left",))).quad_x


@functools.lru_cache(maxsize=None)
def _symbolic_case(name):
    _, gam, kk, _, g_sym, sign = _FORCING_CASES[name]
    return _symbolic_forcings(gam, kk, 0.5, g_sym(), sign)


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("case", sorted(_FORCING_CASES))
def test_tabulated_forcing_matches_nested_stencil_and_symbolic(case, n):
    make_model, _, _, g, _, sign = _FORCING_CASES[case]
    model = make_model()
    problem = oracles.make_mms_problem(model, beta=0.5, g=g,
                                       buoyancy_sign=sign)
    ref_f1, ref_f2 = nested_forcings(model, beta=0.5, g=g, buoyancy_sign=sign)
    s1, s2, sf2 = _symbolic_case(case)
    pts = _quad_points(n)
    x, y = pts[..., 0], pts[..., 1]
    for t in (0.0, 1e-3, 0.02, 0.1, 0.3):
        tab = (problem.f1(pts, t), problem.f2(pts, t))
        ref = (ref_f1(pts, t), ref_f2(pts, t))
        exact = (np.stack([s1(x, y, t), s2(x, y, t)], axis=-1), sf2(x, y, t))
        for got, want, label in ((tab, ref, "nested"), (tab, exact, "sympy"),
                                 (ref, exact, "nested vs sympy")):
            for a, b in zip(got, want):
                assert a.shape == b.shape
                err = np.max(np.abs(a - b))
                assert err < 1e-8, f"{label} at t={t}: {err:.3e}"


def test_exact_fields_separate_in_time():
    # the stencil tables are taken at t=0 and scaled by exp(-t): a term
    # that is not a spatial field times exp(-t) must fail here
    rng = np.random.default_rng(3)
    for dtype in (float, np.longdouble):
        pts = rng.uniform(0.0, 1.0, size=(50, 2)).astype(dtype)
        for fn in (oracles.exact_velocity, oracles.exact_temperature,
                   oracles.exact_head):
            base = fn(pts, 0.0)
            for t in (1e-3, 0.02, 0.1, 0.3, 1.0):
                decay = np.exp(np.asarray(-t, dtype=dtype))
                np.testing.assert_allclose(fn(pts, t), decay * base,
                                           rtol=1e-15, atol=0.0)


def _assert_matches_nested(problem, ref, pts, t):
    for got, want in ((problem.f1(pts, t), ref[0](pts, t)),
                      (problem.f2(pts, t), ref[1](pts, t))):
        assert np.max(np.abs(got - want)) < 1e-8


def test_stencil_table_follows_point_content():
    model = _tanh_model()
    problem = oracles.make_mms_problem(model, beta=0.5)
    ref = nested_forcings(model, beta=0.5)
    rng = np.random.default_rng(5)
    a = rng.uniform(0.1, 0.9, size=(6, 7, 2))
    b = rng.uniform(0.1, 0.9, size=(6, 7, 2))
    assert not np.allclose(problem.f1(a, 0.05), problem.f1(b, 0.05))
    _assert_matches_nested(problem, ref, a, 0.05)
    _assert_matches_nested(problem, ref, b, 0.05)

    # an in-place change of the caller's array is a new point set
    before = problem.f2(a, 0.1)
    a[..., 0] = 1.0 - a[..., 0]
    assert not np.allclose(problem.f2(a, 0.1), before)
    _assert_matches_nested(problem, ref, a, 0.1)


def test_stencil_table_is_read_only_and_shared():
    pts = np.random.default_rng(9).uniform(0.1, 0.9, size=(5, 2))
    oracles.make_mms_problem(constant_model(1.0, 1.0)).f1(pts, 0.0)
    table = oracles._stencil_table(pts.copy())
    # the table does not depend on the model: a second problem reuses it
    oracles.make_mms_problem(_tanh_model()).f2(pts, 0.2)
    assert oracles._stencil_table(pts) is table
    for arr in table:
        assert arr.dtype == np.longdouble
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        table.w_s[...] = 0.0


def test_stencil_table_cache_is_bounded():
    problem = oracles.make_mms_problem(constant_model(1.0, 1.0))
    rng = np.random.default_rng(13)
    for _ in range(3 * oracles._TABLE_CACHE_SIZE):
        problem.f1(rng.uniform(0.1, 0.9, size=(3, 2)), 0.0)
    assert len(oracles._TABLES) == oracles._TABLE_CACHE_SIZE


def test_flux_datum_closes_weak_identity(spaces_4x4):
    # with the manufactured fields interpolated exactly in time, the load
    # with v2 must reproduce integral(f2 mu) + boundary pairing such that
    # the residual of the steady part drops under refinement; here just
    # pin the sign: on the right side w = x sin(pi y) grows outward, so
    # the datum at (1, 0.5) must be positive
    problem = oracles.make_mms_problem(constant_model(1.0, 1.0))
    val = problem.v2(np.array([[1.0, 0.5]]), 0.0)
    assert val.shape == (1,)
    assert val[0] > 0.1


def test_interpolation_only_convergence_rate():
    errs = []
    for n in (4, 8, 16):
        s = build_spaces(build_rectangle_mesh(n, n, ("left",)))
        z = forms.interpolate_velocity(s, oracles.exact_velocity, 0.0)
        errs.append(forms.velocity_l2_error(s, z, oracles.exact_velocity, 0.0))
    rates = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(rates) > 2.7  # cubic for quadratic elements


def test_outward_normal_rejects_interior_point():
    with pytest.raises(ValueError, match="not on the boundary"):
        oracles._outward_normal(np.array([[0.5, 0.5]]))


def test_as_vector_field_normalization():
    const = oracles.as_vector_field((0.0, -2.0))
    pts = np.zeros((3, 2))
    assert np.array_equal(const(pts), np.tile([0.0, -2.0], (3, 1)))
    with pytest.raises(ValueError):
        oracles.as_vector_field((1.0, 2.0, 3.0))
    fn = lambda p: p
    assert oracles.as_vector_field(fn) is fn


# ---------------------------------------------------------------------------
# form audit contract


def test_check_forms_zero_trials_empty_report(spaces_2x2):
    report = oracles.check_forms(spaces_2x2, trials=0)
    assert report.checks == ()
    assert report.constants is None
    assert report.passed


def test_check_forms_passes_and_seed_invariant(spaces_2x2):
    rep_a = oracles.check_forms(spaces_2x2, trials=5, seed=42)
    rep_b = oracles.check_forms(spaces_2x2, trials=5, seed=123)
    assert rep_a.passed and rep_b.passed
    names = [c.name for c in rep_a.checks]
    assert names == [c.name for c in rep_b.checks]
    assert "b_continuity" in names and "dual_norm_bound" in names
    assert rep_a.constants["c1"] > 0
    with pytest.raises(KeyError):
        rep_a.worst_of("no_such_check")


# ---------------------------------------------------------------------------
# study drivers (small smoke configurations; the full-budget runs live in
# the acceptance suite)


def test_convergence_study_rejects_too_few_levels():
    with pytest.raises(ValueError, match="3 levels"):
        oracles.convergence_study(constant_model(1.0, 1.0), levels=2)


SMALL_STUDY = {"levels": 3, "dt": 0.02, "t_end": 0.04, "base_n": 2}


def _small_problem():
    return oracles.make_mms_problem(constant_model(1.0, 1.0), beta=0.0)


@pytest.fixture(scope="module")
def small_runs():
    """One small refinement run shared by the report tests below."""
    return oracles.refinement_runs(_small_problem(), **SMALL_STUDY)


def test_convergence_study_structure_small(small_runs):
    report = oracles.convergence_report(small_runs)
    assert len(report.levels) == 3
    assert [lv.n for lv in report.levels] == [2, 4, 8]
    for lv in report.levels:
        assert lv.wall_clock > 0
        assert set(lv.errors) == set(oracles.RATE_TARGETS)
    for key in oracles.RATE_TARGETS:
        assert len(report.rates[key]) == 2
    # velocity errors must already shrink on these coarse levels
    evs = [lv.errors["velocity_l2"] for lv in report.levels]
    assert evs[2] < evs[0]


def test_cauchy_study_rejects_too_few_levels():
    problem = oracles.make_mms_problem(constant_model(1.0, 1.0))
    with pytest.raises(ValueError, match="3 levels"):
        oracles.cauchy_study(problem, levels=2)


def test_cauchy_study_structure_small(small_runs):
    report = oracles.cauchy_report(small_runs, dual_path=True)
    assert len(report.e_velocity) == 2 and len(report.e_temperature) == 2
    assert len(report.ratios_velocity) == 1
    assert report.pair_levels == ((9, 25), (25, 81))
    assert report.dual_path_gap is not None
    assert report.dual_path_gap < 1e-10
    assert all(e > 0 for e in report.e_velocity + report.e_temperature)


def test_reports_of_shared_runs_equal_the_studies(small_runs):
    conv = oracles.convergence_study(constant_model(1.0, 1.0), beta=0.0,
                                     **SMALL_STUDY)
    shared = oracles.convergence_report(small_runs)
    assert ([(lv.n, lv.h, lv.errors) for lv in shared.levels]
            == [(lv.n, lv.h, lv.errors) for lv in conv.levels])
    assert shared.rates == conv.rates
    assert shared.failures == conv.failures
    assert (shared.dt, shared.t_end) == (conv.dt, conv.t_end)
    # CauchyReport has no wall-clock field, so the whole report compares
    assert (oracles.cauchy_report(small_runs, dual_path=True)
            == oracles.cauchy_study(_small_problem(), dual_path=True,
                                    **SMALL_STUDY))


def test_refinement_runs_prefix_failures_with_level(spaces_4x4):
    problem = _small_problem()
    n4_points = spaces_4x4.quad_x.shape

    def f1(points, t):
        out = problem.f1(points, t)
        return out * np.nan if points.shape == n4_points else out

    bad = dataclasses.replace(problem, f1=f1)
    with pytest.raises(ValueError, match=r"^level 1 \(n=4\): non-finite"):
        oracles.refinement_runs(bad, **SMALL_STUDY)


def test_contraction_zero_forcing_contracts(spaces_4x4):
    problem = oracles.ProblemData(
        model=constant_model(1.0, 1.0), beta=0.0,
        g=lambda x: np.broadcast_to(np.array([0.0, -1.0]), x.shape),
        f1=lambda x, t: np.zeros(x.shape),
        f2=lambda x, t: np.zeros(x.shape[:-1]),
        v1=lambda x, t: np.zeros(x.shape[:-1]),
        v2=lambda x, t: np.zeros(x.shape[:-1]),
        z0=lambda x: oracles.exact_velocity(x, 0.0),
        w0=lambda x: x[:, 0] * np.sin(np.pi * x[:, 1]))
    config = SolverConfig(dt=0.05, t_end=0.15)
    delta = 1e-3
    report = oracles.contraction_study(spaces_4x4, problem, config, delta=delta)
    assert report.header == oracles.CONTRACTION_HEADER
    assert report.zero_forcing
    assert report.re_ra_below_one
    assert report.decay_checked
    assert report.monotone and report.gronwall_ok and report.decay_ok
    assert report.passed
    # both directions are L2-normalized, so D(0) = 2 delta^2
    assert report.distance[0] == pytest.approx(2 * delta ** 2, rel=1e-10)
    assert len(report.times) == len(report.distance) == 4
    assert len(report.growth) == 3


def test_contraction_forced_run_obeys_gronwall(spaces_4x4):
    model = CoefficientModel(tanh_blend_law(0.5, 2.0), tanh_blend_law(0.7, 1.3))
    problem = oracles.make_mms_problem(model, beta=0.5)
    config = SolverConfig(dt=0.02, t_end=0.06)
    report = oracles.contraction_study(spaces_4x4, problem, config)
    assert not report.zero_forcing
    assert not report.decay_checked
    assert report.gronwall_ok
    assert report.passed
    assert all(b >= report.distance[0] for b in report.gronwall_bound)

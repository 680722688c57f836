"""Manufactured-solution data, study drivers, and the form audit."""

import dataclasses
import functools
import multiprocessing
import multiprocessing.connection
import os
import time
import warnings

import numpy as np
import pytest
import sympy as sym

from bgs import build_rectangle_mesh, build_spaces
from bgs.coefficients import CoefficientModel, constant_model, tanh_blend_law
from bgs import forms, oracles
from bgs.solver import ProblemData, SolverConfig, run

from helpers_stencil import fd_axis, nested_forcings, nested_v2, rot_z


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
        div = (fd_axis(lambda q: oracles.exact_velocity(q, t)[..., 0], pts, 0)
               + fd_axis(lambda q: oracles.exact_velocity(q, t)[..., 1], pts, 1))
        assert np.max(np.abs(np.asarray(div, dtype=float))) < 1e-9


def _symbolic_forcings(gamma_expr_of_w, k_expr_of_w, beta, g_vec, sign=1.0):
    """f1 components, f2, the vorticity and the flux k(w) grad w, each a
    numpy function of (x, y, t)."""
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
    exprs = {"f1_1": f1_1, "f1_2": f1_2, "f2": f2, "rot": om,
             "flux_x": kk * sym.diff(w, x), "flux_y": kk * sym.diff(w, y)}
    return {key: sym.lambdify((x, y, t), e, "numpy")
            for key, e in exprs.items()}


def test_forcings_match_symbolic_constant_coefficients():
    problem = oracles.make_mms_problem(constant_model(1.0, 1.0), beta=0.0)
    sym_f = _symbolic_forcings(lambda w: sym.Integer(1),
                              lambda w: sym.Integer(1),
                              0.0, (0.0, -1.0))
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.1, 0.9, size=(10, 2))
    t = 0.3
    f1 = problem.f1(pts, t)
    f2 = problem.f2(pts, t)
    ref1 = np.stack([sym_f["f1_1"](pts[:, 0], pts[:, 1], t),
                     sym_f["f1_2"](pts[:, 0], pts[:, 1], t)], axis=-1)
    ref2 = sym_f["f2"](pts[:, 0], pts[:, 1], t)
    assert np.max(np.abs(f1 - ref1)) < 1e-12
    assert np.max(np.abs(f2 - ref2)) < 1e-12


def test_forcings_match_symbolic_tanh_coefficients():
    model = CoefficientModel(tanh_blend_law(0.5, 2.0), tanh_blend_law(0.7, 1.3))
    problem = oracles.make_mms_problem(model, beta=0.5)
    sym_f = _symbolic_forcings(
        lambda w: sym.Rational(1, 2) + sym.Rational(3, 2) * (1 + sym.tanh(w)) / 2,
        lambda w: sym.Rational(7, 10) + sym.Rational(3, 5) * (1 + sym.tanh(w)) / 2,
        0.5, (0.0, -1.0))
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.1, 0.9, size=(10, 2))
    t = 0.05
    f1 = problem.f1(pts, t)
    f2 = problem.f2(pts, t)
    ref1 = np.stack([sym_f["f1_1"](pts[:, 0], pts[:, 1], t),
                     sym_f["f1_2"](pts[:, 0], pts[:, 1], t)], axis=-1)
    ref2 = sym_f["f2"](pts[:, 0], pts[:, 1], t)
    assert np.max(np.abs(f1 - ref1)) < 1e-12
    assert np.max(np.abs(f2 - ref2)) < 1e-12


# ---------------------------------------------------------------------------
# closed-form forcing against the nested-stencil reference and sympy


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


_SIDE_NORMALS = {"left": (-1.0, 0.0), "right": (1.0, 0.0),
                 "bottom": (0.0, -1.0), "top": (0.0, 1.0)}


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("case", sorted(_FORCING_CASES))
def test_tabulated_forcing_matches_nested_stencil_and_symbolic(case, n):
    make_model, _, _, g, _, sign = _FORCING_CASES[case]
    model = make_model()
    problem = oracles.make_mms_problem(model, beta=0.5, g=g,
                                       buoyancy_sign=sign)
    ref_f1, ref_f2 = nested_forcings(model, beta=0.5, g=g, buoyancy_sign=sign)
    sym_f = _symbolic_case(case)
    pts = _quad_points(n)
    x, y = pts[..., 0], pts[..., 1]

    def check(got, ref, exact, what):
        for want, label, tol in ((ref, "nested", 1e-8), (exact, "sympy", 1e-12)):
            assert got.shape == want.shape
            err = np.max(np.abs(got - want))
            assert err < tol, f"{what} vs {label}: {err:.3e}"
        err = np.max(np.abs(ref - exact))
        assert err < 1e-8, f"{what}, nested vs sympy: {err:.3e}"

    for t in (0.0, 1e-3, 0.02, 0.1, 0.3):
        check(problem.f1(pts, t), ref_f1(pts, t),
              np.stack([sym_f["f1_1"](x, y, t), sym_f["f1_2"](x, y, t)],
                       axis=-1), f"f1 at t={t}")
        check(problem.f2(pts, t), ref_f2(pts, t), sym_f["f2"](x, y, t),
              f"f2 at t={t}")
        check(oracles.exact_rot(pts, t),
              np.asarray(rot_z(pts, t), dtype=float), sym_f["rot"](x, y, t),
              f"rot at t={t}")
        for side, (nx, ny) in _SIDE_NORMALS.items():
            edge = _edge_points(side, m=4 * n + 1)[1:-1]   # corners excluded
            ex, ey = edge[:, 0], edge[:, 1]
            check(problem.v2(edge, t), nested_v2(model, edge, t),
                  nx * sym_f["flux_x"](ex, ey, t)
                  + ny * sym_f["flux_y"](ex, ey, t), f"v2 {side} at t={t}")


def test_forcing_computes_spatial_parts_once_per_read_only_point_set(
        monkeypatch):
    spaces = build_spaces(build_rectangle_mesh(4, 4, ("left",)))
    problem = oracles.make_mms_problem(_tanh_model(), beta=0.5)
    real_parts = oracles._spatial_parts
    computed = []

    def counted(points):
        computed.append(points)
        return real_parts(points)

    monkeypatch.setattr(oracles, "_spatial_parts", counted)
    def on_copies(fn):      # writable copies of the points are never cached
        return lambda pts, t: fn(np.array(pts), t)

    uncached = dataclasses.replace(problem, f1=on_copies(problem.f1),
                                   f2=on_copies(problem.f2),
                                   v2=on_copies(problem.v2))

    def loads(data, t):
        return (forms.assemble_temperature_load(spaces, data.f2, data.v2, t),
                forms.assemble_velocity_load(spaces, data.f1, data.v1, t))

    times = (0.0, 1e-3, 0.02)
    for t in times:
        for got, want in zip(loads(problem, t), loads(uncached, t)):
            assert got.tobytes() == want.tobytes()
    # quad_x and the GAMMA2 points once each, and every uncached call
    assert sum(p is spaces.quad_x for p in computed) == 1
    assert sum(p is spaces.gamma2.qx for p in computed) == 1
    assert len(computed) == 2 + 3 * len(times)

    cache = oracles._SpatialPartsCache()
    parts = cache(spaces.quad_x)
    assert cache(spaces.quad_x) is parts
    with pytest.raises(TypeError):
        parts["w"] = None
    for arr in parts.values():
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1
    # only the last SIZE point sets stay
    computed.clear()
    others = [spaces.quad_x[k:] for k in range(1, cache.SIZE + 1)]
    for pts in others:
        cache(pts)
    cache(spaces.quad_x)
    cache(others[-1])
    assert len(computed) == cache.SIZE + 1


def test_exact_fields_separate_in_time():
    # the forcings differentiate the t=0 fields and scale them by
    # exp(-t): a term that is not a spatial field times exp(-t) must
    # fail here
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


def test_check_forms_pins_constants_and_dual_norm_bound(spaces_2x2):
    # dual_norm_bound and b_continuity calibrate their own constants, so
    # only a pinned value catches a wrong Gram solve in the dual norm or
    # a wrong H1 norm or sample order in the continuity check
    report = oracles.check_forms(spaces_2x2, trials=5, seed=42)
    assert report.constants["c1"] == pytest.approx(0.976363087182704, rel=1e-12)
    assert report.constants["c1_prime"] == pytest.approx(0.7211730887545281,
                                                         rel=1e-12)
    assert report.constants["d"] == pytest.approx(1.0000000000000002, rel=1e-12)
    assert report.worst_of("dual_norm_bound") == pytest.approx(
        0.25517904410688297, rel=1e-9)
    assert report.worst_of("b_continuity") == pytest.approx(
        0.002119904519446148, rel=1e-9)


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


def _dual_path_gap(runs) -> float:
    """The largest relative gap, over the states of every level pair,
    between the report's difference norms (the coarse state represented in
    the nested fine spaces) and the same norms taken on the fine quadrature,
    with the coarse fields evaluated at the fine quadrature points."""
    worst = 0.0
    for lc, lf in zip(runs.levels, runs.levels[1:]):
        coarse, fine = lc.spaces, lf.spaces
        at_nodes = forms.PointEvaluator(coarse, fine.node_coords)
        at_vertices = forms.PointEvaluator(coarse, fine.mesh.vertices)
        at_quad = forms.PointEvaluator(coarse, fine.quad_x.reshape(-1, 2))
        for sc, sf in zip(lc.states, lf.states):
            z_up, w_up = oracles._interp_up(at_nodes, at_vertices, sc)
            dz_ref = forms.l2_norm_sq(fine, forms.FieldVector(
                "velocity", sf.z.values - z_up.values)) ** 0.5
            dw_ref = forms.l2_norm_sq(fine, forms.FieldVector(
                "temperature", sf.w.values - w_up.values)) ** 0.5
            zc = at_quad.velocity(sc.z).reshape(fine.quad_x.shape)
            zf = forms.velocity_at_quadrature(fine, sf.z)
            dz = float(np.sum(fine.quad_w * ((zf - zc) ** 2).sum(axis=-1))) ** 0.5
            wc = at_quad.scalar(sc.w).reshape(fine.quad_w.shape)
            wf = forms.scalar_at_quadrature(fine, sf.w)
            dw = float(np.sum(fine.quad_w * (wf - wc) ** 2)) ** 0.5
            worst = max(worst, abs(dz - dz_ref) / max(dz_ref, 1e-30),
                        abs(dw - dw_ref) / max(dw_ref, 1e-30))
    return worst


def test_cauchy_study_structure_small(small_runs):
    report = oracles.cauchy_report(small_runs)
    assert len(report.e_velocity) == 2 and len(report.e_temperature) == 2
    assert len(report.ratios_velocity) == 1
    assert report.pair_levels == ((9, 25), (25, 81))
    assert _dual_path_gap(small_runs) < 1e-10
    assert all(e > 0 for e in report.e_velocity + report.e_temperature)


def test_cauchy_report_locates_each_point_set_once_per_pair(small_runs,
                                                           monkeypatch):
    real_locate = forms._locate
    located = []

    def counted(spaces, pts):
        located.append(len(pts))
        return real_locate(spaces, pts)

    monkeypatch.setattr(forms, "_locate", counted)
    report = oracles.cauchy_report(small_runs)
    monkeypatch.undo()
    levels = small_runs.levels
    # fine P2 nodes and fine vertices, per pair
    assert len(located) == 2 * (len(levels) - 1)

    # the distances equal those of locating the points for every state
    for k, (lc, lf) in enumerate(zip(levels, levels[1:])):
        fine = lf.spaces
        dz, dw = [], []
        for sc, sf in zip(lc.states, lf.states):
            zv = forms.evaluate_velocity(lc.spaces, sc.z, fine.node_coords)
            z_up = np.empty(fine.velocity_dim)
            z_up[0::2], z_up[1::2] = zv[:, 0], zv[:, 1]
            w_up = forms.evaluate_scalar(lc.spaces, sc.w, fine.mesh.vertices)
            dz.append(forms.l2_norm_sq(fine, forms.FieldVector(
                "velocity", sf.z.values - z_up)) ** 0.5)
            dw.append(forms.l2_norm_sq(fine, forms.FieldVector(
                "temperature", sf.w.values - w_up)) ** 0.5)
        assert report.e_velocity[k] == oracles._trapezoid_sq(dz, SMALL_STUDY["dt"])
        assert report.e_temperature[k] == oracles._trapezoid_sq(
            dw, SMALL_STUDY["dt"])


def test_cauchy_report_zero_distance_is_a_failure():
    def zero_vec(pts, t=0.0):
        return np.zeros(np.asarray(pts).shape)

    def zero_scalar(pts, t=0.0):
        return np.zeros(np.asarray(pts).shape[:-1])

    problem = ProblemData(model=constant_model(1.0, 1.0), beta=0.0,
                          g=oracles.as_vector_field((0.0, -1.0)),
                          f1=zero_vec, f2=zero_scalar, v1=zero_scalar,
                          v2=zero_scalar, z0=zero_vec, w0=zero_scalar)
    runs = oracles.refinement_runs(problem, levels=3, dt=0.05, t_end=0.1,
                                   base_n=2)
    report = oracles.cauchy_report(runs)
    assert report.e_velocity == (0.0, 0.0) and report.e_temperature == (0.0, 0.0)
    assert np.isnan(report.ratios_velocity[0])
    assert np.isnan(report.ratios_temperature[0])
    assert report.failures == (
        "velocity pair 0: coarser distance is 0, ratio undefined",
        "temperature pair 0: coarser distance is 0, ratio undefined")
    assert not report.passed


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
    assert (oracles.cauchy_report(small_runs)
            == oracles.cauchy_study(_small_problem(), **SMALL_STUDY))


def _quad_shape(n):
    return build_spaces(build_rectangle_mesh(n, n, ("left",))).quad_x.shape


def _forcing_hook(problem, ns, hook):
    """problem with f1's values passed through hook on the quadrature
    points of the n x n meshes, n in ns."""
    shapes = {_quad_shape(n) for n in ns}

    def f1(points, t):
        out = problem.f1(points, t)
        return hook(out) if points.shape in shapes else out
    return dataclasses.replace(problem, f1=f1)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))


def _tanh_problem():
    model = CoefficientModel(tanh_blend_law(0.5, 2.0), tanh_blend_law(0.7, 1.3))
    return oracles.make_mms_problem(model, beta=0.5)


@pytest.fixture(scope="module")
def direct_small_runs():
    """solver.run on freshly built meshes of the SMALL_STUDY levels."""
    config = SolverConfig(dt=SMALL_STUDY["dt"], t_end=SMALL_STUDY["t_end"])
    return [run(build_spaces(build_rectangle_mesh(n, n, ("left",))),
                _tanh_problem(), config)[0] for n in (2, 4, 8)]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_refinement_runs_are_the_serial_runs_on_any_lane_count(
        monkeypatch, direct_small_runs, cpus):
    _cpus(monkeypatch, cpus)
    started = []
    start = multiprocessing.process.BaseProcess.start
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        lambda proc: (started.append(proc), start(proc)))
    runs = oracles.refinement_runs(_tanh_problem(), **SMALL_STUDY)
    assert len(started) == cpus - 1
    assert multiprocessing.active_children() == []
    for lv, direct in zip(runs.levels, direct_small_runs):
        assert lv.wall_clock > 0
        assert len(lv.states) == len(direct) == 3
        for got, want in zip(lv.states, direct):
            assert got.t == want.t
            for name in ("z", "w", "P"):
                assert (getattr(got, name).values.tobytes()
                        == getattr(want, name).values.tobytes())


def test_refinement_runs_prefix_failures_with_level(monkeypatch):
    # (failing n, CPUs, level reported): with 2 CPUs n=8 runs in a child,
    # with 3 both n=4 and n=8 do
    cases = [((4,), 1, r"level 1 \(n=4\)"), ((4,), 2, r"level 1 \(n=4\)"),
             ((8,), 2, r"level 2 \(n=8\)"), ((4, 8), 2, r"level 1 \(n=4\)"),
             ((4, 8), 3, r"level 1 \(n=4\)")]
    for failing, cpus, level in cases:
        _cpus(monkeypatch, cpus)
        bad = _forcing_hook(_small_problem(), failing, lambda out: out * np.nan)
        with pytest.raises(ValueError, match=f"^{level}: non-finite"):
            oracles.refinement_runs(bad, **SMALL_STUDY)
        assert multiprocessing.active_children() == []


def test_refinement_runs_report_a_child_that_dies(monkeypatch):
    parent = os.getpid()

    def die(out):
        if os.getpid() != parent:
            os._exit(3)
        return out

    _cpus(monkeypatch, 2)
    bad = _forcing_hook(_small_problem(), (8,), die)
    with pytest.raises(RuntimeError, match=r"^level 2 \(n=8\): child process "
                                           r"exited with code 3"):
        oracles.refinement_runs(bad, **SMALL_STUDY)
    assert multiprocessing.active_children() == []


def test_refinement_runs_stop_children_on_interrupt(monkeypatch):
    def interrupt(out):
        raise KeyboardInterrupt

    _cpus(monkeypatch, 3)
    bad = _forcing_hook(_small_problem(), (2,), interrupt)
    with pytest.raises(KeyboardInterrupt):
        oracles.refinement_runs(bad, **SMALL_STUDY)
    assert multiprocessing.active_children() == []


def test_refinement_runs_stop_children_on_interrupt_while_waiting(
        monkeypatch):
    parent = os.getpid()

    def stall(out):
        if os.getpid() != parent:
            time.sleep(30)
        return out

    def interrupt(connection):
        raise KeyboardInterrupt

    # the n=8 child stalls; the interrupt reaches the caller as it waits
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(multiprocessing.connection.Connection, "recv",
                        interrupt)
    slow = _forcing_hook(_small_problem(), (8,), stall)
    tic = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        oracles.refinement_runs(slow, **SMALL_STUDY)
    assert multiprocessing.active_children() == []
    assert time.perf_counter() - tic < 20


def test_refinement_runs_carry_a_childs_traceback(monkeypatch):
    def fail_here(out):
        raise ZeroDivisionError("forcing failed")

    _cpus(monkeypatch, 2)
    bad = _forcing_hook(_small_problem(), (8,), fail_here)
    with pytest.raises(ZeroDivisionError,
                       match=r"^level 2 \(n=8\): forcing failed") as info:
        oracles.refinement_runs(bad, **SMALL_STUDY)
    remote = str(info.value.__cause__.__cause__)
    assert "in fail_here" in remote and "in run" in remote


class _Unpicklable(ValueError):
    def __init__(self, message, handle):
        super().__init__(message)
        self.handle = handle


def test_refinement_runs_report_an_unpicklable_failure(monkeypatch):
    def fail(out):
        raise _Unpicklable("no pickle", lambda: None)

    _cpus(monkeypatch, 2)
    bad = _forcing_hook(_small_problem(), (8,), fail)
    with pytest.raises(RuntimeError, match=r"^level 2 \(n=8\): _Unpicklable: "
                                           r"no pickle"):
        oracles.refinement_runs(bad, **SMALL_STUDY)
    assert multiprocessing.active_children() == []


def test_refinement_runs_pass_on_a_childs_warnings(monkeypatch):
    def warn(out):
        warnings.warn("forcing evaluated on n=8", UserWarning)
        return out

    _cpus(monkeypatch, 2)
    hooked = _forcing_hook(_small_problem(), (8,), warn)
    with pytest.warns(UserWarning, match="on n=8") as caught:
        oracles.refinement_runs(hooked, **SMALL_STUDY)
    assert caught[0].filename == __file__
    # a module filter applies to the child's warning as to a serial run's
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.filterwarnings("error", module=__name__)
        with pytest.raises(UserWarning, match="on n=8"):
            oracles.refinement_runs(hooked, **SMALL_STUDY)
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# the form audit's fresh-sample verifications, forked


def _audit_bytes(report):
    return ([(c.name, c.worst.hex(), c.tol, c.passed) for c in report.checks],
            {key: value.hex() for key, value in report.constants.items()})


def _count_starts(monkeypatch):
    started = []
    start = multiprocessing.process.BaseProcess.start
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        lambda proc: (started.append(proc), start(proc)))
    return started


def _in_child_only(monkeypatch, hook):
    """forms.trilinear_b, which the audit's child evaluates, calling hook
    first when called in a child."""
    parent, original = os.getpid(), forms.trilinear_b

    def trilinear_b(*args):
        if os.getpid() != parent:
            hook()
        return original(*args)
    monkeypatch.setattr(forms, "trilinear_b", trilinear_b)


def test_check_forms_is_the_same_report_on_any_lane_count(monkeypatch,
                                                          spaces_4x4):
    started = _count_starts(monkeypatch)
    reports = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        reports.append(_audit_bytes(
            oracles.check_forms(spaces_4x4, trials=5, seed=7)))
        assert len(started) == cpus - 1
        assert multiprocessing.active_children() == []
    assert reports[0] == reports[1]
    names = [name for name, *_ in reports[0][0]]
    assert names[5:7] == ["b_continuity", "dual_norm_bound"]


def test_check_forms_carries_a_childs_failure(monkeypatch, spaces_2x2):
    def fail_here():
        raise ZeroDivisionError("b failed")

    _cpus(monkeypatch, 2)
    _in_child_only(monkeypatch, fail_here)
    with pytest.raises(ZeroDivisionError, match="^b failed$") as info:
        oracles.check_forms(spaces_2x2, trials=5)
    remote = str(info.value.__cause__)
    assert "in fail_here" in remote and "in fresh_samples" in remote
    assert multiprocessing.active_children() == []


def test_check_forms_stops_its_child_on_interrupt_while_waiting(
        monkeypatch, spaces_2x2):
    def interrupt(connection):
        raise KeyboardInterrupt

    _cpus(monkeypatch, 2)
    _in_child_only(monkeypatch, lambda: time.sleep(30))
    monkeypatch.setattr(multiprocessing.connection.Connection, "recv",
                        interrupt)
    tic = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        oracles.check_forms(spaces_2x2, trials=5)
    assert multiprocessing.active_children() == []
    assert time.perf_counter() - tic < 20


def test_check_forms_passes_on_its_childs_warnings(monkeypatch, spaces_2x2):
    def warn():
        warnings.warn("b evaluated in the audit's child", UserWarning)

    _cpus(monkeypatch, 2)
    _in_child_only(monkeypatch, warn)
    with pytest.warns(UserWarning, match="audit's child") as caught:
        report = oracles.check_forms(spaces_2x2, trials=5)
    assert report.passed
    assert caught[0].filename == __file__
    assert multiprocessing.active_children() == []


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

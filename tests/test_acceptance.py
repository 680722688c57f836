"""End-to-end acceptance checks, one test per release criterion.

Each test emits a single verdict line outside the capture machinery so
the eight outcomes are visible in a plain ``pytest -v`` run.
"""

import functools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import bgs
from bgs import build_rectangle_mesh, build_spaces
from bgs.coefficients import CoefficientModel, constant_model, tanh_blend_law
from bgs import forms, oracles
from bgs.solver import (
    ProblemData,
    SolverConfig,
    State,
    compute_diagnostics,
    initialize_state,
    run,
    step,
)

import helpers_dense as hd


TANH_MODEL = CoefficientModel(viscosity=tanh_blend_law(0.5, 2.0),
                              conductivity=tanh_blend_law(0.7, 1.3))


def _verdict(capfd, num: int, label: str, ok: bool) -> None:
    with capfd.disabled():
        print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}",
              flush=True)


def _zero_vec(x, t=None):
    return np.zeros(x.shape[:-1] + (2,))


def _zero_scalar(x, t=None):
    return np.zeros(x.shape[:-1])


def unforced_problem(beta: float, amp: float = 1.0) -> ProblemData:
    """Zero forcing and boundary data; smooth nontrivial initial fields."""
    return ProblemData(
        model=constant_model(1.0, 1.0),
        beta=beta,
        g=lambda x: np.broadcast_to(np.array([0.0, -1.0]), x.shape),
        f1=_zero_vec, f2=_zero_scalar, v1=_zero_scalar, v2=_zero_scalar,
        z0=lambda x: amp * oracles.exact_velocity(x, 0.0),
        w0=lambda x: amp * x[:, 0] * np.sin(np.pi * x[:, 1]))


def _monotone_nonincreasing(series) -> bool:
    return all(b <= a for a, b in zip(series, series[1:]))


# ---------------------------------------------------------------------------
# 1: structural audit of the assembled forms


def test_criterion_1_form_audit(capfd):
    ok = False
    try:
        spaces = build_spaces(build_rectangle_mesh(4, 4, ("left",)))
        report = oracles.check_forms(spaces, trials=100, seed=42)
        assert report.passed, [c.name for c in report.checks if not c.passed]
        assert report.worst_of("skew_velocity_advection") <= 1e-13
        assert report.worst_of("skew_temperature_advection") <= 1e-13
        assert report.worst_of("symmetry_mass") == 0.0
        assert report.worst_of("symmetry_diffusion") == 0.0
        assert report.constants["c1"] > 0.0
        assert report.constants["c1_prime"] > 0.0
        dual = next(c for c in report.checks if c.name == "dual_norm_bound")
        assert dual.passed
        ok = True
    finally:
        _verdict(capfd, 1, "form audit", ok)


# ---------------------------------------------------------------------------
# 2: discrete energy decay, plus the buoyant exponential bound


def test_criterion_2_energy_decay_and_buoyant_bound(capfd):
    ok = False
    try:
        spaces = build_spaces(build_rectangle_mesh(16, 16, ("left",)))
        config = SolverConfig(dt=1e-2, t_end=0.5)
        assert config.num_steps == 50

        problem = unforced_problem(beta=0.0)
        states, diags = run(spaces, problem, config)
        start = compute_diagnostics(spaces, states[0],
                                    config.constants_for_re_ra, problem.model)
        kinetic = [start.kinetic] + [d.kinetic for d in diags]
        thermal = [start.thermal] + [d.thermal for d in diags]
        assert len(diags) == 50
        assert _monotone_nonincreasing(kinetic)
        assert _monotone_nonincreasing(thermal)

        buoyant = unforced_problem(beta=1.0)
        states, diags = run(spaces, buoyant, config)
        start = compute_diagnostics(spaces, states[0],
                                    config.constants_for_re_ra, buoyant.model)
        thermal = [start.thermal] + [d.thermal for d in diags]
        assert _monotone_nonincreasing(thermal)

        g_inf = 1.0
        kin0 = start.kinetic
        acc = 0.0   # running sum of |w^k|^2 dt over completed steps
        for n, diag in enumerate(diags, start=1):
            t = n * config.dt
            acc += diag.thermal * config.dt
            bound = ((kin0 + t * buoyant.beta * g_inf * acc)
                     * math.exp(buoyant.beta * t * g_inf))
            assert diag.kinetic <= bound
        ok = True
    finally:
        _verdict(capfd, 2, "energy decay and buoyant bound", ok)


# ---------------------------------------------------------------------------
# 3 and 4 read the same refinement trajectories


@pytest.fixture(scope="module")
def mms_runs():
    """The manufactured problem on meshes 4/8/16, integrated at most once.

    The run starts inside the first test that calls it, so a failure
    still reaches that test's verdict line.
    """
    return functools.cache(lambda: oracles.refinement_runs(
        oracles.make_mms_problem(TANH_MODEL), levels=3, dt=1e-3, t_end=0.1,
        base_n=4))


# ---------------------------------------------------------------------------
# 3: manufactured-solution convergence rates


def test_criterion_3_mms_convergence_rates(capfd, mms_runs):
    ok = False
    try:
        report = oracles.convergence_report(mms_runs())
        assert report.passed, report.failures
        for key, target in report.targets.items():
            series = [lv.errors[key] for lv in report.levels]
            assert all(b < a for a, b in zip(series, series[1:])), (key, series)
            assert report.rates[key][-1] >= target, (key, report.rates[key])
        ok = True
    finally:
        _verdict(capfd, 3, "mms convergence rates", ok)


# ---------------------------------------------------------------------------
# 4: Cauchy property of the refinement sequence


def test_criterion_4_cauchy_refinement_ratios(capfd, mms_runs):
    ok = False
    try:
        report = oracles.cauchy_report(mms_runs())
        assert report.passed, report.failures
        assert len(report.e_velocity) == 2
        assert len(report.ratios_velocity) == 1
        assert len(report.ratios_temperature) == 1
        assert all(r <= 0.6 for r in report.ratios_velocity), \
            report.ratios_velocity
        assert all(r <= 0.6 for r in report.ratios_temperature), \
            report.ratios_temperature
        ok = True
    finally:
        _verdict(capfd, 4, "cauchy refinement ratios", ok)


# ---------------------------------------------------------------------------
# 5: contraction of nearby trajectories, Gronwall bound, Re/Ra arithmetic


def test_criterion_5_uniqueness_contraction(capfd):
    ok = False
    try:
        spaces = build_spaces(build_rectangle_mesh(8, 8, ("left",)))
        config = SolverConfig(dt=1e-2, t_end=0.1)

        # half-amplitude start keeps Re+Ra below 1 from the first step on,
        # the regime where the contraction statement applies
        calm = oracles.contraction_study(spaces, unforced_problem(0.0, amp=0.5),
                                         config, delta=1e-3)
        assert calm.zero_forcing
        assert calm.re_ra_below_one
        assert calm.distance[0] > 0.0
        assert _monotone_nonincreasing(calm.distance)
        assert calm.passed, calm.failures

        forced = oracles.contraction_study(
            spaces, oracles.make_mms_problem(TANH_MODEL), config, delta=1e-3)
        assert not forced.zero_forcing
        assert forced.gronwall_ok
        assert forced.passed, forced.failures
        assert len(forced.re_plus_ra) == config.num_steps
        assert all(math.isfinite(v) for v in forced.re_plus_ra)

        # hand arithmetic: |z|_L4 = 0.1 and |w|_L4^2 = 0.05 with unit
        # constants give Re = 0.4, Ra = 0.2
        z = forms.interpolate_velocity(spaces, lambda x, t: np.broadcast_to(
            np.array([0.1, 0.0]), (len(x), 2)))
        w = forms.interpolate_scalar(
            spaces, lambda x, t: np.full(len(x), math.sqrt(0.05)))
        state = State(t=0.0, z=z, w=w, P=forms.zeros_field(spaces, "head"))
        diag = compute_diagnostics(spaces, state,
                                   {"c1": 1.0, "c1_prime": 1.0, "d": 1.0},
                                   constant_model(1.0, 1.0))
        assert abs(diag.Re - 0.4) < 1e-12
        assert abs(diag.Ra - 0.2) < 1e-12
        assert abs(diag.Re_plus_Ra - 0.6) < 1e-12
        ok = True
    finally:
        _verdict(capfd, 5, "uniqueness contraction", ok)


# ---------------------------------------------------------------------------
# 6: first-order accuracy in time


def test_criterion_6_dt_halving_error_ratio(capfd):
    ok = False
    try:
        spaces = build_spaces(build_rectangle_mesh(16, 16, ("left",)))
        problem = oracles.make_mms_problem(TANH_MODEL)
        errors = []
        for dt in (0.25, 0.125):
            config = SolverConfig(dt=dt, t_end=0.5)
            states, _ = run(spaces, problem, config)
            errors.append(forms.scalar_l2_error(
                spaces, states[-1].w, oracles.exact_temperature, 0.5))
        ratio = errors[0] / errors[1]
        assert 1.7 <= ratio <= 2.3, (errors, ratio)
        ok = True
    finally:
        _verdict(capfd, 6, "dt halving error ratio", ok)


# ---------------------------------------------------------------------------
# 7: run-to-run determinism of the CSV output


def _cli_run_bytes(tmp_path, name: str) -> bytes:
    outdir = tmp_path / name
    cfg = {
        "mesh": {"nx": 8, "ny": 8, "gamma1_sides": ["left"], "refinements": 0},
        "data": {"problem": "cavity_convection"},
        "physics": {"beta": 1.0},
        "time": {"dt": 0.05, "t_end": 0.25},
        "output": {"directory": str(outdir)},
    }
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    # the child process imports the same bgs as this test
    src = os.path.dirname(os.path.dirname(bgs.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from bgs.cli import main; sys.exit(main(sys.argv[1:]))",
         "run", "--config", str(cfg_path)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return (outdir / "diagnostics.csv").read_bytes()


def test_criterion_7_determinism(tmp_path, capfd):
    ok = False
    try:
        first = _cli_run_bytes(tmp_path, "first")
        second = _cli_run_bytes(tmp_path, "second")
        assert first == second
        ok = True
    finally:
        _verdict(capfd, 7, "determinism", ok)


# ---------------------------------------------------------------------------
# 8: one semi-implicit step against the dense-path oracle


def test_criterion_8_dense_oracle_cross_check(capfd):
    ok = False
    try:
        mesh = build_rectangle_mesh(2, 2, ("left",))
        spaces = build_spaces(mesh)
        problem = ProblemData(
            model=constant_model(1.3, 0.9),
            beta=0.7,
            g=lambda x: np.broadcast_to(np.array([0.0, -1.0]), x.shape),
            f1=lambda x, t: np.stack(
                [x[..., 0] * x[..., 1] + t, x[..., 1] ** 2 - 0.5], axis=-1),
            f2=lambda x, t: x[..., 0] + 2.0 * x[..., 1] - t,
            v1=lambda x, t: x[..., 1] ** 3 + 0.25 * t,
            v2=lambda x, t: 0.5 - x[..., 0] + x[..., 1],
            z0=lambda x: np.stack([x[:, 1] ** 2, x[:, 0] * x[:, 1]], axis=-1),
            w0=lambda x: x[:, 0] + x[:, 1])
        dt = 0.1
        state0 = initialize_state(spaces, problem)
        config = SolverConfig(dt=dt, t_end=dt)
        state1, diag = step(spaces, problem, config, state0)

        z_ref, w_ref, p_ref, passes = hd.dense_semi_implicit_step(
            mesh, problem, dt, dt, state0.z.values.copy(),
            state0.w.values.copy())
        assert np.max(np.abs(state1.z.values - z_ref)) < 1e-10
        assert np.max(np.abs(state1.w.values - w_ref)) < 1e-10
        assert np.max(np.abs(state1.P.values - p_ref)) < 1e-10
        assert diag.picard_iters == passes
        ok = True
    finally:
        _verdict(capfd, 8, "dense oracle cross-check", ok)

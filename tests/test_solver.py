"""Time stepping, diagnostics, constants estimation, error handling."""

import dataclasses
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bgs import build_rectangle_mesh, build_spaces
from bgs.coefficients import CoefficientModel, constant_model, tanh_blend_law
from bgs import forms, oracles, solver
from bgs.solver import (
    Diagnostics,
    ProblemData,
    SolverConfig,
    SolverError,
    State,
    compute_diagnostics,
    estimate_constants,
    initialize_state,
    run,
    step,
)

import helpers_coo as hc
import helpers_dense as hd


def _zero_vec(x, t=None):
    return np.zeros(x.shape[:-1] + (2,))


def _zero_scalar(x, t=None):
    return np.zeros(x.shape[:-1])


def zero_problem(model=None, beta=0.0):
    return ProblemData(
        model=model or constant_model(1.0, 1.0),
        beta=beta,
        g=lambda x: np.broadcast_to(np.array([0.0, -1.0]), x.shape),
        f1=_zero_vec, f2=_zero_scalar, v1=_zero_scalar, v2=_zero_scalar,
        z0=lambda x: np.zeros((len(x), 2)),
        w0=lambda x: np.zeros(len(x)))


def cavity_problem(beta=0.0):
    return ProblemData(
        model=constant_model(1.0, 1.0),
        beta=beta,
        g=lambda x: np.broadcast_to(np.array([0.0, -1.0]), x.shape),
        f1=_zero_vec, f2=_zero_scalar, v1=_zero_scalar, v2=_zero_scalar,
        z0=lambda x: oracles.exact_velocity(x, 0.0),
        w0=lambda x: x[:, 0] * np.sin(np.pi * x[:, 1]))


# ---------------------------------------------------------------------------
# configuration and data validation


def test_solver_config_rejects_bad_values():
    good = dict(dt=0.1, t_end=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, t_end=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=2.0, t_end=1.0)
    with pytest.raises(ValueError):
        SolverConfig(picard_max=0, **good)
    with pytest.raises(ValueError):
        SolverConfig(picard_tol=0.0, **good)
    with pytest.raises(ValueError):
        SolverConfig(constants_for_re_ra={"c1": -1.0}, **good)
    with pytest.raises(ValueError):
        SolverConfig(constants_for_re_ra={"c9": 1.0}, **good)


def test_num_steps_rounding():
    assert SolverConfig(dt=0.01, t_end=0.5).num_steps == 50
    assert SolverConfig(dt=0.1, t_end=1.0).num_steps == 10
    assert SolverConfig(dt=1.0 / 3.0, t_end=1.0).num_steps == 3
    assert SolverConfig(dt=0.1, t_end=0.1).num_steps == 1
    assert SolverConfig(dt=1e-3, t_end=0.1).num_steps == 100


def test_t_end_must_be_whole_number_of_steps():
    # 0.1/0.03 would round up to 4 steps and end the run at t=0.12
    with pytest.raises(ValueError, match="whole number"):
        SolverConfig(dt=0.03, t_end=0.1)
    with pytest.raises(ValueError, match="whole number"):
        SolverConfig(dt=0.1, t_end=0.25)


def test_problem_data_validation():
    with pytest.raises(ValueError):
        zero = zero_problem()
        ProblemData(**{**zero.__dict__, "beta": -1.0})
    with pytest.raises(ValueError):
        zero = zero_problem()
        ProblemData(**{**zero.__dict__, "buoyancy_sign": 0.5})


def test_initialize_state_applies_constraints(spaces_2x2):
    problem = ProblemData(
        model=constant_model(1.0, 1.0), beta=0.0,
        g=lambda x: np.zeros(x.shape),
        f1=_zero_vec, f2=_zero_scalar, v1=_zero_scalar, v2=_zero_scalar,
        z0=lambda x: np.ones((len(x), 2)),
        w0=lambda x: np.ones(len(x)))
    state = initialize_state(spaces_2x2, problem)
    assert state.t == 0.0
    assert np.all(state.z.values[spaces_2x2.fixed_velocity_dofs] == 0.0)
    assert np.all(state.w.values[spaces_2x2.fixed_temperature_dofs] == 0.0)
    assert np.array_equal(state.P.values, np.zeros(spaces_2x2.head_dim))


# ---------------------------------------------------------------------------
# fixed points and decay


def test_zero_problem_is_exact_fixed_point(spaces_2x2):
    config = SolverConfig(dt=0.1, t_end=0.3)
    states, diags = run(spaces_2x2, zero_problem(), config)
    assert len(states) == 4 and len(diags) == 3
    for st in states[1:]:
        assert np.array_equal(st.z.values, np.zeros(spaces_2x2.velocity_dim))
        assert np.array_equal(st.w.values, np.zeros(spaces_2x2.temperature_dim))
    for d in diags:
        assert d.kinetic == 0.0 and d.thermal == 0.0
        assert d.rot_seminorm2 == 0.0 and d.grad_w_norm2 == 0.0
        assert d.z_L4 == 0.0 and d.w_L4 == 0.0
        assert d.Re == 0.0 and d.Ra == 0.0 and d.Re_plus_Ra == 0.0
        assert d.div_residual == 0.0
        assert d.picard_iters == 2  # second pass certifies the fixed point


def test_unforced_norms_decay(spaces_4x4):
    config = SolverConfig(dt=0.05, t_end=0.25)
    states, diags = run(spaces_4x4, cavity_problem(), config)
    kinetic = [forms.l2_norm_sq(spaces_4x4, states[0].z)] + [
        d.kinetic for d in diags]
    thermal = [forms.l2_norm_sq(spaces_4x4, states[0].w)] + [
        d.thermal for d in diags]
    assert kinetic[0] > 0 and thermal[0] > 0
    assert all(b <= a for a, b in zip(kinetic, kinetic[1:]))
    assert all(b <= a for a, b in zip(thermal, thermal[1:]))
    for d in diags:
        assert d.div_residual <= 1e-8 * (1.0 + np.sqrt(d.kinetic))
        assert d.picard_converged


def test_t_end_equal_dt_is_one_step(spaces_2x2):
    states, diags = run(spaces_2x2, cavity_problem(),
                        SolverConfig(dt=0.1, t_end=0.1))
    assert len(diags) == 1
    assert states[-1].t == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# diagnostics arithmetic


def test_re_ra_spot_values(spaces_2x2):
    z = forms.interpolate_velocity(spaces_2x2, lambda x, t: np.broadcast_to(
        np.array([0.1, 0.0]), (len(x), 2)))
    b = np.sqrt(0.05)
    w = forms.interpolate_scalar(spaces_2x2, lambda x, t: np.full(len(x), b))
    state = State(t=0.0, z=z, w=w, P=forms.zeros_field(spaces_2x2, "head"))
    d = compute_diagnostics(spaces_2x2, state,
                            {"c1": 1.0, "c1_prime": 1.0, "d": 1.0},
                            constant_model(1.0, 1.0))
    assert d.Re == pytest.approx(0.4, abs=1e-12)
    assert d.Ra == pytest.approx(0.2, abs=1e-12)
    assert d.Re_plus_Ra == pytest.approx(0.6, abs=1e-12)


def test_re_ra_scale_with_constants(spaces_2x2):
    state = initialize_state(spaces_2x2, cavity_problem())
    base = compute_diagnostics(spaces_2x2, state, None, constant_model(1.0, 1.0))
    halved = compute_diagnostics(spaces_2x2, state, {"c1": 2.0},
                                 constant_model(1.0, 1.0))
    assert halved.Re == pytest.approx(base.Re / 2.0, rel=1e-12)
    assert halved.Ra == pytest.approx(base.Ra / 2.0, rel=1e-12)


def test_diagnostics_csv_fields_order():
    assert Diagnostics.CSV_FIELDS == (
        "t", "kinetic", "thermal", "rot_seminorm2", "grad_w_norm2",
        "z_L4", "w_L4", "Re", "Ra", "Re_plus_Ra", "div_residual",
        "picard_iters")


# ---------------------------------------------------------------------------
# constants estimation


def test_estimate_constants_positive_and_ordered():
    coarse = build_spaces(build_rectangle_mesh(2, 2, ("left",)))
    fine = build_spaces(build_rectangle_mesh(4, 4, ("left",)))
    c_coarse = estimate_constants(coarse)
    c_fine = estimate_constants(fine)
    for c in (c_coarse, c_fine):
        assert c["c1"] > 0 and c["c1_prime"] > 0 and c["d"] > 0
        assert c["c1"] < 1.0 and c["c1_prime"] < 1.0
    # richer spaces can only shrink the coercivity minimum and grow
    # the Sobolev ratio (nested-space monotonicity, small slack)
    assert c_fine["c1_prime"] <= c_coarse["c1_prime"] + 1e-8
    assert c_fine["d"] >= c_coarse["d"] - 1e-8
    # the constant function already achieves an L4/H1 ratio of 1
    assert c_coarse["d"] >= 1.0 - 1e-12


@pytest.mark.parametrize("n, sides", [(2, ("left",)), (4, ("left",)),
                                      (8, ("left",)), (4, ("left", "top"))])
def test_estimate_constants_match_dense_reference(n, sides):
    spaces = build_spaces(build_rectangle_mesh(n, n, sides))
    sparse = estimate_constants(spaces)
    dense = hd.dense_coercivity_constants(spaces)
    for key in ("c1", "c1_prime"):
        assert sparse[key] == pytest.approx(dense[key], rel=1e-12, abs=0)


@pytest.mark.parametrize("sides, message", [
    (("left",), "no discretely divergence-free velocity directions"),
    (("left", "bottom"), "fewer than two free temperature dofs")])
def test_estimate_constants_on_1x1_mesh_raises(sides, message):
    spaces = build_spaces(build_rectangle_mesh(1, 1, sides))
    with pytest.raises(np.linalg.LinAlgError, match=message):
        estimate_constants(spaces)


def test_estimate_constants_n32_refines_n16():
    coarse, fine = (estimate_constants(
        build_spaces(build_rectangle_mesh(n, n, ("left",)))) for n in (16, 32))
    assert fine["c1"] <= coarse["c1"] + 1e-12
    assert fine["c1_prime"] <= coarse["c1_prime"] + 1e-12
    assert fine["c1"] == pytest.approx(0.9748256, abs=1e-6)


# ---------------------------------------------------------------------------
# stepping against manufactured data


def test_step_tracks_manufactured_solution(spaces_4x4):
    model = CoefficientModel(tanh_blend_law(0.5, 2.0), tanh_blend_law(0.8, 1.2))
    problem = oracles.make_mms_problem(model)
    config = SolverConfig(dt=1e-3, t_end=1e-3)
    states, diags = run(spaces_4x4, problem, config)
    err_z = forms.velocity_l2_error(spaces_4x4, states[-1].z,
                                    oracles.exact_velocity, states[-1].t)
    err_w = forms.scalar_l2_error(spaces_4x4, states[-1].w,
                                  oracles.exact_temperature, states[-1].t)
    # one step from exact data: discretization error only (h^2 level)
    assert err_z < 0.01
    assert err_w < 0.05
    assert diags[-1].picard_converged


def test_picard_warning_when_iteration_budget_too_small(spaces_4x4):
    problem = oracles.make_mms_problem(
        CoefficientModel(tanh_blend_law(0.5, 2.0), tanh_blend_law(0.8, 1.2)),
        beta=1.0)
    config = SolverConfig(dt=0.05, t_end=0.05, picard_max=2, picard_tol=1e-14)
    with pytest.warns(RuntimeWarning, match="Picard"):
        _, diags = run(spaces_4x4, problem, config)
    assert not diags[-1].picard_converged


def test_picard_max_one_is_one_converged_pass(spaces_4x4):
    problem = oracles.make_mms_problem(
        CoefficientModel(tanh_blend_law(0.5, 2.0), tanh_blend_law(0.8, 1.2)),
        beta=1.0)
    config = SolverConfig(dt=0.05, t_end=0.1, picard_max=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, diags = run(spaces_4x4, problem, config)
    assert [d.picard_iters for d in diags] == [1, 1]
    assert all(d.picard_converged for d in diags)


def test_run_prefixes_failures_with_step_index(spaces_2x2, monkeypatch):
    from bgs import solver as solver_mod

    real_step = solver_mod.step

    def failing_step(spaces, problem, config, state, t_next=None, operators=None):
        if t_next is not None and abs(t_next - 0.2) < 1e-12:
            raise SolverError("velocity/head stage: induced failure")
        return real_step(spaces, problem, config, state,
                         t_next=t_next, operators=operators)

    monkeypatch.setattr(solver_mod, "step", failing_step)
    with pytest.raises(SolverError, match=r"step 2 \(t=0.2\)"):
        run(spaces_2x2, cavity_problem(), SolverConfig(dt=0.1, t_end=0.3))


# ---------------------------------------------------------------------------
# independent dense reassembly of one full step


def _assert_step_matches_dense_oracle():
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
        mesh, problem, dt, dt, state0.z.values.copy(), state0.w.values.copy())
    tol = 1e-10
    assert np.max(np.abs(state1.z.values - z_ref)) < tol
    assert np.max(np.abs(state1.w.values - w_ref)) < tol
    assert np.max(np.abs(state1.P.values - p_ref)) < tol
    assert diag.picard_iters == passes
    return passes


def test_single_step_matches_dense_oracle():
    _assert_step_matches_dense_oracle()


# ---------------------------------------------------------------------------
# lagged saddle factor: GMRES on later Picard passes, direct fallback


def _krylov_never_converges(monkeypatch):
    monkeypatch.setattr(solver, "_krylov_solve", lambda *args: None)


def _count_calls(monkeypatch, name, module=spla):
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def _mms_case():
    model = CoefficientModel(tanh_blend_law(0.5, 2.0), tanh_blend_law(0.8, 1.2))
    problem = oracles.make_mms_problem(model, beta=1.0)
    return problem, SolverConfig(dt=0.01, t_end=0.04)


def _mms_run(spaces):
    return run(spaces, *_mms_case())


def _assert_states_close(states, reference):
    for a, b in zip(states[1:], reference[1:]):
        for name in ("z", "w", "P"):
            gap = getattr(a, name).values - getattr(b, name).values
            assert np.max(np.abs(gap)) < 1e-10


def _track_saddle_factors(monkeypatch, spaces):
    """Weak references to every saddle factor handed out, and how many of
    them were alive at each saddle splu call."""
    saddle_dim = spaces.velocity_dim + spaces.head_dim
    real_splu = spla.splu
    factors = []
    live_at_splu = []

    class Factor:
        """Weak-referenceable stand-in for the SuperLU object it wraps."""

        def __init__(self, lu):
            self._lu = lu

        def solve(self, rhs):
            return self._lu.solve(rhs)

    def splu(matrix, *args, **kwargs):
        if matrix.shape[0] != saddle_dim:
            return real_splu(matrix, *args, **kwargs)
        live_at_splu.append(sum(ref() is not None for ref in factors))
        factor = Factor(real_splu(matrix, *args, **kwargs))
        factors.append(weakref.ref(factor))
        return factor

    monkeypatch.setattr(spla, "splu", splu)
    return factors, live_at_splu


def test_lagged_factor_matches_fresh_factoring_pass_for_pass():
    spaces = build_spaces(build_rectangle_mesh(8, 8, ("left",)))
    with pytest.MonkeyPatch.context() as mp:
        krylov_calls = _count_calls(mp, "_krylov_solve", solver)
        lagged_states, lagged_diags = _mms_run(spaces)
    with pytest.MonkeyPatch.context() as mp:
        _krylov_never_converges(mp)
        fresh_states, fresh_diags = _mms_run(spaces)

    passes = [d.picard_iters for d in lagged_diags]
    assert passes == [d.picard_iters for d in fresh_diags]
    # every pass after the run's first went through GMRES
    assert len(krylov_calls) == sum(passes) - 1 > 0
    _assert_states_close(lagged_states, fresh_states)


def test_run_factors_the_saddle_system_once(monkeypatch):
    spaces = build_spaces(build_rectangle_mesh(8, 8, ("left",)))
    _, live_at_splu = _track_saddle_factors(monkeypatch, spaces)
    states, diags = _mms_run(spaces)
    assert len(diags) == 4 and sum(d.picard_iters for d in diags) > 4
    assert len(live_at_splu) == 1

    # a step without operators builds its own, and with them a fresh factor
    live_at_splu.clear()
    problem, config = _mms_case()
    state = states[0]
    for _ in range(3):
        state, _ = step(spaces, problem, config, state)
    assert len(live_at_splu) == 3


def test_mid_run_fallback_refactors_once_and_warm_starts(monkeypatch):
    spaces = build_spaces(build_rectangle_mesh(8, 8, ("left",)))
    real_krylov, real_step = solver._krylov_solve, solver.step
    real_solve = solver._LaggedFactor.solve
    solutions = []      # every saddle solution, in order
    x0_gaps = []        # |x0 - previous saddle solution| of every GMRES call
    call_steps = []     # 0-based index of the step of every GMRES call
    steps_done = []

    def krylov(system, rhs, lu, x0):
        x0_gaps.append(np.max(np.abs(x0 - solutions[-1])))
        call_steps.append(len(steps_done))
        if call_steps[-1] == 1 and call_steps.count(1) == 2:
            return None                     # the second GMRES call of step 2
        return real_krylov(system, rhs, lu, x0)

    def lagged_solve(self, system, rhs):
        x = real_solve(self, system, rhs)
        solutions.append(x.copy())
        return x

    def counted_step(*args, **kwargs):
        out = real_step(*args, **kwargs)
        steps_done.append(None)
        return out

    _, live_at_splu = _track_saddle_factors(monkeypatch, spaces)
    monkeypatch.setattr(solver, "_krylov_solve", krylov)
    monkeypatch.setattr(solver._LaggedFactor, "solve", lagged_solve)
    monkeypatch.setattr(solver, "step", counted_step)
    states, diags = _mms_run(spaces)
    monkeypatch.undo()

    # the run's first pass factors and the failed GMRES call refactors,
    # each with no stale factor alive
    assert call_steps.count(1) > 2
    assert live_at_splu == [0, 0]
    passes = [d.picard_iters for d in diags]
    assert len(x0_gaps) == sum(passes) - 1
    assert all(gap == 0.0 for gap in x0_gaps)

    with pytest.MonkeyPatch.context() as mp:
        _krylov_never_converges(mp)
        fresh_states, fresh_diags = _mms_run(spaces)
    assert passes == [d.picard_iters for d in fresh_diags]
    _assert_states_close(states, fresh_states)


def test_fallback_refactors_and_matches_dense_oracle(monkeypatch):
    _krylov_never_converges(monkeypatch)
    splu_calls = _count_calls(monkeypatch, "splu")
    passes = _assert_step_matches_dense_oracle()
    # one temperature and one saddle factorization on every pass
    assert len(splu_calls) == 2 * passes


def test_fallback_releases_stale_factor_before_refactoring(spaces_4x4,
                                                           monkeypatch):
    _krylov_never_converges(monkeypatch)
    factors, live_at_splu = _track_saddle_factors(monkeypatch, spaces_4x4)
    _, diags = run(spaces_4x4, cavity_problem(), SolverConfig(dt=0.05, t_end=0.1))
    assert len(live_at_splu) == sum(d.picard_iters for d in diags)
    assert max(d.picard_iters for d in diags) > 1
    assert live_at_splu == [0] * len(live_at_splu)
    assert all(ref() is None for ref in factors)


# ---------------------------------------------------------------------------
# the GMRES of _krylov_solve, on a saddle system with a lagged factor


class _CountingLU:
    """Records every right side it is asked to solve."""

    def __init__(self, solve):
        self._solve = solve
        self.solved = []

    def solve(self, rhs):
        self.solved.append(rhs.copy())
        return self._solve(rhs)


@pytest.fixture(scope="module")
def lagged_saddle_call():
    """(system, rhs, lu, x0) of the first GMRES call of step 2 of an 8x8
    MMS run: the factor is the one taken on step 1's first pass."""
    spaces = build_spaces(build_rectangle_mesh(8, 8, ("left",)))
    real_krylov = solver._krylov_solve
    calls = []

    def krylov(system, rhs, lu, x0):
        calls.append((system, rhs.copy(), lu, x0.copy()))
        return real_krylov(system, rhs, lu, x0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_krylov_solve", krylov)
        _, diags = _mms_run(spaces)
    return calls[diags[0].picard_iters - 1]


def test_krylov_meets_true_residual_with_one_lu_solve_per_iteration(
        lagged_saddle_call):
    system, rhs, lu, x0 = lagged_saddle_call
    counted = _CountingLU(lu.solve)
    x0_before = x0.copy()
    x = solver._krylov_solve(system, rhs, counted, x0)
    assert x is not None
    assert np.linalg.norm(system @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
    # only Arnoldi vectors are solved, one per iteration: unit vectors, the
    # first along the initial residual, none along rhs
    basis = np.array(counted.solved)
    assert 1 <= len(basis) <= solver._KRYLOV_RESTART
    assert np.allclose(np.linalg.norm(basis, axis=1), 1.0, rtol=0, atol=1e-12)
    r0 = rhs - system @ x0
    assert np.isclose(basis[0] @ r0, np.linalg.norm(r0), rtol=1e-12, atol=0)
    cosines = basis @ rhs / np.linalg.norm(rhs)
    assert np.all(np.abs(cosines) < 1 - 1e-8)
    assert np.array_equal(x0, x0_before)


def test_krylov_zero_rhs_returns_zeros_without_lu_solve(lagged_saddle_call):
    system, rhs, lu, x0 = lagged_saddle_call
    counted = _CountingLU(lu.solve)
    x = solver._krylov_solve(system, np.zeros_like(rhs), counted, x0)
    assert x is not None and not np.any(x)
    assert counted.solved == []


@pytest.mark.parametrize("fill, solves", [(np.nan, 1), (0.0, 2)])
def test_krylov_degenerate_factor_gives_none_without_warning(
        lagged_saddle_call, fill, solves):
    # NaN stops the call at once; a zero solve makes the Hessenberg column
    # zero, so each of the two cycles ends after one solve with no update
    system, rhs, _, x0 = lagged_saddle_call
    bad_lu = _CountingLU(lambda b: np.full_like(b, fill))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solver._krylov_solve(system, rhs, bad_lu, x0) is None
    assert len(bad_lu.solved) == solves


def test_krylov_unrelated_factor_gives_none_within_budget(lagged_saddle_call):
    system, rhs, _, x0 = lagged_saddle_call
    rng = np.random.default_rng(3)
    unrelated = spla.splu(sp.diags(rng.uniform(1.0, 2.0, len(rhs))).tocsc())
    counted = _CountingLU(unrelated.solve)
    x0_before = x0.copy()
    assert solver._krylov_solve(system, rhs, counted, x0) is None
    assert 0 < len(counted.solved) <= (solver._KRYLOV_RESTART
                                       * solver._KRYLOV_MAXITER) == 30
    assert np.array_equal(x0, x0_before)


def test_krylov_exact_factor_stops_without_divide_warning(lagged_saddle_call):
    system, rhs, _, x0 = lagged_saddle_call
    exact = _CountingLU(spla.splu(system).solve)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = solver._krylov_solve(system, rhs, exact, np.zeros_like(x0))
    assert x is not None and len(exact.solved) == 1

    # the identity on a unit vector: the new Arnoldi direction is exactly 0
    n = 5
    identity = sp.identity(n, format="csc")
    exact = _CountingLU(spla.splu(identity).solve)
    rhs = np.zeros(n)
    rhs[2] = 3.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = solver._krylov_solve(identity, rhs, exact, np.zeros(n))
    assert np.array_equal(x, rhs) and len(exact.solved) == 1


# ---------------------------------------------------------------------------
# the saddle factor: threshold pivoting, and the check of its direct solve


def _relative_residual(system, x, rhs):
    return np.linalg.norm(system @ x - rhs) / np.linalg.norm(rhs)


def test_saddle_factor_cuts_fill_and_solves_to_tolerance(monkeypatch):
    spaces = build_spaces(build_rectangle_mesh(16, 16, ("left",)))
    saddle_dim = spaces.velocity_dim + spaces.head_dim
    real_splu, real_solve = spla.splu, solver._LaggedFactor.solve
    factored, rhs_seen = [], []

    def splu(matrix, *args, **kwargs):
        lu = real_splu(matrix, *args, **kwargs)
        if matrix.shape[0] == saddle_dim:
            factored.append((matrix, lu))
        return lu

    def lagged_solve(self, system, rhs):
        rhs_seen.append(rhs.copy())
        return real_solve(self, system, rhs)

    monkeypatch.setattr(spla, "splu", splu)
    monkeypatch.setattr(solver._LaggedFactor, "solve", lagged_solve)
    model = CoefficientModel(tanh_blend_law(0.5, 2.0), tanh_blend_law(0.7, 1.3))
    problem = dataclasses.replace(cavity_problem(beta=1.0), model=model)
    run(spaces, problem, SolverConfig(dt=0.01, t_end=0.01, picard_max=1))
    monkeypatch.undo()

    [(system, lu)] = factored
    # 0.74x the L+U nonzeros of SuperLU's default partial pivoting
    assert lu.nnz <= 0.8 * spla.splu(system).nnz
    assert _relative_residual(system, lu.solve(rhs_seen[0]), rhs_seen[0]) <= 1e-12


class _CapturedSystem:
    """Stands in for the lagged factor of a pass and keeps what it is given."""

    def solve(self, system, rhs):
        self.system, self.rhs = system, rhs.copy()
        return np.zeros_like(rhs)


def _stress_saddle_system():
    """(system, rhs) of a 16x16 saddle pass far from any run's: viscosity
    1e-4, a random advecting velocity of size 100 and dt 100, so neither
    the mass nor the diffusion term props up the diagonal."""
    spaces = build_spaces(build_rectangle_mesh(16, 16, ("left",)))
    problem = dataclasses.replace(cavity_problem(),
                                  model=constant_model(1e-4, 1.0))
    z = 100 * np.random.default_rng(0).standard_normal(spaces.velocity_dim)
    z[spaces.fixed_velocity_dofs] = 0.0
    captured = _CapturedSystem()
    solver._velocity_pass(
        spaces, problem, SolverConfig(dt=100.0, t_end=100.0),
        solver.build_operators(spaces, problem), z,
        forms.FieldVector("velocity", z), np.zeros(spaces.temperature_dim),
        np.zeros(spaces.velocity_dim), captured)
    return captured.system, captured.rhs


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fresh_saddle_factor_polishes_a_direct_solve_that_misses(monkeypatch):
    system, rhs = _stress_saddle_system()
    direct = solver._factor_saddle(system).solve(rhs)
    assert _relative_residual(system, direct, rhs) > 1e-12

    real_splu = spla.splu
    factors = []

    def splu(matrix, *args, **kwargs):
        factors.append(_CountingLU(real_splu(matrix, *args, **kwargs).solve))
        return factors[-1]

    monkeypatch.setattr(spla, "splu", splu)
    x = solver._LaggedFactor().solve(system, rhs)
    assert _relative_residual(system, x, rhs) <= 1e-12
    # the direct solve plus one GMRES iteration with the same factor
    assert len(factors) == 1 and len(factors[0].solved) == 2

    # when GMRES misses too, the direct solve stands as it is
    monkeypatch.setattr(solver, "_krylov_solve", lambda *args: None)
    assert np.array_equal(solver._LaggedFactor().solve(system, rhs), direct)


# ---------------------------------------------------------------------------
# fixed-pattern systems against the bmat + constrain passes they replaced


def _run_recording_factored_systems(spaces, problem, config, bmat_passes):
    real_splu = spla.splu
    systems = []

    def splu(matrix, *args, **kwargs):
        systems.append(matrix)
        return real_splu(matrix, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spla, "splu", splu)
        if bmat_passes:
            mp.setattr(solver, "_temperature_pass", hc.temperature_pass)
            mp.setattr(solver, "_velocity_pass", hc.velocity_pass)
        states, diags = run(spaces, problem, config)
    return states, diags, systems


def _still_cavity():
    # z0 = 0: the first pass has N = 0 and velocity advection blocks of -0.0
    model = CoefficientModel(tanh_blend_law(0.5, 2.0), tanh_blend_law(0.7, 1.3))
    return dataclasses.replace(cavity_problem(beta=1.0), model=model,
                               z0=lambda x: np.zeros((len(x), 2)))


@pytest.mark.parametrize("case", ["cavity_8x8", "mms_4x4"])
def test_step_matches_bmat_passes_bit_for_bit(case):
    if case == "cavity_8x8":
        spaces = build_spaces(build_rectangle_mesh(8, 8, ("left",)))
        problem, config = _still_cavity(), SolverConfig(dt=0.01, t_end=0.05)
    else:
        spaces = build_spaces(build_rectangle_mesh(4, 4, ("left",)))
        model = CoefficientModel(tanh_blend_law(0.5, 2.0), tanh_blend_law(0.7, 1.3))
        problem = oracles.make_mms_problem(model, beta=0.5)
        config = SolverConfig(dt=1e-3, t_end=0.01)
    # D stores exact zeros, so every saddle system drops some entries
    assert np.any(forms.assemble_divergence_constraint(spaces).data == 0.0)

    old = _run_recording_factored_systems(spaces, problem, config, True)
    new = _run_recording_factored_systems(spaces, problem, config, False)
    assert [d.picard_iters for d in new[1]] == [d.picard_iters for d in old[1]]
    for a, b in zip(new[0], old[0]):
        for name in ("z", "w", "P"):
            assert np.array_equal(getattr(a, name).values, getattr(b, name).values)
    assert len(new[2]) == len(old[2]) > 0
    for got, want in zip(new[2], old[2]):
        assert got.format == "csc" and got.shape == want.shape
        for attr in ("indptr", "indices", "data"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr


def test_run_builds_no_block_matrix_and_converts_no_coo(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("bmat or a COO->CSR conversion on the solver path")

    monkeypatch.setattr(sp, "bmat", forbidden)
    monkeypatch.setattr(sp.coo_matrix, "tocsr", forbidden)
    monkeypatch.setattr(sp.coo_array, "tocsr", forbidden)
    # fresh spaces, so their operator patterns are built under the guard
    spaces = build_spaces(build_rectangle_mesh(4, 4, ("left",)))
    config = SolverConfig(dt=0.01, t_end=0.02)
    run(spaces, _still_cavity(), config)
    # the guard catches the passes it replaced
    monkeypatch.setattr(solver, "_velocity_pass", hc.velocity_pass)
    with pytest.raises(AssertionError, match="bmat or a COO"):
        run(spaces, _still_cavity(), config)

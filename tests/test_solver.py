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
        assert d.picard_iters == 1  # the first iterate's residual is 0


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
    with pytest.warns(RuntimeWarning, match="^Picard loop stopped"):
        _, diags = run(spaces_4x4, problem, config)
    assert not diags[-1].picard_converged
    assert [d.picard_iters for d in diags] == [2]


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

    def failing_step(spaces, problem, config, state, t_next=None, operators=None,
                     previous=None):
        if t_next is not None and abs(t_next - 0.2) < 1e-12:
            raise SolverError("velocity/head stage: induced failure")
        return real_step(spaces, problem, config, state, t_next=t_next,
                         operators=operators, previous=previous)

    monkeypatch.setattr(solver_mod, "step", failing_step)
    with pytest.raises(SolverError, match=r"step 2 \(t=0.2\)"):
        run(spaces_2x2, cavity_problem(), SolverConfig(dt=0.1, t_end=0.3))


# ---------------------------------------------------------------------------
# independent dense reassembly of one full step


def _dense_oracle_case():
    """(mesh, problem, dt) of criterion 8's one step on a 2x2 mesh."""
    mesh = build_rectangle_mesh(2, 2, ("left",))
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
    return mesh, problem, 0.1


def _assert_step_matches_dense_oracle():
    mesh, problem, dt = _dense_oracle_case()
    spaces = build_spaces(mesh)
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
# the stop rule: a step returns its first iterate whose residual in the
# fully implicit scheme is at most picard_tol


def _implicit_residual(spaces, problem, config, state, t_new, z, w, p):
    """The larger relative residual of (z, w, p) in the two masked systems
    of the fully implicit step from state to t_new, each relative to its
    masked right side; built from the assembled matrices and `constrain`."""
    model, dt = problem.model, config.dt
    z_h, w_h = forms.FieldVector("velocity", z), forms.FieldVector("temperature", w)
    m_w, m_z = (forms.assemble_mass(spaces, which)
                for which in ("temperature", "velocity"))
    heat = (m_w / dt + forms.assemble_temperature_diffusion(spaces, model, w_h)
            + forms.assemble_temperature_advection(spaces, z_h))
    heat_rhs = m_w @ state.w.values / dt + forms.assemble_temperature_load(
        spaces, problem.f2, problem.v2, t_new)
    k_block = (m_z / dt + forms.assemble_velocity_diffusion(spaces, model, w_h)
               + forms.assemble_velocity_advection(spaces, z_h))
    d = forms.assemble_divergence_constraint(spaces)
    saddle = sp.bmat([[k_block, d.T], [d, None]], format="csr")
    buoyancy = forms.assemble_buoyancy(spaces, problem.beta, problem.g)
    saddle_rhs = np.concatenate([
        m_z @ state.z.values / dt
        + forms.assemble_velocity_load(spaces, problem.f1, problem.v1, t_new)
        - problem.buoyancy_sign * (buoyancy @ w), np.zeros(spaces.head_dim)])
    residuals = []
    for matrix, rhs, fixed, x in (
            (heat, heat_rhs, spaces.fixed_temperature_dofs, w),
            (saddle, saddle_rhs, spaces.fixed_velocity_dofs,
             np.concatenate([z, p]))):
        system, rhs = hc.constrain(matrix, rhs, fixed)
        residuals.append(np.linalg.norm(system @ x - rhs) / np.linalg.norm(rhs))
    return max(residuals)


def _record_iterates(monkeypatch, spaces):
    """Per step: (state, t_new, returned state, diagnostics, the (z, w, p)
    of every pass in order)."""
    real_step, real_solve = solver.step, solver._LaggedFactor.solve
    nv = spaces.velocity_dim
    records, solved = [], []

    def lagged_solve(self, system, rhs):
        x = real_solve(self, system, rhs)
        solved.append(x.copy())
        return x

    def recorded_step(spaces_, problem, config, state, t_next=None, **kwargs):
        solved.clear()
        new, diag = real_step(spaces_, problem, config, state, t_next=t_next,
                              **kwargs)
        # each pass solves the heat system, then the saddle system
        iterates = [(x[:nv], w, x[nv:])
                    for w, x in zip(solved[0::2], solved[1::2], strict=True)]
        records.append((state, new.t, new, diag, iterates))
        return new, diag

    monkeypatch.setattr(solver._LaggedFactor, "solve", lagged_solve)
    monkeypatch.setattr(solver, "step", recorded_step)
    return records


def _assert_steps_stop_at_first_converged_iterate(spaces, problem, config,
                                                  records):
    assert records
    for state, t_new, new, diag, iterates in records:
        assert diag.picard_converged
        assert len(iterates) == diag.picard_iters >= 2
        for got, want in zip((new.z, new.w, new.P), iterates[-1]):
            assert got.values.tobytes() == want.tobytes()
        before, returned = (_implicit_residual(spaces, problem, config, state,
                                               t_new, *it)
                            for it in iterates[-2:])
        assert returned <= config.picard_tol < before


def test_mms_steps_return_their_first_iterate_within_picard_tol(monkeypatch):
    spaces, problem, config = _bit_case("mms_4x4")
    records = _record_iterates(monkeypatch, spaces)
    run(spaces, problem, config)
    monkeypatch.undo()
    assert len(records) == config.num_steps
    _assert_steps_stop_at_first_converged_iterate(spaces, problem, config,
                                                  records)


def test_dense_oracle_step_returns_its_first_iterate_within_picard_tol(
        monkeypatch):
    mesh, problem, dt = _dense_oracle_case()
    spaces = build_spaces(mesh)
    config = SolverConfig(dt=dt, t_end=dt)
    records = _record_iterates(monkeypatch, spaces)
    solver.step(spaces, problem, config, initialize_state(spaces, problem))
    monkeypatch.undo()
    _assert_steps_stop_at_first_converged_iterate(spaces, problem, config,
                                                  records)


def test_capped_step_returns_its_last_iterate_unconverged(spaces_4x4,
                                                          monkeypatch):
    problem = oracles.make_mms_problem(
        CoefficientModel(tanh_blend_law(0.5, 2.0), tanh_blend_law(0.8, 1.2)),
        beta=1.0)
    config = SolverConfig(dt=0.05, t_end=0.05, picard_max=2, picard_tol=1e-14)
    records = _record_iterates(monkeypatch, spaces_4x4)
    with pytest.warns(RuntimeWarning, match="^Picard loop stopped at 2 passes"):
        run(spaces_4x4, problem, config)
    monkeypatch.undo()
    [(state, t_new, new, diag, iterates)] = records
    assert not diag.picard_converged and len(iterates) == diag.picard_iters == 2
    for got, want in zip((new.z, new.w, new.P), iterates[-1]):
        assert got.values.tobytes() == want.tobytes()
    assert _implicit_residual(spaces_4x4, problem, config, state, t_new,
                              *iterates[-1]) > config.picard_tol


# ---------------------------------------------------------------------------
# lagged saddle factor: GMRES on later Picard passes, direct fallback


def _krylov_never_converges(monkeypatch):
    monkeypatch.setattr(solver, "_krylov_solve", lambda *args: None)


def _rows(system):
    """The row count of a system: a scipy matrix, or the CSC arrays that
    `forms.Layout.system` hands out."""
    return system.shape[0] if sp.issparse(system) else len(system[2]) - 1


def _csc(system):
    """The scipy matrix of CSC arrays (data, indices, indptr)."""
    n = _rows(system)
    return sp.csc_matrix(system, shape=(n, n))


def _count_calls(monkeypatch, name, module=spla):
    """The row count of the system handed to every call of module.name."""
    real = getattr(module, name)
    calls = []

    def counted(system, *args, **kwargs):
        calls.append(_rows(system))
        return real(system, *args, **kwargs)
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


def _track_factors(monkeypatch, dim):
    """Weak references to every factor of a dim-row system handed out, and
    how many of them were alive at each splu call for such a system."""
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
        if matrix.shape[0] != dim:
            return real_splu(matrix, *args, **kwargs)
        live_at_splu.append(sum(ref() is not None for ref in factors))
        factor = Factor(real_splu(matrix, *args, **kwargs))
        factors.append(weakref.ref(factor))
        return factor

    monkeypatch.setattr(spla, "splu", splu)
    return factors, live_at_splu


def _system_dims(spaces):
    """Row counts of the saddle and the temperature systems."""
    return {"saddle": spaces.velocity_dim + spaces.head_dim,
            "temperature": spaces.temperature_dim}


def test_lagged_factor_matches_fresh_factoring_pass_for_pass():
    spaces = build_spaces(build_rectangle_mesh(8, 8, ("left",)))
    with pytest.MonkeyPatch.context() as mp:
        krylov_dims = _count_calls(mp, "_krylov_solve", solver)
        lagged_states, lagged_diags = _mms_run(spaces)
    with pytest.MonkeyPatch.context() as mp:
        _krylov_never_converges(mp)
        fresh_states, fresh_diags = _mms_run(spaces)

    passes = [d.picard_iters for d in lagged_diags]
    assert passes == [d.picard_iters for d in fresh_diags]
    # in each system, every pass after the run's first went through GMRES
    for dim in _system_dims(spaces).values():
        assert krylov_dims.count(dim) == sum(passes) - 1 > 0
    assert len(krylov_dims) == 2 * (sum(passes) - 1)
    _assert_states_close(lagged_states, fresh_states)


def test_run_factors_the_saddle_system_once(monkeypatch):
    spaces = build_spaces(build_rectangle_mesh(8, 8, ("left",)))
    _, live_at_splu = _track_factors(monkeypatch,
                                     _system_dims(spaces)["saddle"])
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


def _step_without_operators(spaces, problem, config, state):
    """The states and diagnostics of stepping from state to t_end, each step
    with operators of its own: fresh factors and a start from its state."""
    states, diags = [state], []
    for i in range(config.num_steps):
        state, diag = step(spaces, problem, config, state,
                           t_next=(i + 1) * config.dt)
        states.append(state)
        diags.append(diag)
    return states, diags


def test_run_factors_each_system_once(monkeypatch):
    spaces = build_spaces(build_rectangle_mesh(8, 8, ("left",)))
    problem, config = _still_cavity(), SolverConfig(dt=0.01, t_end=0.05)
    splu_dims = _count_calls(monkeypatch, "splu")
    states, diags = run(spaces, problem, config)
    assert sorted(splu_dims) == sorted(_system_dims(spaces).values())

    splu_dims.clear()
    _, stepped = _step_without_operators(spaces, problem, config, states[0])
    passes = [d.picard_iters for d in diags]
    # here the extrapolated start saves the third step a pass
    assert passes == [5, 5, 4, 4, 4]
    assert [d.picard_iters for d in stepped] == [5, 5, 5, 4, 4]
    assert len(splu_dims) == 2 * len(passes)


def _assert_states_match(states, reference, rtol):
    for a, b in zip(states[1:], reference[1:]):
        for name in ("z", "w", "P"):
            want = getattr(b, name).values
            gap = np.max(np.abs(getattr(a, name).values - want))
            assert gap <= rtol * np.max(np.abs(want))


def test_run_extrapolates_the_picard_start_on_mms():
    spaces = build_spaces(build_rectangle_mesh(8, 8, ("left",)))
    model = CoefficientModel(tanh_blend_law(0.5, 2.0), tanh_blend_law(0.7, 1.3))
    problem = oracles.make_mms_problem(model, beta=0.5)
    # at the default 1e-10 both starts take 61 passes here, and the two
    # trajectories differ by up to 5.8e-10: each state is only as close to
    # the fixed point as its residual bound makes it
    config = SolverConfig(dt=1e-3, t_end=0.02, picard_tol=1e-11)
    states, diags = run(spaces, problem, config)
    stepped, stepped_diags = _step_without_operators(spaces, problem, config,
                                                     states[0])
    passes = [d.picard_iters for d in diags]
    fresh = [d.picard_iters for d in stepped_diags]
    # the first step has nothing to extrapolate from
    assert passes[0] == fresh[0]
    assert sum(passes) < sum(fresh)         # 65 against 80
    assert all(p <= f for p, f in zip(passes, fresh))
    _assert_states_match(states, stepped, 1e-10)


def test_step_extrapolates_only_when_given_the_previous_state():
    # 16x16, where the extrapolated start saves a pass (3 against 4)
    spaces = build_spaces(build_rectangle_mesh(16, 16, ("left",)))
    model = CoefficientModel(tanh_blend_law(0.5, 2.0), tanh_blend_law(0.7, 1.3))
    problem = oracles.make_mms_problem(model, beta=0.5)
    config = SolverConfig(dt=1e-3, t_end=0.02)
    state0 = initialize_state(spaces, problem)
    state1, _ = step(spaces, problem, config, state0)
    _, fresh = step(spaces, problem, config, state1)

    ops = solver.build_operators(spaces, problem)
    returned, _ = step(spaces, problem, config, state0, operators=ops)
    # the state these operators returned, but no previous state
    _, plain = step(spaces, problem, config, returned, operators=ops)
    assert plain.picard_iters == fresh.picard_iters

    returned, _ = step(spaces, problem, config, state0, operators=ops)
    _, extrapolated = step(spaces, problem, config, returned, operators=ops,
                           previous=state0)
    assert extrapolated.picard_iters < fresh.picard_iters


def _assert_mid_run_fallback(monkeypatch, system):
    """Fail the second GMRES call of step 2 in one system of an MMS run."""
    spaces = build_spaces(build_rectangle_mesh(8, 8, ("left",)))
    dims = _system_dims(spaces)
    missed = dims[system]
    real_krylov, real_step = solver._krylov_solve, solver.step
    real_solve = solver._LaggedFactor.solve
    solutions = {dim: [] for dim in dims.values()}  # per system, in order
    x0_gaps = {dim: [] for dim in dims.values()}    # |x0 - last solution|
    call_steps = []     # 0-based step index of every GMRES call of `system`
    steps_done = []

    def krylov(system, rhs, lu, x0):
        dim = len(rhs)
        x0_gaps[dim].append(np.max(np.abs(x0 - solutions[dim][-1])))
        if dim == missed:
            call_steps.append(len(steps_done))
            if call_steps[-1] == 1 and call_steps.count(1) == 2:
                return None                 # its second GMRES call of step 2
        return real_krylov(system, rhs, lu, x0)

    def lagged_solve(self, system, rhs):
        x = real_solve(self, system, rhs)
        solutions[len(rhs)].append(x.copy())
        return x

    def counted_step(*args, **kwargs):
        out = real_step(*args, **kwargs)
        steps_done.append(None)
        return out

    splu_dims = _count_calls(monkeypatch, "splu")
    _, live_at_splu = _track_factors(monkeypatch, missed)
    monkeypatch.setattr(solver, "_krylov_solve", krylov)
    monkeypatch.setattr(solver._LaggedFactor, "solve", lagged_solve)
    monkeypatch.setattr(solver, "step", counted_step)
    states, diags = _mms_run(spaces)
    monkeypatch.undo()

    # the run's first pass factors and the failed GMRES call refactors,
    # each with no stale factor alive; the other system factors once
    assert call_steps.count(1) > 2
    assert live_at_splu == [0, 0]
    assert splu_dims.count(missed) == 2 and len(splu_dims) == 3
    passes = [d.picard_iters for d in diags]
    for gaps in x0_gaps.values():
        assert len(gaps) == sum(passes) - 1
        assert all(gap == 0.0 for gap in gaps)

    with pytest.MonkeyPatch.context() as mp:
        _krylov_never_converges(mp)
        fresh_states, fresh_diags = _mms_run(spaces)
    assert passes == [d.picard_iters for d in fresh_diags]
    _assert_states_close(states, fresh_states)


def test_mid_run_fallback_refactors_once_and_warm_starts(monkeypatch):
    _assert_mid_run_fallback(monkeypatch, "saddle")


def test_temperature_fallback_refactors_once_and_warm_starts(monkeypatch):
    _assert_mid_run_fallback(monkeypatch, "temperature")


def test_fallback_refactors_and_matches_dense_oracle(monkeypatch):
    _krylov_never_converges(monkeypatch)
    splu_calls = _count_calls(monkeypatch, "splu")
    passes = _assert_step_matches_dense_oracle()
    # one temperature and one saddle factorization on every pass
    assert len(splu_calls) == 2 * passes


def test_fallback_releases_stale_factor_before_refactoring(spaces_4x4,
                                                           monkeypatch):
    _krylov_never_converges(monkeypatch)
    tracked = [_track_factors(monkeypatch, dim)
               for dim in _system_dims(spaces_4x4).values()]
    _, diags = run(spaces_4x4, cavity_problem(), SolverConfig(dt=0.05, t_end=0.1))
    assert max(d.picard_iters for d in diags) > 1
    for factors, live_at_splu in tracked:
        assert len(live_at_splu) == sum(d.picard_iters for d in diags)
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
    """(system, rhs, lu, x0) of the first saddle GMRES call of step 2 of an
    8x8 MMS run: the factor is the one taken on step 1's first pass."""
    spaces = build_spaces(build_rectangle_mesh(8, 8, ("left",)))
    saddle_dim = _system_dims(spaces)["saddle"]
    real_krylov, real_step = solver._krylov_solve, solver.step
    calls, steps_done = [], []      # the saddle calls of step 2

    def krylov(system, rhs, lu, x0):
        if len(rhs) == saddle_dim and len(steps_done) == 1:
            calls.append((system, rhs.copy(), lu, x0.copy()))
        return real_krylov(system, rhs, lu, x0)

    def counted_step(*args, **kwargs):
        out = real_step(*args, **kwargs)
        steps_done.append(None)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_krylov_solve", krylov)
        mp.setattr(solver, "step", counted_step)
        _mms_run(spaces)
    return calls[0]


def test_krylov_meets_true_residual_with_one_lu_solve_per_iteration(
        lagged_saddle_call, monkeypatch):
    system, rhs, lu, x0 = lagged_saddle_call
    monkeypatch.setattr(solver, "_KRYLOV_ETA", 0.0)     # the 1e-12 stop alone
    counted = _CountingLU(lu.solve)
    x0_before = x0.copy()
    x = solver._krylov_solve(system, rhs, counted, x0)
    assert x is not None
    assert _relative_residual(system, x, rhs) <= 1e-12
    # only Arnoldi vectors are solved, one per iteration: unit vectors, the
    # first along the initial residual, none along rhs
    basis = np.array(counted.solved)
    assert 1 <= len(basis) <= solver._KRYLOV_RESTART
    assert np.allclose(np.linalg.norm(basis, axis=1), 1.0, rtol=0, atol=1e-12)
    r0 = rhs - _csc(system) @ x0
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
    exact = _CountingLU(spla.splu(_csc(system)).solve)
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
        x = solver._krylov_solve(hc._arrays(identity), rhs, exact,
                                 np.zeros(n))
    assert np.array_equal(x, rhs) and len(exact.solved) == 1


def _lagged_saddle_calls(spaces):
    """(system, rhs, lu, x0) of every saddle GMRES call of an 8x8 MMS run."""
    real_krylov = solver._krylov_solve
    saddle_dim = _system_dims(spaces)["saddle"]
    calls = []

    def krylov(system, rhs, lu, x0):
        if len(rhs) == saddle_dim:
            calls.append((system, rhs.copy(), lu, x0.copy()))
        return real_krylov(system, rhs, lu, x0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_krylov_solve", krylov)
        _mms_run(spaces)
    return calls


@pytest.fixture(scope="module")
def farthest_saddle_call():
    """The saddle GMRES call of an 8x8 MMS run that starts farthest from its
    solution, relative to its right side: the first call of a step."""
    spaces = build_spaces(build_rectangle_mesh(8, 8, ("left",)))
    return max(_lagged_saddle_calls(spaces), key=lambda c: _relative_residual(
        c[0], c[3], c[1]))


def test_krylov_stops_at_eta_times_the_initial_residual(farthest_saddle_call):
    system, rhs, lu, x0 = farthest_saddle_call
    r0 = np.linalg.norm(rhs - _csc(system) @ x0)
    assert solver._KRYLOV_ETA * r0 > 1e-12 * np.linalg.norm(rhs)
    loose, strict = _CountingLU(lu.solve), _CountingLU(lu.solve)
    x = solver._krylov_solve(system, rhs, loose, x0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_KRYLOV_ETA", 0.0)      # the 1e-12 stop alone
        x_strict = solver._krylov_solve(system, rhs, strict, x0)
        # the loose solution is a start the 1e-12 stop accepts after more
        # iterations
        tightened = solver._krylov_solve(system, rhs, lu, x)
    assert np.linalg.norm(_csc(system) @ x - rhs) <= solver._KRYLOV_ETA * r0
    assert _relative_residual(system, x, rhs) > 1e-12
    assert _relative_residual(system, x_strict, rhs) <= 1e-12
    assert 0 < len(loose.solved) < len(strict.solved)
    assert _relative_residual(system, tightened, rhs) <= 1e-12


def _meets(system, x, rhs, tol=1e-12):
    """The step's residual test in the units of rhs: a NaN is a miss."""
    return solver._relative_residual(solver._matvec(system, x), rhs) <= tol


def test_krylov_and_residual_check_are_scale_safe(farthest_saddle_call,
                                                   monkeypatch):
    system, rhs, lu, x0 = farthest_saddle_call
    monkeypatch.setattr(solver, "_KRYLOV_ETA", 0.0)     # the 1e-12 stop alone
    x = solver._krylov_solve(system, rhs, lu, x0)
    assert x is not None and _meets(system, x, rhs)
    # scaled by 2^960, every norm of the plain form overflows, but the
    # iterates scale exactly
    k = 960
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert np.linalg.norm(np.ldexp(rhs, k)) == np.inf
    big = solver._krylov_solve(system, np.ldexp(rhs, k), lu, np.ldexp(x0, k))
    assert big is not None and big.tobytes() == np.ldexp(x, k).tobytes()
    assert _meets(system, big, np.ldexp(rhs, k))
    assert not _meets(system, np.ldexp(x0, k), np.ldexp(rhs, k))
    # a non-finite norm is a miss, never a pass
    for bad in (np.inf, np.nan):
        rhs_bad = rhs.copy()
        rhs_bad[-1] = bad
        assert solver._krylov_solve(system, rhs_bad, lu, x0) is None
        assert not _meets(system, x, rhs_bad, tol=1e300)
        x_bad = x.copy()
        x_bad[0] = bad
        assert not _meets(system, x_bad, rhs, tol=1e300)
    huge = np.full_like(x, 1e300)
    assert not _meets(system, huge, rhs)
    # a zero right side: met only by a zero product
    zero = np.zeros_like(rhs)
    assert _meets(system, zero, zero, tol=0.0)
    assert not _meets(system, x, zero, tol=1e300)


def _run_checking_returned_steps(spaces, problem, config):
    """The run; the residual of each returned state in the fully implicit
    scheme; and the LU solves of the run."""
    real_step, real_splu = solver.step, spla.splu
    residuals, factors = [], []

    def checked_step(spaces_, problem_, config_, state, t_next=None, **kwargs):
        new, diag = real_step(spaces_, problem_, config_, state, t_next=t_next,
                              **kwargs)
        residuals.append(_implicit_residual(
            spaces, problem, config, state, new.t, new.z.values, new.w.values,
            new.P.values))
        return new, diag

    def splu(matrix, *args, **kwargs):
        factors.append(_CountingLU(real_splu(matrix, *args, **kwargs).solve))
        return factors[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "step", checked_step)
        mp.setattr(spla, "splu", splu)
        states, diags = run(spaces, problem, config)
    return states, diags, residuals, sum(len(f.solved) for f in factors)


@pytest.mark.parametrize("case", ["cavity_8x8", "mms_4x4"])
def test_inexact_lagged_solves_keep_passes_and_return_converged_steps(case):
    spaces, problem, config = _bit_case(case)
    states, diags, residuals, lu_solves = _run_checking_returned_steps(
        spaces, problem, config)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_KRYLOV_ETA", 0.0)      # every solve strict
        ref_states, ref_diags, ref_residuals, ref_lu_solves = (
            _run_checking_returned_steps(spaces, problem, config))
    assert [d.picard_iters for d in diags] == [d.picard_iters for d in ref_diags]
    assert len(residuals) == len(diags)
    assert max(residuals + ref_residuals) <= config.picard_tol
    assert lu_solves < ref_lu_solves
    _assert_states_match(states, ref_states, 1e-10)


# ---------------------------------------------------------------------------
# the saddle factor: threshold pivoting, and the check of its direct solve


def _relative_residual(system, x, rhs):
    matrix = system if sp.issparse(system) else _csc(system)
    return np.linalg.norm(matrix @ x - rhs) / np.linalg.norm(rhs)


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
        if len(rhs) == saddle_dim:
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


# ---------------------------------------------------------------------------
# fixed-pattern systems against the bmat + constrain passes they replaced


def _run_recording_systems(spaces, problem, config, bmat_passes):
    """The run, and every system its passes solve, in order."""
    real_solve = solver._LaggedFactor.solve
    systems = []

    def lagged_solve(self, system, rhs):
        systems.append(system)
        return real_solve(self, system, rhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver._LaggedFactor, "solve", lagged_solve)
        if bmat_passes:
            mp.setattr(solver, "_temperature_system", hc.temperature_system)
            mp.setattr(solver, "_velocity_pass", hc.velocity_pass)
        states, diags = run(spaces, problem, config)
    return states, diags, systems


def _assert_same_arrays(got, want):
    """The CSC arrays (data, indices, indptr) of two systems, byte for byte."""
    assert len(got) == len(want) == 3
    for a, b, name in zip(got, want, ("data", "indices", "indptr")):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def _still_cavity():
    # z0 = 0: the first pass has N = 0 and velocity advection blocks of -0.0
    model = CoefficientModel(tanh_blend_law(0.5, 2.0), tanh_blend_law(0.7, 1.3))
    return dataclasses.replace(cavity_problem(beta=1.0), model=model,
                               z0=lambda x: np.zeros((len(x), 2)))


def _bit_case(case):
    """(spaces, problem, config) of the two runs the system checks use."""
    if case == "cavity_8x8":
        spaces = build_spaces(build_rectangle_mesh(8, 8, ("left",)))
        return spaces, _still_cavity(), SolverConfig(dt=0.01, t_end=0.05)
    spaces = build_spaces(build_rectangle_mesh(4, 4, ("left",)))
    model = CoefficientModel(tanh_blend_law(0.5, 2.0), tanh_blend_law(0.7, 1.3))
    problem = oracles.make_mms_problem(model, beta=0.5)
    return spaces, problem, SolverConfig(dt=1e-3, t_end=0.01)


@pytest.mark.parametrize("case", ["cavity_8x8", "mms_4x4"])
def test_step_matches_bmat_passes_bit_for_bit(case):
    spaces, problem, config = _bit_case(case)
    # D stores exact zeros, so every saddle system drops some entries
    assert np.any(forms.assemble_divergence_constraint(spaces).data == 0.0)

    old = _run_recording_systems(spaces, problem, config, True)
    new = _run_recording_systems(spaces, problem, config, False)
    assert [d.picard_iters for d in new[1]] == [d.picard_iters for d in old[1]]
    for a, b in zip(new[0], old[0]):
        for name in ("z", "w", "P"):
            assert np.array_equal(getattr(a, name).values, getattr(b, name).values)
    # two systems on every pass, each through its lagged factor
    assert len(new[2]) == len(old[2]) == 2 * sum(d.picard_iters for d in new[1])
    for got, want in zip(new[2], old[2]):
        _assert_same_arrays(got, want)


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


# ---------------------------------------------------------------------------
# a lean Picard pass: data kernels, a kept system structure, direct matvecs


def test_run_builds_only_the_fixed_operator_matrices(monkeypatch):
    real_matrix = forms.Pattern.matrix
    real_layout = forms.Layout.__init__
    calls, layouts = [], []

    def matrix(self, data, keep=None):
        calls.append(self)
        return real_matrix(self, data, keep)

    def layout(self, *args):
        layouts.append(self)
        real_layout(self, *args)

    monkeypatch.setattr(forms.Pattern, "matrix", matrix)
    monkeypatch.setattr(forms.Layout, "__init__", layout)
    spaces = build_spaces(build_rectangle_mesh(4, 4, ("left",)))
    # the first run builds M_velocity, M_temperature, D and both layouts on
    # the spaces, and G for itself; every later run builds G alone
    fixed = {spaces.velocity_pattern, spaces.temperature_pattern,
             spaces.divergence_pattern, spaces.buoyancy_pattern}
    for k, t_end in enumerate((0.01, 0.05, 0.02)):
        calls.clear()
        layouts.clear()
        _, diags = run(spaces, _still_cavity(), SolverConfig(dt=0.01, t_end=t_end))
        assert sum(d.picard_iters for d in diags) >= len(diags) > 0
        if k == 0:
            assert len(calls) == 4 and set(calls) == fixed
            assert len(layouts) == 2
        else:
            assert calls == [spaces.buoyancy_pattern] and layouts == []
    assert set(layouts) <= {spaces.temperature_layout, spaces.saddle_layout}


def test_runs_sharing_spaces_match_runs_on_fresh_spaces_bit_for_bit(monkeypatch):
    mesh = build_rectangle_mesh(8, 8, ("left",))
    model = CoefficientModel(tanh_blend_law(0.5, 2.0), tanh_blend_law(0.7, 1.3))
    cavity = (_still_cavity(), SolverConfig(dt=0.01, t_end=0.05))
    mms = (oracles.make_mms_problem(model, beta=0.5),
           SolverConfig(dt=1e-3, t_end=0.01))
    real_structure = forms.Layout._structure
    rebuilt = []

    def structure(self, data, zeros):
        rebuilt.append(self)
        return real_structure(self, data, zeros)

    monkeypatch.setattr(forms.Layout, "_structure", structure)
    shared = build_spaces(mesh)
    for problem, config in (cavity, mms, cavity):
        rebuilt.clear()
        got = _run_recording_systems(shared, problem, config, False)
        shared_rebuilt = list(rebuilt)
        want = _run_recording_systems(build_spaces(mesh), problem, config, False)
        for a, b in zip(got[0], want[0], strict=True):
            for name in ("z", "w", "P"):
                assert getattr(a, name).values.tobytes() == \
                    getattr(b, name).values.tobytes()
        assert ([repr(d.csv_values()) for d in got[1]]
                == [repr(d.csv_values()) for d in want[1]])
        for x, y in zip(got[2], want[2], strict=True):
            _assert_same_arrays(x, y)
    # z0 = 0 in the cavity: its first pass has exact zeros that the MMS run
    # ended without, so the shared saddle layout rebuilt its structure
    assert shared.saddle_layout in shared_rebuilt


def test_layout_keeps_its_structure_until_the_zero_set_changes(monkeypatch):
    spaces, problem, config = _bit_case("cavity_8x8")
    real_system = forms.Layout.system
    real_structure = forms.Layout._structure
    built, rebuilt = [], []

    def system(self, *block_data):
        out = real_system(self, *block_data)
        built.append((self, [b.copy() for b in block_data], out))
        return out

    def structure(self, data, zeros):
        rebuilt.append(self)
        return real_structure(self, data, zeros)

    monkeypatch.setattr(forms.Layout, "system", system)
    monkeypatch.setattr(forms.Layout, "_structure", structure)
    _, diags = run(spaces, problem, config)
    # a system per stage and pass, and the heat system of each step's check
    # that stops it
    assert len(built) == 2 * sum(d.picard_iters for d in diags) + len(diags)

    changes = {}
    last = {}
    for layout, block_data, got in built:
        want = hc.layout_system(layout, *block_data)
        _assert_same_arrays(got, want)
        # the kept structure is shared with later systems, so it is read-only
        _, indices, indptr = got
        assert not indices.flags.writeable and not indptr.flags.writeable
        zero_set = (want[2].tobytes(), want[1].tobytes())
        if last.get(layout) != zero_set:
            changes[layout] = changes.get(layout, 0) + 1
        last[layout] = zero_set
    assert len(changes) == 2
    for layout, count in changes.items():
        assert rebuilt.count(layout) == count
    # z0 = 0: the first saddle pass stores fewer entries than later ones
    assert max(changes.values()) >= 2


def test_matvec_is_the_product_scipy_computes_byte_for_byte():
    rng = np.random.default_rng(5)
    system = sp.random(60, 60, density=0.1, format="csc", random_state=rng)
    system.data[::3] *= -1.0
    x = rng.standard_normal(60)
    x[::4] = -0.0
    for _ in range(3):
        # a freed buffer of the product's size: numpy hands it to the next
        # allocation of that size, so an output that is not zeroed first
        # would start from its 7.0s
        junk = np.full(60, 7.0)
        del junk
        got = solver._matvec(hc._arrays(system), x)
        assert got.dtype == np.float64 and got.tobytes() == (system @ x).tobytes()
